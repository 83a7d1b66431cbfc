import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadricfit.manifold import so3_exp
from quadricfit.quadric import (
    DegenerateLandmarkError,
    FullState,
    RtsState,
    SpdState,
    coeffs_to_sym4,
    dual_from_rts,
    dual_shape,
    full_from_dual,
    normalize_dual,
    proper_axis_permutations,
    regularize_full,
    rts_from_dual,
    spd_from_dual,
    sym4_to_coeffs,
)
from conftest import random_rts, random_spd
from oracles import permuted_rts


def unit_sphere():
    return RtsState(np.eye(3), np.zeros(3), np.ones(3))


def test_dual_unit_sphere():
    np.testing.assert_allclose(unit_sphere().dual, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-15)


def test_dual_axis_swap_instance():
    # 90 degree z-rotation with the first two semi-axes swapped is the same
    # ellipsoid: the classic relabeling ambiguity of the RTS tuple.
    a = RtsState(np.eye(3), np.zeros(3), np.array([3.0, 2.0, 1.0]))
    b = RtsState(so3_exp(np.array([0.0, 0.0, np.pi / 2])), np.zeros(3), np.array([2.0, 3.0, 1.0]))
    np.testing.assert_allclose(a.dual, b.dual, atol=1e-12)


def test_dual_permutation_invariance(rng):
    for _ in range(20):
        state = random_rts(rng)
        q = state.dual
        for perm in proper_axis_permutations():
            np.testing.assert_allclose(permuted_rts(state, perm).dual, q, atol=1e-12)


def primal_from_rts(state):
    """Primal quadric matrix: surface points satisfy ``[x;1]^T Q [x;1] = 0``,
    with inverse-squared semi-axes so the unit sphere maps to diag(1, 1, 1, -1)."""
    s = np.asarray(state.scale, dtype=float)
    t = np.eye(4)
    t[:3, :3] = state.rotation
    t[:3, 3] = state.translation
    t_inv = np.linalg.inv(t)
    return t_inv.T @ np.diag(np.concatenate([1.0 / (s * s), [-1.0]])) @ t_inv


def test_tangent_plane_oracle(rng):
    # Sampled tangent planes of the primal ellipsoid satisfy pi^T Q* pi = 0.
    for _ in range(5):
        state = random_rts(rng)
        q = state.dual
        qp = primal_from_rts(state)
        s = np.asarray(state.scale)
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            x = state.rotation @ (s * u) + state.translation
            xh = np.append(x, 1.0)
            assert abs(xh @ qp @ xh) < 1e-9  # point on the primal surface
            n = state.rotation @ (u / s)
            n /= np.linalg.norm(n)
            plane = np.append(n, -n @ x)
            assert abs(plane @ q @ plane) < 1e-9


def test_dual_from_spd_examples():
    np.testing.assert_allclose(
        SpdState(np.eye(3), np.zeros(3)).dual, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        SpdState(np.diag([9.0, 4.0, 1.0]), np.zeros(3)).dual,
        np.diag([9.0, 4.0, 1.0, -1.0]),
        atol=1e-15,
    )


def test_dual_from_spd_matches_rts(rng):
    for _ in range(100):
        state = random_rts(rng)
        s = np.asarray(state.scale)
        shape = state.rotation @ np.diag(s * s) @ state.rotation.T
        spd = SpdState(0.5 * (shape + shape.T), state.translation)
        np.testing.assert_allclose(spd.dual, state.dual, atol=1e-12)


def test_spd_from_dual_is_inverse(rng):
    for _ in range(50):
        p = random_spd(rng)
        t = rng.normal(size=3)
        state = SpdState(p, t)
        back = spd_from_dual(state.dual)
        np.testing.assert_allclose(back.shape, p, atol=1e-10)
        np.testing.assert_allclose(back.translation, t, atol=1e-10)


def test_rts_from_dual_sorted_and_proper(rng):
    for _ in range(100):
        state = random_rts(rng)
        back = rts_from_dual(state.dual)
        assert back.scale[0] >= back.scale[1] >= back.scale[2] > 0
        assert np.linalg.det(back.rotation) > 0.999
        np.testing.assert_allclose(back.dual, state.dual, atol=1e-10)


def test_rts_from_dual_sphere_any_rotation_valid(rng):
    q = RtsState(np.eye(3), rng.normal(size=3), np.full(3, 1.5)).dual
    back = rts_from_dual(q)
    np.testing.assert_allclose(back.scale, [1.5, 1.5, 1.5], atol=1e-9)
    np.testing.assert_allclose(back.rotation @ back.rotation.T, np.eye(3), atol=1e-10)


def test_rts_from_dual_degenerate():
    q = np.diag([1.0, 1.0, 0.0, -1.0])
    with pytest.raises(DegenerateLandmarkError):
        rts_from_dual(q)


def test_volume_consistency(rng):
    for _ in range(20):
        state = random_rts(rng)
        det = np.linalg.det(dual_shape(state.dual))
        np.testing.assert_allclose(det, np.prod(np.asarray(state.scale)) ** 2, rtol=1e-9)


def test_projective_scale_quotient(rng):
    state = random_rts(rng)
    raw = state.dual
    for k in (2.0, -3.5, 1e-3):
        np.testing.assert_allclose(normalize_dual(k * raw), raw, atol=1e-12)


def test_coeff_roundtrip(rng):
    v = rng.normal(size=10)
    np.testing.assert_array_equal(sym4_to_coeffs(coeffs_to_sym4(v)), v)


def test_regularize_idempotent_on_valid(rng):
    state = full_from_dual(random_rts(rng).dual)
    out = regularize_full(state)
    np.testing.assert_allclose(out.v, state.v, atol=1e-12)


def test_regularize_clamps_hyperboloid(rng):
    state = random_rts(rng)
    q = state.dual.copy()
    shape = dual_shape(q)
    w, u = np.linalg.eigh(shape)
    w[0] = -0.3  # one negative shape eigenvalue: a hyperboloid
    bad_shape = (u * w) @ u.T
    c = -q[:3, 3]
    q_bad = q.copy()
    q_bad[:3, :3] = bad_shape - np.outer(c, c)
    fixed = regularize_full(FullState(sym4_to_coeffs(q_bad)))
    w_fixed = np.linalg.eigvalsh(dual_shape(fixed.dual))
    assert w_fixed[0] >= 1e-6 - 1e-12
    np.testing.assert_allclose(w_fixed[1:], w[1:], rtol=1e-9)


def test_regularize_projective_scale(rng):
    v = full_from_dual(random_rts(rng).dual).v
    a = regularize_full(FullState(v))
    b = regularize_full(FullState(2.0 * v))
    np.testing.assert_allclose(a.v, b.v, atol=1e-12)


def test_regularize_all_zero_raises():
    with pytest.raises(DegenerateLandmarkError):
        regularize_full(FullState(np.zeros(10)))


def test_rts_settled_reorthonormalizes_drifted_rotation(rng):
    state = random_rts(rng)
    assert state.settled() is state
    drifted = RtsState(state.rotation @ (np.eye(3) + np.diag([0.0, 1e-6, 0.0])),
                       state.translation, state.scale)
    out = drifted.settled()
    np.testing.assert_allclose(out.rotation @ out.rotation.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(out.rotation) > 0.0
    np.testing.assert_allclose(out.rotation, state.rotation, atol=2e-6)
    np.testing.assert_array_equal(out.translation, state.translation)
    np.testing.assert_array_equal(out.scale, state.scale)
    # A stack settles each row as its single call does, a drifted
    # reflection's row included; a stack with no drifted row is itself.
    rows = [state, drifted, RtsState(-drifted.rotation, state.translation, state.scale),
            random_rts(rng)]
    stack = RtsState(*(np.stack([getattr(r, name) for r in rows])
                       for name in ("rotation", "translation", "scale")))
    out = stack.settled()
    for i, r in enumerate(rows):
        assert np.array_equal(out.rotation[i], r.settled().rotation)
        assert np.array_equal(out.translation[i], r.translation)
        assert np.array_equal(out.scale[i], r.scale)
    steady = RtsState(stack.rotation[[0, 3]], stack.translation[[0, 3]], stack.scale[[0, 3]])
    assert steady.settled() is steady


def test_spd_settled_is_itself(rng):
    state = spd_from_dual(random_rts(rng).dual)
    assert state.settled() is state


def test_full_settled_is_regularized_unless_degenerate(rng):
    state = random_rts(rng)
    q_bad = state.dual.copy()
    q_bad[0, 0] -= 10.0  # a hyperboloid: one negative shape eigenvalue
    for v in (full_from_dual(state.dual).v, sym4_to_coeffs(q_bad)):
        np.testing.assert_array_equal(FullState(v).settled().v, regularize_full(FullState(v)).v)
    zero, no_corner = np.zeros(10), np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    # A corner just clear of zero, whose projection grows an entry past 1e12
    # and so loses it.
    lost = np.array([1.0, -1.0, 1.0, 1.0, 0, 0, 0, 0, 0, -1.0000001e-12])
    for v in (zero, no_corner, lost):
        degenerate = FullState(v)
        assert degenerate.settled() is degenerate
    # A stack regularizes each row as its single call does: the degenerate
    # rows among regular ones keep their value, and a stack of degenerate
    # rows alone is itself.
    rows = [zero, full_from_dual(state.dual).v, no_corner, sym4_to_coeffs(q_bad), lost,
            full_from_dual(random_rts(rng).dual).v]
    out = FullState(np.stack(rows)).settled()
    for i, v in enumerate(rows):
        assert np.array_equal(out.v[i], FullState(v).settled().v)
    degenerate = FullState(np.stack([no_corner, lost, zero]))
    assert degenerate.settled() is degenerate


def test_full_retract_is_plain_addition(rng):
    state = full_from_dual(random_rts(rng).dual)
    delta = rng.normal(size=10) * 0.1
    np.testing.assert_array_equal(state.retract(delta).v, state.v + delta)


def test_dual_from_rts_degenerate_scale():
    with pytest.raises(DegenerateLandmarkError):
        dual_from_rts(RtsState(np.eye(3), np.zeros(3), np.array([1.0, 1.0, 0.0])))


def test_proper_axis_permutations_group():
    perms = proper_axis_permutations()
    assert len(perms) == 24
    for p in perms:
        assert abs(np.linalg.det(p) - 1.0) < 1e-12
        np.testing.assert_allclose(p @ p.T, np.eye(3), atol=1e-12)
    # all distinct
    keys = {tuple(np.round(p.ravel()).astype(int)) for p in perms}
    assert len(keys) == 24


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_spd_representation_unique_property(seed):
    r = np.random.default_rng(seed)
    p = random_spd(r)
    t = r.normal(size=3)
    back = spd_from_dual(SpdState(p, t).dual)
    np.testing.assert_allclose(back.shape, p, atol=1e-9)
    np.testing.assert_allclose(back.translation, t, atol=1e-9)
