import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadricfit.manifold import (
    InvalidInputError,
    Pose,
    as_spd,
    pose_retract,
    quat_to_rot,
    rot_to_quat,
    se3_exp,
    se3_log,
    so3_exp,
    so3_log,
    spd_retract_normalized,
    spd_sqrt,
    vec6_to_sym,
)
from conftest import random_spd, random_sym
from oracles import spd_log, spd_metric, spd_retract, sym_to_vec6


# ---------------------------------------------------------------------------
# SPD primitives


def test_spd_sqrt_identity():
    np.testing.assert_array_equal(spd_sqrt(np.eye(3)), np.eye(3))


def test_spd_sqrt_diagonal():
    np.testing.assert_allclose(spd_sqrt(np.diag([9.0, 4.0, 1.0])), np.diag([3.0, 2.0, 1.0]), atol=1e-12)


def test_spd_sqrt_multiply_back(rng):
    for _ in range(50):
        p = random_spd(rng)
        s = spd_sqrt(p)
        np.testing.assert_allclose(s @ s, p, atol=1e-10)
        assert np.linalg.eigvalsh(s)[0] > 0


def test_spd_sqrt_decomposition_independent(rng):
    # Reconstructing the root from an eigendecomposition with shuffled
    # eigenvalue order must give the same matrix.
    p = random_spd(rng)
    w, u = np.linalg.eigh(p)
    perm = [2, 0, 1]
    manual = (u[:, perm] * np.sqrt(w[perm])) @ u[:, perm].T
    np.testing.assert_allclose(spd_sqrt(p), manual, atol=1e-10)


def test_spd_sqrt_rejects_nonfinite():
    bad = np.eye(3).copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        spd_sqrt(bad)


def test_as_spd_rejects_indefinite():
    with pytest.raises(InvalidInputError):
        as_spd(np.diag([1.0, 1.0, -0.5]))


def test_spd_retract_zero_step_is_exact(rng):
    p = random_spd(rng)
    assert spd_retract(p, np.zeros((3, 3))) is p


def sym_expm(x):
    """Matrix exponential of a symmetric matrix (eigendecomposition route)."""
    w, u = np.linalg.eigh(x)
    return (u * np.exp(w)) @ u.T


def test_spd_retract_at_identity_is_expm(rng):
    x = random_sym(rng)
    np.testing.assert_allclose(spd_retract(np.eye(3), x), sym_expm(x), atol=1e-12)


def test_spd_retract_closure_large_steps(rng):
    for _ in range(200):
        p = random_spd(rng)
        xi = random_sym(rng, scale=4.0)
        xi *= 10.0 / max(np.linalg.norm(xi), 1e-9)
        q = spd_retract(p, xi)
        assert np.linalg.eigvalsh(q)[0] > 0.0


def test_spd_log_at_base_is_zero(rng):
    p = random_spd(rng)
    np.testing.assert_allclose(spd_log(p, p), np.zeros((3, 3)), atol=1e-12)


def test_spd_log_commuting_diagonal():
    q = np.diag([np.e**2, 1.0, 1.0])
    np.testing.assert_allclose(spd_log(np.eye(3), q), np.diag([2.0, 0.0, 0.0]), atol=1e-12)


def test_spd_retract_log_roundtrip(rng):
    for _ in range(50):
        p, q = random_spd(rng), random_spd(rng)
        np.testing.assert_allclose(spd_retract(p, spd_log(p, q)), q, atol=1e-9)


def test_spd_log_retract_inverse_pair(rng):
    for _ in range(50):
        p = random_spd(rng)
        xi = random_sym(rng)
        xi *= 2.0 / max(np.linalg.norm(xi), 1e-9)
        np.testing.assert_allclose(spd_log(p, spd_retract(p, xi)), xi, atol=1e-8)


def test_spd_retract_normalized_matches_congruence(rng):
    p = random_spd(rng)
    z = random_sym(rng, scale=0.5)
    s = spd_sqrt(p)
    np.testing.assert_allclose(
        spd_retract_normalized(p, z), spd_retract(p, s @ z @ s), atol=1e-10
    )


def test_spd_metric_euclidean_at_identity(rng):
    a, b = random_sym(rng), random_sym(rng)
    np.testing.assert_allclose(spd_metric(np.eye(3), a, b), np.trace(a @ b), atol=1e-12)


def test_spd_metric_positive(rng):
    p = random_spd(rng)
    a = random_sym(rng)
    assert spd_metric(p, a, a) > 0.0


def test_spd_metric_affine_invariance(rng):
    for _ in range(20):
        p = random_spd(rng)
        a, b = random_sym(rng), random_sym(rng)
        g = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        lhs = spd_metric(g @ p @ g.T, g @ a @ g.T, g @ b @ g.T)
        np.testing.assert_allclose(lhs, spd_metric(p, a, b), rtol=1e-9, atol=1e-9)


def test_vec6_roundtrip_and_isometry(rng):
    x = random_sym(rng)
    v = sym_to_vec6(x)
    np.testing.assert_allclose(vec6_to_sym(v), x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(v), np.linalg.norm(x, "fro"), rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_spd_retract_stays_spd_property(seed):
    r = np.random.default_rng(seed)
    p = random_spd(r)
    xi = random_sym(r, scale=3.0)
    assert np.linalg.eigvalsh(spd_retract(p, xi))[0] > 0.0


# ---------------------------------------------------------------------------
# SO(3) / SE(3)


def test_so3_exp_zero():
    np.testing.assert_array_equal(so3_exp(np.zeros(3)), np.eye(3))


def test_so3_exp_quarter_turn_x():
    r = so3_exp(np.array([np.pi / 2, 0.0, 0.0]))
    np.testing.assert_allclose(r @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1e-4, 0.5, 2.0, 3.1])
def test_so3_roundtrip(rng, scale):
    for _ in range(20):
        w = rng.normal(size=3)
        w *= scale / max(np.linalg.norm(w), 1e-12)
        if np.linalg.norm(w) >= np.pi:
            continue
        np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-10)


def test_so3_log_near_pi(rng):
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = axis * (np.pi - 1e-7)
        np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-9)


def test_se3_roundtrip(rng):
    # log recovers xi on the principal branch (rotation angle < pi)
    for _ in range(30):
        xi = rng.normal(size=6)
        angle = np.linalg.norm(xi[:3])
        if angle >= np.pi:
            xi[:3] *= rng.uniform(0.1, 0.95) * np.pi / angle
        t = se3_exp(xi)
        np.testing.assert_allclose(se3_log(t), xi, atol=1e-9)


def test_pose_compose_inverse(rng):
    a = se3_exp(rng.normal(size=6))
    b = se3_exp(rng.normal(size=6))
    ab = a.compose(b)
    np.testing.assert_allclose(ab.compose(b.inverse()).matrix(), a.matrix(), atol=1e-12)
    np.testing.assert_allclose(a.inverse().compose(a).matrix(), np.eye(4), atol=1e-12)


def test_quat_rot_roundtrip(rng):
    for _ in range(30):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        r = quat_to_rot(q)
        q2 = rot_to_quat(r)
        np.testing.assert_allclose(quat_to_rot(q2), r, atol=1e-12)


# ---------------------------------------------------------------------------
# Retractions as charts


def _spd_chart(p):
    return lambda delta: spd_retract(p, vec6_to_sym(delta)).ravel()


def _pose_chart(t):
    return lambda delta: pose_retract(t, delta).matrix().ravel()


@pytest.mark.parametrize("make_chart,dim", [
    (lambda rng: _spd_chart(random_spd(rng)), 6),
    (lambda rng: _pose_chart(se3_exp(rng.normal(size=6) * 0.3)), 6),
])
def test_retractions_are_local_diffeomorphisms(rng, make_chart, dim):
    # Finite differences of the retraction at zero span the full tangent space.
    chart = make_chart(rng)
    h = 1e-6
    cols = []
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        cols.append((chart(step) - chart(-step)) / (2 * h))
    assert np.linalg.matrix_rank(np.column_stack(cols), tol=1e-8) == dim


def test_pose_settled_reorthonormalizes_drifted_rotation(rng):
    pose = Pose(so3_exp(rng.normal(size=3)), np.array([1.0, -2.0, 3.0]))
    assert pose.settled() is pose
    drifted = Pose(pose.rotation @ (np.eye(3) + np.diag([1e-6, 0.0, 0.0])), pose.translation)
    out = drifted.settled()
    np.testing.assert_allclose(out.rotation @ out.rotation.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(out.rotation) > 0.0
    np.testing.assert_allclose(out.rotation, pose.rotation, atol=2e-6)
    np.testing.assert_array_equal(out.translation, pose.translation)
    # A stack settles each row as its single call does, a drifted
    # reflection's row included; a stack with no drifted row is itself.
    rows = [pose, drifted, Pose(-drifted.rotation, pose.translation),
            Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))]
    stack = Pose(np.stack([p.rotation for p in rows]), np.stack([p.translation for p in rows]))
    out = stack.settled()
    for i, p in enumerate(rows):
        assert np.array_equal(out.rotation[i], p.settled().rotation)
        assert np.array_equal(out.translation[i], p.translation)
    steady = Pose(stack.rotation[[0, 3]], stack.translation[[0, 3]])
    assert steady.settled() is steady
