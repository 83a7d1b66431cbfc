import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadricfit import _kernels
from quadricfit.evaluation import (
    OrientedBox,
    circumscribed_box,
    iou_boxes,
    iou_duals,
    orientation_error,
    render_report,
    score_estimate,
    summarize,
)
from quadricfit.manifold import InvalidInputError, so3_exp
from quadricfit.quadric import FullState, RtsState, proper_axis_permutations, rts_from_dual
from quadricfit.sim import TrialResult
from conftest import random_rts
from oracles import aabb, iou_aabb_analytic


def axis_box(center, half):
    return OrientedBox(np.asarray(center, float), np.eye(3), np.asarray(half, float))


def test_circumscribed_box_examples():
    b = circumscribed_box(RtsState(np.eye(3), np.zeros(3), np.ones(3)).dual)
    np.testing.assert_allclose(b.center, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(b.half_extents, np.ones(3), atol=1e-9)
    q = RtsState(np.eye(3), np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])).dual
    b2 = circumscribed_box(q)
    np.testing.assert_allclose(b2.half_extents, [3.0, 2.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(b2.rotation, rts_from_dual(q).rotation, atol=1e-12)


def test_iou_identical_boxes():
    b = axis_box([0.3, -0.2, 1.0], [0.5, 0.7, 0.2])
    assert iou_boxes(b, b) == 1.0


def test_iou_disjoint_boxes():
    a = axis_box([0, 0, 0], [0.5, 0.5, 0.5])
    b = axis_box([5, 0, 0], [0.5, 0.5, 0.5])
    assert iou_boxes(a, b) == 0.0


def test_iou_half_overlap():
    a = axis_box([0, 0, 0], [0.5, 0.5, 0.5])
    b = axis_box([0.5, 0, 0], [0.5, 0.5, 0.5])
    assert abs(iou_boxes(a, b) - 1.0 / 3.0) < 1e-12


def test_iou_symmetry(rng):
    for _ in range(5):
        a = OrientedBox(rng.normal(size=3), so3_exp(rng.normal(size=3)), rng.uniform(0.2, 1.5, 3))
        b = OrientedBox(rng.normal(size=3), so3_exp(rng.normal(size=3)), rng.uniform(0.2, 1.5, 3))
        assert iou_boxes(a, b) == iou_boxes(b, a)


def test_iou_rigid_invariance(rng):
    a = OrientedBox(np.zeros(3), np.eye(3), np.array([1.0, 0.6, 0.4]))
    b = OrientedBox(np.array([0.4, 0.1, -0.2]), so3_exp([0.2, 0.1, -0.3]), np.array([0.8, 0.7, 0.5]))
    base = iou_boxes(a, b)
    for _ in range(5):
        r = so3_exp(rng.normal(size=3))
        t = rng.normal(size=3)
        a2 = OrientedBox(r @ a.center + t, r @ a.rotation, a.half_extents)
        b2 = OrientedBox(r @ b.center + t, r @ b.rotation, b.half_extents)
        assert abs(iou_boxes(a2, b2) - base) < 1e-9


def test_exact_iou_vs_analytic(rng):
    worst = 0.0
    for _ in range(100):
        a = axis_box(rng.normal(size=3) * 0.5, rng.uniform(0.2, 1.2, 3))
        b = axis_box(rng.normal(size=3) * 0.5, rng.uniform(0.2, 1.2, 3))
        worst = max(worst, abs(iou_boxes(a, b) - iou_aabb_analytic(a, b)))
    assert worst < 1e-12


def test_iou_cube_rotated_45_degrees():
    a = axis_box([0, 0, 0], [0.5, 0.5, 0.5])
    b = OrientedBox(np.zeros(3), so3_exp([0.0, 0.0, np.pi / 4]), np.full(3, 0.5))
    # The overlap is a regular octagon prism of area 2(sqrt 2 - 1) per unit
    # height, so IoU = 2(sqrt 2 - 1) / (2 - 2(sqrt 2 - 1)) = 1 / sqrt 2.
    assert abs(iou_boxes(a, b) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_iou_nested_boxes_is_volume_ratio(rng):
    for _ in range(10):
        r = so3_exp(rng.normal(size=3))
        outer = OrientedBox(rng.normal(size=3), r, rng.uniform(0.5, 1.5, 3))
        half = outer.half_extents * rng.uniform(0.2, 0.6, 3)
        shift = (outer.half_extents - half) * rng.uniform(-0.9, 0.9, 3)
        inner = OrientedBox(outer.center + r @ shift, r, half)
        want = float(np.prod(half) / np.prod(outer.half_extents))
        assert abs(iou_boxes(outer, inner) - want) < 1e-12


def test_iou_near_coplanar_boxes(rng):
    # Converged estimates lie within rounding of the truth: every face of
    # one box nearly coincides with a face of the other, also when the
    # axes come out relabeled.
    perms = proper_axis_permutations()
    for i in range(50):
        a = OrientedBox(rng.normal(size=3), so3_exp(rng.normal(size=3)), rng.uniform(0.2, 1.5, 3))
        perm = perms[i % len(perms)]
        eps = 1e-9
        b = OrientedBox(
            a.center + rng.normal(size=3) * eps,
            so3_exp(rng.normal(size=3) * eps) @ a.rotation @ perm,
            (np.abs(perm.T) @ a.half_extents) * (1.0 + rng.normal(size=3) * eps),
        )
        assert abs(iou_boxes(a, b) - 1.0) < 1e-6


def test_iou_touching_boxes():
    r = so3_exp([0.3, -0.2, 0.5])
    a = OrientedBox(np.zeros(3), r, np.array([0.5, 0.4, 0.3]))
    b = OrientedBox(r @ np.array([1.1, 0.2, 0.0]), r, np.array([0.6, 0.4, 0.3]))
    assert iou_boxes(a, b) == 0.0


def test_iou_non_finite_raises():
    a = axis_box([0, 0, 0], [0.5, 0.5, 0.5])
    b = axis_box([np.nan, 0, 0], [0.5, 0.5, 0.5])
    with pytest.raises(InvalidInputError):
        iou_boxes(a, b)
    with pytest.raises(InvalidInputError):
        iou_boxes(b, a)


def test_exact_iou_vs_voxel_count(rng):
    # Brute-force oracle: count grid-cell centers inside each box. At 64^3
    # cells over the union's bounding region the count is within about
    # 1e-3 of the exact IoU for boxes of comparable size.
    for _ in range(5):
        a = OrientedBox(rng.normal(size=3) * 0.4, so3_exp(rng.normal(size=3)), rng.uniform(0.3, 1.2, 3))
        b = OrientedBox(rng.normal(size=3) * 0.4, so3_exp(rng.normal(size=3)), rng.uniform(0.3, 1.2, 3))
        lo = np.minimum(aabb(a)[0], aabb(b)[0])
        hi = np.maximum(aabb(a)[1], aabb(b)[1])
        na, nb, both = _kernels.voxel_box_overlap(
            a.rotation, a.center, a.half_extents, b.rotation, b.center, b.half_extents, lo, hi, 64
        )
        assert abs(iou_boxes(a, b) - both / (na + nb - both)) < 5e-3


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([None, 0.0, 1e-12, 1e-9]))
def test_iou_bounded_and_symmetric_property(seed, eps):
    r = np.random.default_rng(seed)
    a = OrientedBox(r.normal(size=3), so3_exp(r.normal(size=3) * 2.0), r.uniform(0.05, 2.0, 3))
    if eps is None:  # an independent box
        b = OrientedBox(r.normal(size=3), so3_exp(r.normal(size=3) * 2.0), r.uniform(0.05, 2.0, 3))
    else:  # a near copy, with nearly coincident faces
        b = OrientedBox(
            a.center + r.normal(size=3) * eps,
            so3_exp(r.normal(size=3) * eps) @ a.rotation,
            a.half_extents * (1.0 + r.normal(size=3) * eps),
        )
    iou = iou_boxes(a, b)
    assert 0.0 <= iou <= 1.0
    assert iou == iou_boxes(b, a)


def test_iou_duals(rng):
    state = random_rts(rng)
    assert iou_duals(state.dual, state.dual) == 1.0


def test_score_estimate(rng):
    truth, est = random_rts(rng), random_rts(rng)
    assert score_estimate(est, truth) == (
        iou_duals(est.dual, truth.dual),
        orientation_error(rts_from_dual(est.dual).rotation, truth.rotation),
    )
    # Raw coefficients with a vanishing corner describe no ellipsoid.
    degenerate = FullState(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert score_estimate(degenerate, truth) == (0.0, 180.0)


def test_orientation_error_zero_cases(rng):
    r = so3_exp(rng.normal(size=3))
    assert orientation_error(r, r) < 1e-9
    for perm in proper_axis_permutations():
        assert orientation_error(r @ perm, r) < 1e-9


def test_orientation_error_known_offset(rng):
    for _ in range(10):
        truth = so3_exp(rng.normal(size=3))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        est = truth @ so3_exp(axis * np.radians(10.0))
        assert abs(orientation_error(est, truth) - 10.0) < 1e-6


def test_orientation_error_pseudometric(rng):
    for _ in range(20):
        a, b, c = (so3_exp(rng.normal(size=3)) for _ in range(3))
        dab, dbc, dac = (orientation_error(x, y) for x, y in ((a, b), (b, c), (a, c)))
        assert abs(orientation_error(a, b) - orientation_error(b, a)) < 1e-9
        assert dac <= dab + dbc + 1e-6


def _result(param="rts", model="semi", success=True, iou=0.99, iters=5, orient=1.0):
    return TrialResult(
        noise="L", arc_deg=60.0, scene_index=0, parameterization=param, model=model,
        success=success, iou=iou, orientation_error_deg=orient, iterations=iters,
        iterations_to_success=iters if success else None, attempts=iters + 1,
        final_cost=0.0, floor_cost=0.0, termination="cost_converged",
        mean_iter_time_s=0.001, cost_trace=[1.0, 0.0],
    )


def test_summarize_all_success():
    cell = [_result(iou=0.99) for _ in range(4)]
    s = summarize(cell)
    assert s.successes == 4 and s.trials == 4
    np.testing.assert_allclose(s.mean_iou, 0.99)
    np.testing.assert_allclose(s.mean_success_iou, 0.99)


def test_summarize_mixed_matches_hand_computation():
    cell = [
        _result(iou=0.9, success=True, iters=4),
        _result(iou=0.5, success=False, iters=100),
        _result(iou=0.8, success=True, iters=6),
    ]
    s = summarize(cell)
    assert s.successes == 2
    np.testing.assert_allclose(s.mean_iou, (0.9 + 0.5 + 0.8) / 3)
    np.testing.assert_allclose(s.mean_success_iou, 0.85)
    np.testing.assert_allclose(s.median_iterations, 6.0)
    np.testing.assert_allclose(s.median_iterations_to_success, 5.0)


def test_summarize_empty_success_absent():
    cell = [_result(success=False) for _ in range(3)]
    s = summarize(cell)
    assert s.mean_success_iou is None
    assert s.median_iterations_to_success is None


def test_summarize_empty_cell_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_render_report_layout():
    results = [
        _result(param=p, model=m)
        for p in ("full", "rts", "spd")
        for m in ("inverse", "semi")
    ]
    text = render_report(results)
    assert "success F+S+O" in text
    assert "avg success IoU" in text
    assert "1+1+1" in text
