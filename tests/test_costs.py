import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadricfit import _kernels
from quadricfit._kernels import BEHIND_CAMERA, CUTS_PRINCIPAL_PLANE
from quadricfit.costs import (
    BehindCameraError,
    BoundingBox,
    CameraFrame,
    CameraIntrinsics,
    DegenerateProjectionError,
    Factor,
    box_edge_planes,
    conic_bbox,
    orientation_residuals,
    project_dual,
    residual_pose_prior,
    unit_direction,
)
from quadricfit.manifold import InvalidInputError, Pose, se3_exp, se3_log, so3_exp
from quadricfit.quadric import (
    DegenerateLandmarkError,
    RtsState,
    dual_center,
    dual_shape,
    proper_axis_permutations,
    rts_from_dual,
    rts_from_duals,
)
from conftest import random_rts
from oracles import dense_jacobian, permuted_rts, residual, scalar_se3_log

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


def frame_at_origin():
    return CameraFrame(INTR, Pose.identity())


def sphere_at(z, r=1.0):
    return RtsState(np.eye(3), np.array([0.0, 0.0, z]), np.full(3, r)).dual


def random_visible_pair(rng):
    """Random landmark in front of a random camera looking roughly at it."""
    state = random_rts(rng)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    position = np.asarray(state.translation) - direction * rng.uniform(6.0, 12.0)
    z = direction
    up = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    frame = CameraFrame(INTR, Pose(np.column_stack([x, y, z]), position))
    return state, frame


def sampled_box(state: RtsState, frame: CameraFrame, n=100_000, seed=0):
    """Pixel extrema of projected surface points: the independent oracle."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = (u * np.asarray(state.scale)) @ state.rotation.T + np.asarray(state.translation)
    m = frame.intrinsics.k @ frame.projection_rt()
    ph = np.hstack([pts, np.ones((n, 1))]) @ m.T
    px = ph[:, :2] / ph[:, 2:3]
    return np.array([px[:, 0].min(), px[:, 0].max(), px[:, 1].min(), px[:, 1].max()])


def test_project_sphere_closed_form():
    g = project_dual(sphere_at(5.0), frame_at_origin())
    box = conic_bbox(g)
    half = 500.0 / np.sqrt(24.0)
    np.testing.assert_allclose(box.as_array(), [320 - half, 320 + half, 240 - half, 240 + half], atol=1e-9)


def test_project_on_axis_sphere_symmetric_conic():
    # With the principal point at the pixel origin the circle has no cross term.
    centered = CameraIntrinsics(fx=500.0, fy=500.0, cx=0.0, cy=0.0)
    g = project_dual(sphere_at(5.0), CameraFrame(centered, Pose.identity()))
    assert abs(g[0, 1]) < 1e-12


def test_project_translation_shifts_conic():
    base = conic_bbox(project_dual(sphere_at(5.0), frame_at_origin())).as_array()
    for dx in (0.5, 1.0):
        q = RtsState(np.eye(3), np.array([dx, 0.0, 5.0]), np.ones(3)).dual
        shifted = conic_bbox(project_dual(q, frame_at_origin())).as_array()
        assert shifted[0] > base[0] and shifted[1] > base[1]
        np.testing.assert_allclose(shifted[2:], base[2:], atol=1e-9)


def test_project_behind_camera():
    with pytest.raises(BehindCameraError):
        project_dual(sphere_at(-5.0), frame_at_origin())


def test_conic_bbox_negative_discriminant():
    g = np.diag([1.0, 1.0, 1.0])  # imaginary conic: no real box
    with pytest.raises(DegenerateProjectionError):
        conic_bbox(g)


def test_conic_bbox_matches_sampling_oracle(rng):
    for _ in range(10):
        state, frame = random_visible_pair(rng)
        box = conic_bbox(project_dual(state.dual, frame)).as_array()
        oracle = sampled_box(state, frame)
        assert np.max(np.abs(box - oracle)) < 0.5


def backproject_edge(frame, line):
    """World plane through the camera center containing image line ``line``:
    ``(K [R_c|t_c])^T line``, unit-normalized."""
    pi = (frame.intrinsics.k @ frame.projection_rt()).T @ line
    return pi / np.linalg.norm(pi[:3])


def test_backproject_edge_contains_ray(rng):
    state, frame = random_visible_pair(rng)
    for line in (np.array([1.0, 0.0, -300.0]), np.array([0.0, 1.0, -200.0])):
        plane = backproject_edge(frame, line)
        center_h = np.append(frame.pose.translation, 1.0)
        assert abs(plane @ center_h) < 1e-9  # optical center on the plane
        # points whose projection lies on the line satisfy the plane equation
        for _ in range(100):
            if line[0] == 1.0:
                px = np.array([-line[2], rng.uniform(0, 480)])
            else:
                px = np.array([rng.uniform(0, 640), -line[2]])
            depth = rng.uniform(0.5, 20.0)
            cam_pt = depth * np.linalg.solve(INTR.k, np.append(px, 1.0))
            world = frame.pose.rotation @ cam_pt + frame.pose.translation
            assert abs(plane @ np.append(world, 1.0)) < 1e-9 * max(1.0, depth)


def test_box_edge_planes_are_backprojected_edges(rng):
    # Each row's planes are its box edges backprojected through its own camera.
    frames, boxes = [], []
    for _ in range(6):
        state, frame = random_visible_pair(rng)
        frames.append(frame)
        boxes.append(conic_bbox(project_dual(state.dual, frame)).as_array())
    intrinsics = [[f.intrinsics.fx, f.intrinsics.fy, f.intrinsics.cx, f.intrinsics.cy]
                  for f in frames]
    planes = box_edge_planes(intrinsics, np.stack([f.projection_rt() for f in frames]),
                             np.array(boxes))
    assert planes.shape == (6, 4, 4)
    for frame, box, got in zip(frames, boxes, planes):
        lines = [[1.0, 0.0, -box[0]], [1.0, 0.0, -box[1]], [0.0, 1.0, -box[2]], [0.0, 1.0, -box[3]]]
        expected = [backproject_edge(frame, np.array(line)) for line in lines]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_backproject_center_line_axis_aligned():
    plane = backproject_edge(frame_at_origin(), np.array([1.0, 0.0, -INTR.cx]))
    np.testing.assert_allclose(np.abs(plane), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_residual_box_inverse_zero_at_truth(rng):
    state, frame = random_visible_pair(rng)
    observed = conic_bbox(project_dual(state.dual, frame))
    np.testing.assert_allclose(residual("box-inverse", state.dual, {"box": observed}, frame),
                               np.zeros(4), atol=1e-9)


def test_residual_box_inverse_shifted_edges(rng):
    state, frame = random_visible_pair(rng)
    observed = conic_bbox(project_dual(state.dual, frame)).as_array()
    shifted = BoundingBox(observed[0] + 2.0, observed[1] + 2.0, observed[2], observed[3])
    r = residual("box-inverse", state.dual, {"box": shifted}, frame)
    np.testing.assert_allclose(np.abs(r), [2.0, 2.0, 0.0, 0.0], atol=1e-9)


def test_residual_box_inverse_matches_oracle(rng):
    for _ in range(5):
        state, frame = random_visible_pair(rng)
        observed = BoundingBox(100.0, 400.0, 100.0, 300.0)
        r = residual("box-inverse", state.dual, {"box": observed}, frame)
        oracle = sampled_box(state, frame) - observed.as_array()
        assert np.max(np.abs(r - oracle)) < 0.5


def test_residual_box_semi_zero_at_truth(rng):
    state, frame = random_visible_pair(rng)
    observed = conic_bbox(project_dual(state.dual, frame))
    np.testing.assert_allclose(residual("box-semi", state.dual, {"box": observed}, frame),
                               np.zeros(4), atol=1e-9)


def test_ellipsoid_cutting_principal_plane_raises():
    # Center 1 cm in front of the camera, semi-axes up to 30 cm: part of the
    # ellipsoid is behind the camera, and its "box" would be meaningless.
    frame = frame_at_origin()
    rt = frame.projection_rt()
    observed = BoundingBox(0.0, 1.0, 0.0, 1.0)
    near = RtsState(np.eye(3), np.array([1.0, 0.3, 0.01]), np.array([0.3, 0.25, 0.2])).dual
    _, status = _kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy, rt[None], near[None])
    assert status[0] == CUTS_PRINCIPAL_PLANE
    with pytest.raises(BehindCameraError, match="principal plane"):
        residual("box-inverse", near, {"box": observed}, frame)
    with pytest.raises(BehindCameraError, match="principal plane"):
        project_dual(near, frame)
    far = RtsState(np.eye(3), np.array([1.0, 0.3, 5.0]), np.array([0.3, 0.25, 0.2])).dual
    box = conic_bbox(project_dual(far, frame)).as_array()
    assert np.all(np.isfinite(box)) and box[0] < box[1] and box[2] < box[3]
    np.testing.assert_array_equal(residual("box-inverse", far, {"box": observed}, frame),
                                  box - observed.as_array())


def test_tangency_values_unit_sphere():
    q = sphere_at(0.0)
    tangent = np.array([0.0, 0.0, 1.0, -1.0])
    assert abs(tangent @ q @ tangent) < 1e-15
    off = np.array([0.0, 0.0, 1.0, -2.0])
    assert abs(abs(off @ q @ off) - 3.0) < 1e-12


def test_residual_orientation_aligned(rng):
    state = random_rts(rng)
    q = state.dual
    axes = rts_from_dual(q).rotation
    for i in range(3):
        np.testing.assert_allclose(residual("orientation", q, {"direction": axes[:, i]}),
                                   np.zeros(9), atol=1e-9)
        np.testing.assert_allclose(residual("orientation", q, {"direction": -axes[:, i]}),
                                   np.zeros(9), atol=1e-9)


def test_residual_orientation_formula(rng):
    state = random_rts(rng)
    q = state.dual
    r = rts_from_dual(q).rotation
    m = r[:, 0] + r[:, 1]
    m /= np.linalg.norm(m)  # 45 degrees between two axes
    res = residual("orientation", q, {"direction": m})
    manual = np.concatenate([np.cross(r[:, i], m) * float(r[:, i] @ m) for i in range(3)])
    np.testing.assert_allclose(res, manual, atol=1e-12)
    assert np.linalg.norm(res) > 0.1


def test_residual_orientation_sign_symmetry(rng):
    state = random_rts(rng)
    m = rng.normal(size=3)
    m /= np.linalg.norm(m)
    np.testing.assert_array_equal(
        residual("orientation", state.dual, {"direction": m}),
        residual("orientation", state.dual, {"direction": -m}),
    )


def test_residual_orientation_zero_direction(rng):
    with pytest.raises(InvalidInputError):
        residual("orientation", random_rts(rng).dual, {"direction": np.zeros(3)})


def test_residual_shape_examples():
    q = RtsState(np.eye(3), np.zeros(3), np.array([3.0, 2.0, 1.0])).dual
    np.testing.assert_allclose(residual("shape", q, {"prior": (3.0, 2.0, 1.0)}),
                               [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(residual("shape", q, {"prior": (6.0, 4.0, 2.0)}),
                               [0.0, 0.0], atol=1e-9)
    q2 = RtsState(np.eye(3), np.zeros(3), np.array([4.0, 2.0, 1.0])).dual
    np.testing.assert_allclose(residual("shape", q2, {"prior": (3.0, 2.0, 1.0)}),
                               [1.0, 0.0], atol=1e-9)


def test_residual_shape_bad_prior(rng):
    with pytest.raises(InvalidInputError):
        residual("shape", random_rts(rng).dual, {"prior": (1.0, 2.0, 3.0)})


def test_residual_size_examples():
    q = RtsState(np.eye(3), np.zeros(3), np.array([3.0, 2.0, 1.0])).dual
    assert abs(residual("size", q, {"prior": (3.0, 2.0, 1.0)})) < 1e-9
    assert abs(residual("size", q, {"prior": (1.0, 1.0, 1.0)}) - 5.0) < 1e-9
    # paper-literal determinant form, selectable for comparison
    assert abs(residual("size", q, {"prior": (1.0, 1.0, 1.0), "form": "det"}) - 35.0) < 1e-8


def test_residual_size_rotation_invariant(rng):
    s = np.array([1.5, 0.9, 0.4])
    prior = (1.0, 0.8, 0.5)
    vals = []
    for _ in range(10):
        r = so3_exp(rng.normal(size=3))
        vals.append(residual("size", RtsState(r, rng.normal(size=3), s).dual, {"prior": prior}))
    np.testing.assert_allclose(vals, vals[0], atol=1e-9)


def test_residual_support_examples():
    assert abs(residual("support", sphere_at(0.0), {"plane": np.array([0.0, 0.0, 1.0, 1.0])})) < 1e-12
    q = RtsState(np.eye(3), np.array([0.0, 0.0, 1.0]), np.ones(3)).dual
    assert abs(residual("support", q, {"plane": np.array([0.0, 0.0, 1.0, 0.0])})) < 1e-12
    q2 = RtsState(np.eye(3), np.array([0.0, 0.0, 1.0]), np.full(3, 2.0)).dual
    val = residual("support", q2, {"plane": np.array([0.0, 0.0, 1.0, 0.0])})
    assert abs(val - 3.0) < 1e-12  # reach^2 - dist^2 = 4 - 1


def test_pose_prior_rows_equal_per_row_logs(rng):
    # One batched logarithm over a stack of poses gives each row the bits of
    # its own se3_log, across the small-angle, general and near-pi branches.
    observed = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
    axes = rng.normal(size=(10, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = [0.0, 1e-9, 5e-8, 3e-7, 1e-3, 0.7, 2.5, 3.0, np.pi - 1e-7, np.pi - 3e-9]
    poses = [se3_exp(np.concatenate([a * axis, rng.normal(size=3)])).compose(observed)
             for a, axis in zip(angles, axes)]
    rows = residual_pose_prior(Pose(np.stack([x.rotation for x in poses]),
                                    np.stack([x.translation for x in poses])), observed.inverse())
    thetas = []
    for x, row in zip(poses, rows):
        rel = x.compose(observed.inverse())
        assert np.array_equal(row, se3_log(rel))
        assert np.array_equal(row, scalar_se3_log(rel.rotation, rel.translation))
        thetas.append(np.arccos(np.clip(0.5 * (np.trace(rel.rotation) - 1.0), -1.0, 1.0)))
    thetas = np.array(thetas)
    assert (thetas < 1e-7).sum() >= 2 and (thetas > np.pi - 1e-6).sum() == 2
    assert ((thetas >= 1e-7) & (thetas <= np.pi - 1e-6)).sum() >= 5


def test_residual_pose_prior(rng):
    obs = se3_exp(rng.normal(size=6) * 0.5)
    np.testing.assert_allclose(residual_pose_prior(obs, obs.inverse()), np.zeros(6), atol=1e-12)
    xi = rng.normal(size=6) * 1e-3
    x = se3_exp(xi).compose(obs)
    np.testing.assert_allclose(residual_pose_prior(x, obs.inverse()), xi, atol=1e-9)
    xi2 = rng.normal(size=6) * 0.4
    x2 = se3_exp(xi2).compose(obs)
    np.testing.assert_allclose(residual_pose_prior(x2, obs.inverse()), xi2, atol=1e-9)


def test_parameterization_independence_under_relabeling(rng):
    # Every residual evaluated through the dual quadric is identical for all
    # 24 RTS tuples describing the same ellipsoid.
    state, frame = random_visible_pair(rng)
    observed = conic_bbox(project_dual(state.dual, frame))
    m = rng.normal(size=3)
    m /= np.linalg.norm(m)
    plane = np.array([0.0, 0.0, 1.0, -float(state.translation[2] - 3.0)])
    prior = tuple(sorted(np.asarray(state.scale), reverse=True))
    base = {
        "inv": residual("box-inverse", state.dual, {"box": observed}, frame),
        "semi": residual("box-semi", state.dual, {"box": observed}, frame),
        "ori": residual("orientation", state.dual, {"direction": m}),
        "shape": residual("shape", state.dual, {"prior": prior}),
        "size": residual("size", state.dual, {"prior": prior}),
        "sup": residual("support", state.dual, {"plane": plane}),
    }
    for perm in proper_axis_permutations():
        q = permuted_rts(state, perm).dual
        np.testing.assert_allclose(residual("box-inverse", q, {"box": observed}, frame),
                                   base["inv"], atol=1e-10)
        np.testing.assert_allclose(residual("box-semi", q, {"box": observed}, frame),
                                   base["semi"], atol=1e-10)
        np.testing.assert_allclose(residual("orientation", q, {"direction": m}),
                                   base["ori"], atol=1e-10)
        np.testing.assert_allclose(residual("shape", q, {"prior": prior}), base["shape"], atol=1e-10)
        np.testing.assert_allclose(residual("size", q, {"prior": prior}), base["size"], atol=1e-10)
        np.testing.assert_allclose(residual("support", q, {"plane": plane}), base["sup"], atol=1e-10)


def test_shape_size_rigid_invariance(rng):
    state = random_rts(rng)
    prior = (2.0, 1.0, 0.5)
    base_shape = residual("shape", state.dual, {"prior": prior})
    base_size = residual("size", state.dual, {"prior": prior})
    for _ in range(5):
        moved = RtsState(so3_exp(rng.normal(size=3)) @ state.rotation, rng.normal(size=3), state.scale)
        np.testing.assert_allclose(residual("shape", moved.dual, {"prior": prior}),
                                   base_shape, atol=1e-9)
        np.testing.assert_allclose(residual("size", moved.dual, {"prior": prior}),
                                   base_size, atol=1e-9)


def test_richardson_fd_consistency_all_residuals(rng, monkeypatch):
    # Numeric Jacobians at step h and h/2 agree to relative 1e-4 for every
    # residual kind, across 50 random configurations.
    from quadricfit import solver
    from quadricfit.solver import Problem, linearize

    h = solver.FD_STEP

    for _ in range(50):
        state, frame = random_visible_pair(rng)
        init = RtsState(
            so3_exp(rng.normal(size=3) * 0.2) @ state.rotation,
            np.asarray(state.translation) + rng.normal(size=3) * 0.3,
            np.asarray(state.scale) * rng.uniform(0.8, 1.2, 3),
        )
        observed = conic_bbox(project_dual(state.dual, frame))
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        plane = np.array([0.0, 0.0, 1.0, -float(state.translation[2] - 2.0)])
        prior = tuple(sorted(rng.uniform(0.5, 2.0, 3), reverse=True))
        factors = [
            Factor(0, "box-inverse", ("cam", "obj"), {"intrinsics": INTR, "box": observed}),
            Factor(1, "box-semi", ("cam", "obj"), {"intrinsics": INTR, "box": observed}),
            Factor(2, "orientation", ("obj",), {"direction": m}),
            Factor(3, "shape", ("obj",), {"prior": prior}),
            Factor(4, "size", ("obj",), {"prior": prior}),
            Factor(5, "support", ("obj",), {"plane": plane}),
            Factor(6, "pose-prior", ("cam",), {"observed": frame.pose}),
        ]
        problem = Problem({"cam": frame.pose, "obj": init}, factors, set())
        monkeypatch.setattr(solver, "FD_STEP", h)
        full = linearize(problem)
        monkeypatch.setattr(solver, "FD_STEP", 0.5 * h)
        half = linearize(problem)
        if full.skipped or half.skipped:
            continue  # unprojectable perturbation; not a valid FD comparison
        full, half = dense_jacobian(full), dense_jacobian(half)
        scale = np.maximum(np.abs(full), np.abs(half))
        # mixed criterion: entries far below the block scale are FD noise
        rel = np.abs(full - half) / (scale + 1e-5 * max(scale.max(), 1.0))
        assert rel.max() < 1e-4


def test_factor_validation():
    with pytest.raises(InvalidInputError):
        Factor(0, "nonsense", ("a",), {})
    for variance in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            Factor(0, "size", ("a",), {}, variance=variance)
    # A factor takes its kind's number of targets: a box factor a pose and a
    # landmark, a prior its one variable.
    with pytest.raises(InvalidInputError, match="takes 2 target"):
        Factor(0, "box-inverse", ("a",), {})
    with pytest.raises(InvalidInputError, match="takes 1 target"):
        Factor(0, "orientation", ("a", "b"), {"direction": np.array([0, 0, 1.0])})
    f = Factor(0, "orientation", ("a",), {"direction": np.array([0, 0, 1.0])})
    assert f.variance.shape == (9,)
    assert f.dim == 9



@pytest.mark.parametrize("kind, targets, payload", [
    ("support", ("obj",), {"plane": [0.0, 0.0, 0.0, 1.0]}),
    ("support", ("obj",), {"plane": [0.0, 0.0, 1.0]}),
    ("orientation", ("obj",), {"direction": [0.0, 0.0, 0.0]}),
    ("orientation", ("obj",), {"direction": [0.0, np.nan, 1.0]}),
    ("shape", ("obj",), {"prior": (1.0, 2.0, 3.0)}),
    ("size", ("obj",), {"prior": (3.0, 2.0, 1.0), "form": "cube"}),
    ("size", ("obj",), {}),
    ("box-inverse", ("cam", "obj"), {}),
    ("box-semi", ("cam", "obj"), {"intrinsics": INTR, "box": [0.0, 1.0, 0.0, 1.0]}),
    ("pose-prior", ("cam",), {"observed": np.eye(4)}),
    ("pose-prior", ("cam",), None),
])
def test_factor_rejects_bad_payload(kind, targets, payload):
    # A payload its kind's rows cannot read is refused when the factor is
    # built, not at the first evaluation (or never).
    with pytest.raises(InvalidInputError):
        Factor(0, kind, targets, payload)

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_detections_and_intrinsics_rejected(bad):
    # A NaN would pass every ordering test and reach the solver as a NaN cost.
    for edges in ([bad, 1.0, 0.0, 1.0], [0.0, bad, 0.0, 1.0], [0.0, 1.0, bad, 1.0],
                  [0.0, 1.0, 0.0, bad]):
        with pytest.raises(InvalidInputError, match="finite"):
            BoundingBox(*edges)
    for focal in ({"fx": bad, "fy": 500.0}, {"fx": 500.0, "fy": bad}):
        with pytest.raises(InvalidInputError, match="focal lengths"):
            CameraIntrinsics(cx=320.0, cy=240.0, **focal)
    with pytest.raises(InvalidInputError, match="focal lengths must be positive"):
        CameraIntrinsics(fx=0.0, fy=500.0, cx=320.0, cy=240.0)


# ---------------------------------------------------------------------------
# Batched forms against the one-quadric formulas they replaced


def _scalar_box(q, frame):
    """One-quadric box: center test, projection, normalization, discriminants."""
    rt = frame.projection_rt()
    if rt[2, :3] @ dual_center(q) + rt[2, 3] <= 0.0:
        raise BehindCameraError("behind")
    m = frame.intrinsics.k @ rt
    g = m @ q @ m.T
    corner = g[2, 2]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    if abs(corner) < tol:
        raise DegenerateProjectionError("corner")
    g = g / corner
    g = 0.5 * (g + g.T)
    du = g[0, 2] ** 2 - g[0, 0] * g[2, 2]
    dv = g[1, 2] ** 2 - g[1, 1] * g[2, 2]
    if du < 0.0 or dv < 0.0:
        raise DegenerateProjectionError("discriminant")
    if corner >= -tol:  # pi^T q pi, pi the camera's z row: the ellipsoid cuts that plane
        raise BehindCameraError("principal plane")
    ru, rv = np.sqrt(du), np.sqrt(dv)
    return np.array([g[0, 2] - ru, g[0, 2] + ru, g[1, 2] - rv, g[1, 2] + rv])


def _scalar_rts(q):
    p = dual_shape(q)
    w, u = np.linalg.eigh(p)
    if w[0] <= 1e-12:
        raise DegenerateLandmarkError("not positive definite")
    w, r = w[[2, 1, 0]], u[:, [2, 1, 0]]
    if np.linalg.det(r) < 0.0:
        r = r.copy()
        r[:, 2] = -r[:, 2]
    return r, np.sqrt(w)


def _scalar_priors(q, m, prior, plane):
    r, s = _scalar_rts(q)
    m = m / np.linalg.norm(m)
    a, b, c = prior
    orient = np.concatenate([np.cross(r[:, i], m) * float(r[:, i] @ m) for i in range(3)])
    shape = np.array([s[0] / s[2] - a / c, s[1] / s[2] - b / c])
    size = float(s[0] * s[1] * s[2] - a * b * c)
    size_det = float(np.linalg.det(dual_shape(q)) - a * b * c)
    return orient, shape, size, size_det, float(plane @ q @ plane)


def _random_scene(seed, n):
    rng = np.random.default_rng(seed)
    frame = CameraFrame(INTR, Pose(so3_exp(rng.normal(scale=0.2, size=3)), rng.normal(size=3)))
    duals = []
    for _ in range(n):
        state = RtsState(so3_exp(rng.normal(size=3)), rng.normal(scale=2.0, size=3) + [0, 0, 4],
                         rng.uniform(0.05, 3.0, size=3))
        duals.append(state.dual)
    plane = np.append(rng.normal(size=3), rng.normal())
    return frame, np.stack(duals), rng.normal(size=3), plane / np.linalg.norm(plane[:3])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=12))
def test_batched_box_rows_equal_scalar_formula(seed, n):
    # Rows of one batch, and a batch of one through factor_residual, give the bits of
    # the one-quadric formula; the scene mixes centers behind the camera,
    # cameras inside ellipsoids and ordinary views.
    frame, duals, _, _ = _random_scene(seed, n)
    rt = frame.projection_rt()
    boxes, status = _kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy,
                                              np.stack([rt] * len(duals)), duals)
    for q, box, code in zip(duals, boxes, status):
        try:
            expected = _scalar_box(q, frame)
        except (BehindCameraError, DegenerateProjectionError) as exc:
            assert code != 0
            assert isinstance(exc, BehindCameraError) == (code in (BEHIND_CAMERA,
                                                                   CUTS_PRINCIPAL_PLANE))
            with pytest.raises(type(exc)):
                residual("box-inverse", q, {"box": BoundingBox(0.0, 1.0, 0.0, 1.0)}, frame)
            continue
        assert code == 0
        assert np.array_equal(box, expected)
        assert np.array_equal(conic_bbox(project_dual(q, frame)).as_array(), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=12))
def test_batched_prior_rows_equal_scalar_formula(seed, n):
    frame, duals, m, plane = _random_scene(seed, n)
    prior = (0.9, 0.5, 0.3)
    rotations, scales, ok = rts_from_duals(duals)
    orient = orientation_residuals(rotations, unit_direction(m))
    for i, q in enumerate(duals):
        expected = _scalar_priors(q, m, prior, plane)
        assert ok[i]
        assert np.array_equal(orient[i], expected[0])
        got = (residual("orientation", q, {"direction": m}), residual("shape", q, {"prior": prior}),
               residual("size", q, {"prior": prior}),
               residual("size", q, {"prior": prior, "form": "det"}),
               residual("support", q, {"plane": plane}))
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        r, s = _scalar_rts(q)
        assert np.array_equal(rotations[i], r) and np.array_equal(scales[i], s)


def test_rts_from_duals_flags_degenerate_rows():
    good = sphere_at(5.0)
    flat = good.copy()
    flat[2, 2] = -flat[2, 3] ** 2  # zero third semi-axis
    thin = [RtsState(np.eye(3), np.array([0.0, 0.0, 5.0]), np.array([1.0, 0.8, s])).dual
            for s in (2e-6, 7e-7)]  # squared semi-axis 4e-12 and 4.9e-13
    _, _, ok = rts_from_duals(np.stack([good, flat, np.zeros((4, 4))] + thin))
    assert ok.tolist() == [True, False, False, True, False]
    with pytest.raises(DegenerateLandmarkError):
        rts_from_dual(flat)
