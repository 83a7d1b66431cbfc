import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadricfit import _kernels
from quadricfit.costs import (
    BehindCameraError,
    BoundingBox,
    CameraFrame,
    CameraIntrinsics,
    DegenerateProjectionError,
    box_edge_planes,
    conic_bbox,
    project_dual,
)
from quadricfit.manifold import Pose, so3_exp
from quadricfit.quadric import RtsState
from conftest import random_rts
from oracles import frame_edge_planes

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
INTR2 = CameraIntrinsics(fx=420.0, fy=430.0, cx=300.0, cy=250.0)
STATUSES = (0, _kernels.BEHIND_CAMERA, _kernels.UNNORMALIZABLE, _kernels.NEGATIVE_DISCRIMINANT,
            _kernels.CUTS_PRINCIPAL_PLANE)


def random_duals(rng, n):
    return np.stack([random_rts(rng).dual for _ in range(n)])


def frame_and_rt(rng, rotation=np.eye(3)):
    pose = Pose(rotation, rng.normal(size=3) * 0.2)
    frame = CameraFrame(INTR, pose)
    return frame, frame.projection_rt()


def test_boxes_kernel_matches_reference(rng):
    duals = random_duals(rng, 40)
    duals[:, 2, 3] -= 8.0  # push centers in front of the camera
    duals[:, 3, 2] -= 8.0
    for rotation in (np.eye(3), so3_exp(np.array([0.2, -0.3, 0.15]))):
        frame, rt = frame_and_rt(rng, rotation)
        boxes, status = _kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy,
                                                  np.stack([rt] * len(duals)), duals)
        ok = status == 0
        assert ok.any()
        for i in range(duals.shape[0]):
            try:
                ref = conic_bbox(project_dual(duals[i], frame)).as_array()
            except (BehindCameraError, DegenerateProjectionError):
                assert not ok[i]
                continue
            assert ok[i]
            np.testing.assert_array_equal(boxes[i], ref)


def test_boxes_kernel_flags_behind_camera(rng):
    frame, rt = frame_and_rt(rng)
    q = random_rts(rng).dual.copy()
    q[2, 3] = 5.0  # center z = -5: behind the camera
    q[3, 2] = 5.0
    _, status = _kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy, rt[None], q[None])
    assert status[0] == _kernels.BEHIND_CAMERA


def test_tangency_kernel_matches_reference(rng):
    frame, _ = frame_and_rt(rng)
    duals = random_duals(rng, 20)
    duals[:, 2, 3] -= 8.0
    duals[:, 3, 2] -= 8.0
    box = BoundingBox(100.0, 400.0, 120.0, 320.0)
    planes = frame_edge_planes(frame, box)
    vals = _kernels.tangency_values(np.stack([planes] * len(duals)), duals)
    for i in range(duals.shape[0]):
        ref = np.einsum("pi,ij,pj->p", planes, duals[i], planes)
        np.testing.assert_allclose(vals[i], ref, rtol=1e-10, atol=1e-12)


def test_near_plane_status_does_not_depend_on_the_image_position():
    # g[2, 2] = r^T P r - z^2 is in m^2, and so is its tolerance
    # 1e-12 max(1, z^2): a landmark whose nearest surface point is 5e-7 m
    # ahead of the camera gets one status wherever it sits in the image
    # (g[2, 2] is about -2e-7 m^2 at both centers).
    axes = np.array([0.3, 0.25, 0.2])
    rt = Pose.identity().inverse_rt[None]
    statuses = []
    for x, y in ((1.0, 0.3), (0.1, 0.05)):
        dual = RtsState(np.eye(3), np.array([x, y, axes[2] + 5e-7]), axes).dual
        statuses.append(int(_kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy, rt,
                                                      dual[None])[1][0]))
    assert statuses == [0, 0]


def landmark_for_status(rng, frame, status):
    """A landmark placed in ``frame``'s camera coordinates so that its row
    gets ``status``."""
    rotation = so3_exp(rng.normal(size=3))
    if status == 0:
        center, axes = np.array([*rng.uniform(-1.0, 1.0, 2), rng.uniform(4.0, 8.0)]), rng.uniform(0.2, 0.6, 3)
    elif status == _kernels.BEHIND_CAMERA:
        center, axes = np.array([*rng.uniform(-1.0, 1.0, 2), -rng.uniform(2.0, 5.0)]), rng.uniform(0.2, 0.6, 3)
    elif status == _kernels.UNNORMALIZABLE:  # tangent to the principal plane
        rotation, axes = np.eye(3), rng.uniform(0.2, 0.6, 3)
        center = np.array([*rng.uniform(-0.2, 0.2, 2), axes[2]])
    elif status == _kernels.NEGATIVE_DISCRIMINANT:  # the camera is inside
        center, axes = np.array([*rng.uniform(-0.2, 0.2, 2), 0.5]), rng.uniform(1.5, 2.5, 3)
    else:  # across the principal plane, with a real box
        rotation, center, axes = np.eye(3), np.array([1.0, 0.3, 0.01]), np.array([0.3, 0.25, 0.2])
    pose = frame.pose
    return RtsState(pose.rotation @ rotation, pose.rotation @ center + pose.translation, axes).dual


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=4))
def test_stacked_cameras_equal_per_camera_calls(seed, cameras):
    # One call with a camera per row gives every row the bits of a call per
    # camera, in any row order and for every status, and so do the slopes
    # (NaN where a row has no derivative).
    rng = np.random.default_rng(seed)
    frames, duals, boxes_in, planes = [], [], [], []
    for c in range(cameras):
        frame = CameraFrame((INTR, INTR2)[c % 2], Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)))
        kinds = list(STATUSES) + list(rng.choice(STATUSES, size=rng.integers(0, 6)))
        frames.append(frame)
        duals.append(np.stack([landmark_for_status(rng, frame, k) for k in rng.permutation(kinds)]))
        box = np.sort(rng.uniform(0.0, 640.0, size=(2, 2)), axis=1).ravel()
        boxes_in.append(box)
        planes.append(frame_edge_planes(frame, BoundingBox.from_array(box)))
    boxes, status, vals, box_slopes, tangency_slopes = [], [], [], [], []
    for frame, d, p in zip(frames, duals, planes):
        i = frame.intrinsics
        cams = np.stack([frame.projection_rt()] * len(d))
        b, s = _kernels.boxes_from_duals(i.fx, i.fy, i.cx, i.cy, cams, d)
        boxes.append(b)
        status.append(s)
        box_slopes.append(_kernels.box_slopes(i.fx, i.fy, i.cx, i.cy, cams, d))
        vals.append(_kernels.tangency_values(np.stack([p] * len(d)), d))
        tangency_slopes.append(_kernels.tangency_slopes(np.stack([p] * len(d)), d))
    counts = [len(d) for d in duals]
    order = rng.permutation(sum(counts))
    intr = np.repeat([[f.intrinsics.fx, f.intrinsics.fy, f.intrinsics.cx, f.intrinsics.cy]
                      for f in frames], counts, axis=0)[order]
    rts = np.repeat([f.projection_rt() for f in frames], counts, axis=0)[order]
    stacked = np.concatenate(duals)[order]
    got_boxes, got_status = _kernels.boxes_from_duals(*intr.T, rts, stacked)
    assert set(got_status) == set(STATUSES)
    assert np.array_equal(got_boxes, np.concatenate(boxes)[order])
    assert np.array_equal(got_status, np.concatenate(status)[order])
    got_planes = box_edge_planes(intr, rts, np.repeat(boxes_in, counts, axis=0)[order])
    assert np.array_equal(got_planes, np.repeat(planes, counts, axis=0)[order])
    got_vals = _kernels.tangency_values(got_planes, stacked)
    assert np.array_equal(got_vals, np.concatenate(vals)[order])
    for got, per_camera in ((_kernels.box_slopes(*intr.T, rts, stacked), box_slopes),
                            (_kernels.tangency_slopes(got_planes, stacked), tangency_slopes)):
        for g, want in zip(got, zip(*per_camera)):
            assert np.array_equal(g, np.concatenate(want)[order], equal_nan=True)


def brute_voxel(rot_a, cen_a, half_a, rot_b, cen_b, half_b, lo, hi, n):
    axes = [lo[i] + (np.arange(n) + 0.5) * (hi[i] - lo[i]) / n for i in range(3)]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    in_a = np.all(np.abs((pts - cen_a) @ rot_a) <= half_a, axis=1)
    in_b = np.all(np.abs((pts - cen_b) @ rot_b) <= half_b, axis=1)
    return int(in_a.sum()), int(in_b.sum()), int((in_a & in_b).sum())


def test_voxel_kernel_matches_bruteforce(rng):
    for _ in range(5):
        rot_a, rot_b = so3_exp(rng.normal(size=3)), so3_exp(rng.normal(size=3))
        cen_a, cen_b = rng.normal(size=3), rng.normal(size=3)
        half_a, half_b = rng.uniform(0.3, 1.5, 3), rng.uniform(0.3, 1.5, 3)
        lo = np.minimum(cen_a, cen_b) - 2.0
        hi = np.maximum(cen_a, cen_b) + 2.0
        got = _kernels.voxel_box_overlap(rot_a, cen_a, half_a, rot_b, cen_b, half_b, lo, hi, 24)
        want = brute_voxel(rot_a, cen_a, half_a, rot_b, cen_b, half_b, lo, hi, 24)
        assert tuple(got) == want
