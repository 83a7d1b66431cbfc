import numpy as np

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
from conftest import random_rts

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


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
        boxes, status = _kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy, rt, duals)
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
    _, status = _kernels.boxes_from_duals(INTR.fx, INTR.fy, INTR.cx, INTR.cy, rt, q[None])
    assert status[0] == _kernels.BEHIND_CAMERA


def test_tangency_kernel_matches_reference(rng):
    frame, _ = frame_and_rt(rng)
    duals = random_duals(rng, 20)
    duals[:, 2, 3] -= 8.0
    duals[:, 3, 2] -= 8.0
    box = BoundingBox(100.0, 400.0, 120.0, 320.0)
    planes = box_edge_planes(frame, box)
    vals, ok = _kernels.tangency_values(planes, duals)
    assert ok.all()
    for i in range(duals.shape[0]):
        ref = np.einsum("pi,ij,pj->p", planes, duals[i], planes)
        np.testing.assert_allclose(vals[i], ref, rtol=1e-10, atol=1e-12)


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
