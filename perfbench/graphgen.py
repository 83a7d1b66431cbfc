"""Seeded multi-landmark factor graphs for the ``graph_k16`` workload.

Built only from quadricfit's public API: a ring of cameras looks at a
floor of ellipsoids; every landmark carries orientation, scale and support
priors, every camera pose but the first (the gauge) is free under a pose
prior, and only detections whose box lies wholly inside the image are
kept. The graph carries a truth block for its landmarks; the true camera
poses are returned beside it, because the graph format has no place for
them.
"""

from __future__ import annotations

import numpy as np

from quadricfit import graphio
from quadricfit.costs import (
    BehindCameraError,
    CameraFrame,
    CameraIntrinsics,
    DegenerateProjectionError,
    conic_bbox,
    project_dual,
)
from quadricfit.manifold import Pose, pose_retract, quat_to_rot, rot_to_quat
from quadricfit.quadric import RtsState, dual_shape, rts_perturb

INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

BOX_SIGMA_PX = 2.0
POSE_PRIOR_ROT_DEG = 0.5
POSE_PRIOR_TRANS_M = 0.05
INIT_ROT_RAD = 0.1
INIT_TRANS_M = 0.1
INIT_SCALE_REL = 0.1


def _look_at(position: np.ndarray, target: np.ndarray) -> Pose:
    """World-from-camera pose with the camera +z axis pointing at target."""
    z = target - position
    z = z / np.linalg.norm(z)
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x = x / np.linalg.norm(x)
    return Pose(np.column_stack([x, np.cross(z, x), z]), position)


def _pose_entry(pose: Pose) -> dict:
    return {"q_wxyz": rot_to_quat(pose.rotation).tolist(),
            "t_xyz": np.asarray(pose.translation, dtype=float).tolist()}


def _rts_entry(state: RtsState) -> dict:
    return {**_pose_entry(Pose(state.rotation, state.translation)),
            "scale": np.asarray(state.scale, dtype=float).tolist()}


def _box_in_image(box) -> bool:
    return (0.0 <= box.ul and box.ur <= INTRINSICS.width
            and 0.0 <= box.vu and box.vd <= INTRINSICS.height)


def make_graph(seed: int, landmarks: int = 16, poses: int = 20) -> tuple[dict, dict]:
    """(graph dict, true camera poses by frame id) for one seed.

    Landmarks sit on a jittered square grid with 1 m spacing; cameras sit
    on a 120 degree arc 6-7 m from the grid centre, 25-35 degrees above
    it, so most landmarks are seen from most poses.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(16,)))
    side = int(np.ceil(np.sqrt(landmarks)))
    truth = {}
    for i in range(landmarks):
        row, col = divmod(i, side)
        center = np.array([col - (side - 1) / 2.0, row - (side - 1) / 2.0, 0.0])
        center[:2] += rng.uniform(-0.2, 0.2, size=2)
        scale = rng.uniform(0.15, 0.45, size=3)
        center[2] = rng.uniform(0.2, 0.5)
        truth[f"lm{i:02d}"] = RtsState(quat_to_rot(rng.normal(size=4)), center, scale)

    true_poses = {}
    for j in range(poses):
        azimuth = np.radians(120.0) * j / max(poses - 1, 1) + rng.uniform(-0.05, 0.05)
        elevation = np.radians(rng.uniform(25.0, 35.0))
        radius = rng.uniform(6.0, 7.0)
        position = radius * np.array([np.cos(elevation) * np.cos(azimuth),
                                      np.cos(elevation) * np.sin(azimuth),
                                      np.sin(elevation)])
        target = np.array([0.0, 0.0, 0.3]) + rng.normal(0.0, 0.2, size=3)
        true_poses[f"cam{j:02d}"] = _look_at(position, target)

    frames, detections, pose_priors = [], [], []
    for j, (fid, pose) in enumerate(true_poses.items()):
        frame = CameraFrame(INTRINSICS, pose, fid)
        for lid, state in truth.items():
            try:
                box = conic_bbox(project_dual(state.dual, frame))
            except (BehindCameraError, DegenerateProjectionError):
                continue
            if not _box_in_image(box):
                continue
            edges = box.as_array() + rng.normal(0.0, BOX_SIGMA_PX, size=4)
            edges = [min(edges[0], edges[1]), max(edges[0], edges[1]),
                     min(edges[2], edges[3]), max(edges[2], edges[3])]
            detections.append({"frame": fid, "landmark": lid, "box": edges})
        if j == 0:
            frames.append({"id": fid, **_pose_entry(pose)})
            continue
        xi = np.concatenate([rng.normal(0.0, np.radians(POSE_PRIOR_ROT_DEG), size=3),
                             rng.normal(0.0, POSE_PRIOR_TRANS_M, size=3)])
        observed = pose_retract(pose, xi)
        frames.append({"id": fid, **_pose_entry(observed)})
        pose_priors.append({"frame": fid, **_pose_entry(observed),
                            "sigma_rot_deg": POSE_PRIOR_ROT_DEG,
                            "sigma_trans_m": POSE_PRIOR_TRANS_M})

    initial, orientation, scale_priors, support = [], [], [], []
    for lid, state in truth.items():
        xi = np.concatenate([rng.normal(0.0, INIT_ROT_RAD, size=3),
                             rng.normal(0.0, INIT_TRANS_M, size=3)])
        ds = rng.normal(0.0, INIT_SCALE_REL * state.scale)
        init = rts_perturb(state, xi, ds)
        init = RtsState(init.rotation, init.translation, np.maximum(init.scale, 0.05))
        initial.append({"landmark": lid, "param": "rts", **_rts_entry(init)})
        orientation.append({"landmark": lid, "direction": state.rotation[:, 2].tolist()})
        scale_priors.append({"landmark": lid,
                             "abc": np.sort(np.asarray(state.scale))[::-1].tolist()})
        z_floor = float(state.translation[2] - np.sqrt(dual_shape(state.dual)[2, 2]))
        support.append({"landmark": lid, "plane": [0.0, 0.0, 1.0, -z_floor]})

    graph = {
        "version": graphio.GRAPH_VERSION,
        "intrinsics": {"fx": INTRINSICS.fx, "fy": INTRINSICS.fy, "cx": INTRINSICS.cx,
                       "cy": INTRINSICS.cy, "width": INTRINSICS.width,
                       "height": INTRINSICS.height},
        "frames": frames,
        "detections": detections,
        "priors": {"orientation": orientation, "scale": scale_priors,
                   "support": support, "pose": pose_priors},
        "initial": initial,
        "fixed": [frames[0]["id"]],
        "truth": [{"landmark": lid, **_rts_entry(state)} for lid, state in truth.items()],
    }
    graphio.validate_graph(graph)
    return graph, true_poses


def truth_graph(graph: dict, true_poses: dict) -> dict:
    """The same graph with every variable set to its true value."""
    out = dict(graph)
    out["frames"] = [{"id": fid, **_pose_entry(pose)} for fid, pose in true_poses.items()]
    out["initial"] = [{"param": "rts", **t} for t in graph["truth"]]
    return out
