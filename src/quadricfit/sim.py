"""Synthetic single-landmark scenes, noise injection, and the Monte-Carlo
campaign over noise levels, viewing arcs, parameterizations and models.

One scene = one ground-truth ellipsoid plus a ring of cameras looking at
it; each camera contributes one noiseless box via the closed-form
projection. Within a campaign cell the same scenes, noisy boxes and
initial perturbations are shared bit-identically by every
(parameterization, model) configuration, so comparisons are paired.
Seeding is hierarchical (master seed -> per-scene seeds), which makes the
campaign deterministic under any parallelism. The scene generator's
settings are module constants and every trial solves under the solver's
default iteration cap: they are the experiment's protocol, so a campaign
varies only its grid and seed.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .costs import (
    MODELS,
    BehindCameraError,
    BoundingBox,
    CameraFrame,
    CameraIntrinsics,
    DegenerateProjectionError,
    Factor,
    box_factor_kind,
    conic_bbox,
    project_dual,
)
from .evaluation import score_estimate
from .manifold import Pose, quat_to_rot, require_integer, rot_to_quat
from .quadric import PARAMETERIZATIONS, RtsState, SpdState, as_parameterization, dual_shape, rts_perturb
from .solver import Problem, iterations_to_success, solve, total_cost

# The scene generator's settings. The camera ring radius (2.5-5 m for
# sub-meter landmarks) keeps enough perspective across the arc for the box
# measurements to pin down depth; with much more distant cameras the
# projection turns weak-perspective and depth/size drift dominates.
INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
N_FRAMES = 10
REGION = (1.0, 2.0, 3.0)  # landmark centers, uniform in this box about the origin (m)
DISTANCE = (2.5, 5.0)  # camera radius range (m)
ELEVATION_DEG = 15.0  # camera elevation within +-this
AXIS_RANGE = (0.2, 1.0)  # semi-axis lengths (m)


@dataclass(frozen=True)
class NoiseSpec:
    tag: str
    sigma_box_px: float
    sigma_rot_rad: float
    sigma_trans_m: float
    sigma_scale_rel: float

    def __post_init__(self):
        for v in (self.sigma_box_px, self.sigma_rot_rad, self.sigma_trans_m, self.sigma_scale_rel):
            if not v >= 0:  # negated, so NaN is rejected too
                raise ValueError("noise levels must be non-negative")


NOISE_LEVELS = {
    "L": NoiseSpec("L", 0.0, np.radians(10.0), 0.1, 0.10),
    "M": NoiseSpec("M", 5.0, np.radians(20.0), 1.0, 0.30),
    "H": NoiseSpec("H", 10.0, np.radians(40.0), 3.0, 0.50),
}


@dataclass
class Scene:
    landmark: RtsState  # ground truth
    frames: list  # CameraFrame
    boxes: list  # noiseless BoundingBox per frame


@dataclass
class Trial:
    scene: Scene
    noisy_boxes: list
    init_rts: RtsState  # perturbed initial landmark in RTS coordinates
    noise: str
    arc_deg: float
    scene_index: int


@dataclass
class TrialResult:
    noise: str
    arc_deg: float
    scene_index: int
    parameterization: str
    model: str
    success: bool
    iou: float
    orientation_error_deg: float
    iterations: int
    iterations_to_success: int | None  # first accepted step at/below the success bar
    attempts: int
    final_cost: float
    floor_cost: float
    termination: str
    mean_iter_time_s: float
    cost_trace: list[float]

    def key(self):
        return (self.noise, self.arc_deg, self.scene_index, self.parameterization, self.model)


def _uniform_rotation(rng) -> np.ndarray:
    """Uniform random rotation via a normalized 4-Gaussian quaternion."""
    return quat_to_rot(rng.normal(size=4))


def _look_at(position: np.ndarray, target: np.ndarray) -> Pose:
    """World-from-camera pose with the camera +z axis pointing at target."""
    z = target - position
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    if abs(z @ up) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(np.column_stack([x, y, z]), position)


def _box_inside(box: BoundingBox, intr: CameraIntrinsics) -> bool:
    return 0.0 <= box.ul and box.ur <= intr.width and 0.0 <= box.vu and box.vd <= intr.height


def generate_scene(arc_deg: float, rng) -> Scene:
    """Sample a landmark and cameras on an arc of ``arc_deg`` degrees;
    rejection-resamples (up to 100 attempts) until the landmark projects
    inside every image."""
    if not (0.0 < arc_deg <= 360.0):
        raise ValueError("viewing arc must be in (0, 360] degrees")
    arc = np.radians(arc_deg)
    region = np.asarray(REGION, dtype=float)
    for _ in range(100):
        center = rng.uniform(-region / 2.0, region / 2.0)
        axes = rng.uniform(AXIS_RANGE[0], AXIS_RANGE[1], size=3)
        landmark = RtsState(_uniform_rotation(rng), center, axes)
        elev_max = np.radians(ELEVATION_DEG)
        frames = []
        for i in range(N_FRAMES):
            azimuth = rng.uniform(0.0, arc)
            elevation = rng.uniform(-elev_max, elev_max)
            radius = rng.uniform(DISTANCE[0], DISTANCE[1])
            offset = radius * np.array(
                [
                    np.cos(elevation) * np.cos(azimuth),
                    np.cos(elevation) * np.sin(azimuth),
                    np.sin(elevation),
                ]
            )
            frames.append(
                CameraFrame(INTRINSICS, _look_at(center + offset, center), f"cam{i:02d}")
            )
        try:
            boxes = [conic_bbox(project_dual(landmark.dual, f)) for f in frames]
        except (BehindCameraError, DegenerateProjectionError):
            continue
        if all(_box_inside(b, INTRINSICS) for b in boxes):
            return Scene(landmark, frames, boxes)
    raise RuntimeError("failed to sample a fully visible scene in 100 attempts")


MIN_AXIS_M = 0.05


def perturb_initial(truth: RtsState, noise: NoiseSpec, rng) -> RtsState:
    """Perturb the landmark pose by Exp(xi) and the axes multiplicatively,
    clamping axis lengths to MIN_AXIS_M."""
    xi = np.concatenate(
        [
            rng.normal(0.0, noise.sigma_rot_rad, size=3),
            rng.normal(0.0, noise.sigma_trans_m, size=3),
        ]
    )
    scale = np.asarray(truth.scale, dtype=float)
    ds = rng.normal(0.0, scale * noise.sigma_scale_rel) if noise.sigma_scale_rel > 0 else np.zeros(3)
    out = rts_perturb(truth, xi, ds)
    return RtsState(out.rotation, out.translation, np.maximum(out.scale, MIN_AXIS_M))


def perturb_boxes(boxes: list, sigma_px: float, rng) -> list:
    """Independent Gaussian noise per edge; edges re-ordered if inverted."""
    out = []
    for b in boxes:
        e = b.as_array() + rng.normal(0.0, sigma_px, size=4) if sigma_px > 0 else b.as_array()
        out.append(BoundingBox(min(e[0], e[1]), max(e[0], e[1]), min(e[2], e[3]), max(e[2], e[3])))
    return out


def make_trial(arc_deg: float, noise: NoiseSpec, seed_seq, scene_index: int = 0) -> Trial:
    """Scene + noise for one trial; configurations share this object."""
    scene_rng, noise_rng = [np.random.default_rng(s) for s in seed_seq.spawn(2)]
    scene = generate_scene(arc_deg, scene_rng)
    noisy = perturb_boxes(scene.boxes, noise.sigma_box_px, noise_rng)
    init = perturb_initial(scene.landmark, noise, noise_rng)
    return Trial(scene, noisy, init, noise.tag, arc_deg, scene_index)


def initial_state(init_rts: RtsState, parameterization: str):
    """Convert the shared RTS-space perturbation to the solver's parameterization.
    SPD takes R diag(s^2) R^T, whose last bits campaign records follow, not the dual."""
    if parameterization == "spd":
        s = np.asarray(init_rts.scale, dtype=float)
        shape = init_rts.rotation @ np.diag(s * s) @ init_rts.rotation.T
        return SpdState(0.5 * (shape + shape.T), init_rts.translation)
    return as_parameterization(init_rts, parameterization)


LANDMARK_ID = "obj"


def trial_problem(trial: Trial, parameterization: str, model: str) -> Problem:
    """Problem with camera poses fixed at truth and the landmark free."""
    kind = box_factor_kind(model)
    variables = {LANDMARK_ID: initial_state(trial.init_rts, parameterization)}
    fixed = set()
    factors = []
    for i, (frame, box) in enumerate(zip(trial.scene.frames, trial.noisy_boxes)):
        vid = frame.frame_id or f"cam{i:02d}"
        variables[vid] = frame.pose
        fixed.add(vid)
        factors.append(
            Factor(
                fid=i,
                kind=kind,
                targets=(vid, LANDMARK_ID),
                payload={"intrinsics": frame.intrinsics, "box": box},
            )
        )
    return Problem(variables, factors, fixed)


def run_trial(trial: Trial, parameterization: str, model: str) -> TrialResult:
    """Solve one configuration of a trial and score it against the truth."""
    problem = trial_problem(trial, parameterization, model)
    report = solve(problem)

    floor_vars = dict(problem.variables)
    floor_vars[LANDMARK_ID] = trial.scene.landmark
    floor = total_cost(Problem(floor_vars, problem.factors, problem.fixed))

    iou, orient = score_estimate(report.variables[LANDMARK_ID], trial.scene.landmark)
    to_success = iterations_to_success(report, floor)
    return TrialResult(
        noise=trial.noise,
        arc_deg=trial.arc_deg,
        scene_index=trial.scene_index,
        parameterization=parameterization,
        model=model,
        success=to_success is not None,
        iou=iou,
        orientation_error_deg=orient,
        iterations=report.iterations,
        iterations_to_success=to_success,
        attempts=report.attempts,
        final_cost=report.final_cost,
        floor_cost=floor,
        termination=report.termination,
        mean_iter_time_s=float(np.mean(report.iter_times)) if report.iter_times else 0.0,
        cost_trace=list(report.cost_trace),
    )


# ---------------------------------------------------------------------------
# Campaign


@dataclass
class CampaignSpec:
    master_seed: int = 0
    noise_levels: tuple = ("L", "M", "H")
    arcs: tuple = (60.0, 120.0)
    trials_per_cell: int = 24
    parameterizations: tuple = PARAMETERIZATIONS
    models: tuple = MODELS

    def __post_init__(self):
        grid = {"noise_levels": tuple(NOISE_LEVELS), "arcs": None,
                "parameterizations": PARAMETERIZATIONS, "models": MODELS}
        for name, known in grid.items():
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            unknown = [v for v in values if known is not None and v not in known]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}, expected some of {list(known)}")
            setattr(self, name, tuple(values))
        if not all(isinstance(a, numbers.Real) and not isinstance(a, bool) for a in self.arcs):
            raise ValueError(f"arcs must be numbers, got {list(self.arcs)}")
        self.arcs = tuple(float(a) for a in self.arcs)
        bad = [a for a in self.arcs if not 0.0 < a <= 360.0]
        if bad:
            raise ValueError(f"arcs must be in (0, 360] degrees, got {bad}")
        # A repeated value would run one cell twice under one key; a cell's
        # scenes and trace file are keyed by its arc in whole degrees.
        for name in grid:
            values = getattr(self, name)
            keys = [round(a) for a in values] if name == "arcs" else values
            if len(set(keys)) != len(keys):
                what = "distinct in whole degrees" if name == "arcs" else "distinct"
                raise ValueError(f"{name} must be {what}, got {list(values)}")
        for name, low, what in (("master_seed", 0, "non-negative"), ("trials_per_cell", 1, "positive")):
            require_integer(name, getattr(self, name), low, f"a {what} integer")


def _scene_seed(spec: CampaignSpec, noise: str, arc: float, index: int):
    return np.random.SeedSequence(
        entropy=spec.master_seed, spawn_key=("LMH".index(noise), int(round(arc)), index)
    )


def _run_scene_task(args) -> list:
    """All configurations of one (cell, scene) pair; a unit of parallel work."""
    spec, noise, arc, index = args
    trial = make_trial(arc, NOISE_LEVELS[noise], _scene_seed(spec, noise, arc, index), index)
    out = []
    for param in spec.parameterizations:
        for model in spec.models:
            out.append(run_trial(trial, param, model))
    return out


def campaign_tasks(spec: CampaignSpec) -> list:
    return [
        (spec, noise, arc, idx)
        for noise in spec.noise_levels
        for arc in spec.arcs
        for idx in range(spec.trials_per_cell)
    ]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def run_campaign(spec: CampaignSpec, jobs: int | None = None) -> list:
    """Run every trial in the grid; deterministic for any jobs count.

    Returns the flat list of TrialResult records sorted by trial key.
    Individual trial failures are recorded in the results, never raised.
    ``jobs`` defaults to :func:`usable_cpus`; no more workers start than
    there are scene tasks, and a single one runs in this process.
    """
    tasks = campaign_tasks(spec)
    jobs = min(usable_cpus() if jobs is None else jobs, len(tasks))
    results: list = []
    if jobs <= 1:
        for t in tasks:
            results.extend(_run_scene_task(t))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_run_scene_task, tasks):
                results.extend(chunk)
    results.sort(key=lambda r: r.key())
    return results


# ---------------------------------------------------------------------------
# Synthetic multi-constraint graphs


def synthetic_graph(seed: int, noise: str = "M", arc_deg: float = 120.0) -> dict:
    """Graph-file dict with box, orientation, scale and support factors.

    One landmark, fixed camera poses at truth, noisy detections, a
    perturbed initial estimate, and a ground-truth block. The orientation
    prior points along one truth axis and the support plane is tangent to
    the truth ellipsoid from below, so all priors are exactly satisfied at
    the truth.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(97,))
    trial = make_trial(arc_deg, NOISE_LEVELS[noise], seq)
    truth = trial.scene.landmark
    intr = INTRINSICS

    def pose_entry(pose: Pose) -> dict:
        return {"q_wxyz": rot_to_quat(pose.rotation).tolist(),
                "t_xyz": np.asarray(pose.translation, dtype=float).tolist()}

    frames = []
    detections = []
    for frame, box in zip(trial.scene.frames, trial.noisy_boxes):
        frames.append({"id": frame.frame_id, **pose_entry(frame.pose)})
        detections.append(
            {"frame": frame.frame_id, "landmark": LANDMARK_ID, "box": box.as_array().tolist()}
        )

    shape = dual_shape(truth.dual)
    z_floor = float(truth.translation[2] - np.sqrt(shape[2, 2]))
    abc = np.sort(np.asarray(truth.scale, dtype=float))[::-1]
    init = trial.init_rts

    return {
        "version": "1",
        "intrinsics": {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                       "width": intr.width, "height": intr.height},
        "frames": frames,
        "detections": detections,
        "priors": {
            "orientation": [{"landmark": LANDMARK_ID,
                             "direction": truth.rotation[:, 2].tolist()}],
            "scale": [{"landmark": LANDMARK_ID, "abc": abc.tolist()}],
            "support": [{"landmark": LANDMARK_ID, "plane": [0.0, 0.0, 1.0, -z_floor]}],
        },
        "initial": [{"landmark": LANDMARK_ID, "param": "rts",
                     **pose_entry(Pose(init.rotation, init.translation)),
                     "scale": np.asarray(init.scale, dtype=float).tolist()}],
        "fixed": [f["id"] for f in frames],
        "truth": [{"landmark": LANDMARK_ID, **pose_entry(Pose(truth.rotation, truth.translation)),
                   "scale": np.asarray(truth.scale, dtype=float).tolist()}],
    }
