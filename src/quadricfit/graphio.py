"""File formats: factor-graph files, campaign result files, CSV traces.

Both formats are JSON (diffable, full float precision via repr round-trip).
Angles are serialized in degrees; everything internal is radians. The
result file separates deterministic content (config echo, per-trial
records, summaries) from wall-clock telemetry, so identical seeds produce
identical records regardless of parallelism.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone

import numpy as np

from . import _kernels
from .costs import (
    BoundingBox,
    CameraIntrinsics,
    DEFAULT_VARIANCES,
    Factor,
)
from .evaluation import summarize
from .manifold import SPD_EIG_TOL, Pose, quat_to_rot, rot_to_quat
from .quadric import (
    DegenerateLandmarkError,
    FullState,
    RtsState,
    SpdState,
    full_from_dual,
    rts_from_dual,
    spd_from_dual,
)
from .sim import TrialResult, box_factor_kind
from .solver import SUCCESS_FACTOR, Problem

GRAPH_VERSION = "1"
RESULT_VERSION = "2"


class GraphError(ValueError):
    """Schema violation in a graph file; the message names the entity."""


# ---------------------------------------------------------------------------
# Graph files


def _check(cond: bool, message: str):
    if not cond:
        raise GraphError(message)


def _field(d: dict, key: str, what: str):
    _check(isinstance(d, dict), f"{what}: expected an object")
    _check(key in d, f"{what}: missing {key}")
    return d[key]


def _entries(d: dict, key: str) -> list:
    """The optional list ``key`` of ``d``."""
    entries = d.get(key, [])
    _check(isinstance(entries, list), f"{key}: expected a list")
    return entries


def _numbers(d: dict, key: str, what: str, shape: tuple, name: str | None = None) -> np.ndarray:
    """Field ``key`` of ``d`` as a finite float array of ``shape``."""
    name = name or key
    value = _field(d, key, what)
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise GraphError(f"{what}: {name} must be numeric") from None
    size = " x ".join(map(str, shape))
    _check(a.shape == shape, f"{what}: {name} must be " + (f"{size} numbers" if shape else "a number"))
    _check(bool(np.all(np.isfinite(a))), f"{what}: {name} must be finite")
    return a


def _check_sigma(d: dict, key: str, what: str) -> None:
    """An optional standard deviation must be a finite positive number."""
    if key in d:
        sigma = _numbers(d, key, what, ())
        _check(sigma > 0.0, f"{what}: {key} must be positive")


def _pose_from(d: dict, what: str) -> Pose:
    q = _numbers(d, "q_wxyz", what, (4,), "quaternion")
    _check(abs(np.linalg.norm(q) - 1.0) <= 1e-6, f"{what}: quaternion not normalized")
    t = _numbers(d, "t_xyz", what, (3,), "translation")
    return Pose(quat_to_rot(q), t)


def _landmark_from(d: dict, what: str):
    param = d.get("param")
    if param == "rts":
        pose = _pose_from(d, what)
        s = _numbers(d, "scale", what, (3,))
        _check(bool(np.all(s > 0)), f"{what}: scale must be 3 positive entries")
        return RtsState(pose.rotation, pose.translation, s)
    if param == "spd":
        shape = _numbers(d, "shape", what, (3, 3))
        t = _numbers(d, "t_xyz", what, (3,), "translation")
        shape = 0.5 * (shape + shape.T)
        _check(np.linalg.eigvalsh(shape)[0] > SPD_EIG_TOL, f"{what}: shape must be positive definite")
        return SpdState(shape, t)
    if param == "full":
        state = FullState(_numbers(d, "coefficients", what, (10,)))
        try:
            spd_from_dual(state.dual)
        except DegenerateLandmarkError:
            raise GraphError(f"{what}: coefficients do not describe an ellipsoid") from None
        return state
    raise GraphError(f"{what}: unknown parameterization tag {param!r}")


def validate_graph(graph: dict) -> None:
    """Raise :class:`GraphError` naming the offending entity, else return.

    Every numeric field must be finite, every standard deviation positive,
    and every required key present.
    """
    _check(isinstance(graph, dict), "graph must be an object")
    _check(graph.get("version") == GRAPH_VERSION, f"unsupported graph version {graph.get('version')!r}")
    intr = _field(graph, "intrinsics", "graph")
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        _numbers(intr, key, "intrinsics", ())
    try:
        CameraIntrinsics(**intr)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"intrinsics: {exc}") from None

    frame_ids = []
    for f in _entries(graph, "frames"):
        fid = _field(f, "id", "frame")
        _check(fid not in frame_ids, f"duplicate frame id {fid!r}")
        frame_ids.append(fid)
        _pose_from(f, f"frame {fid!r}")
    landmark_ids = []
    for lm in _entries(graph, "initial"):
        lid = _field(lm, "landmark", "initial estimate")
        _check(lid not in landmark_ids, f"duplicate landmark id {lid!r}")
        landmark_ids.append(lid)
        _landmark_from(lm, f"initial estimate for {lid!r}")

    for i, det in enumerate(_entries(graph, "detections")):
        what = f"detection {i}"
        _check(_field(det, "frame", what) in frame_ids, f"{what}: unknown frame id {det['frame']!r}")
        _check(_field(det, "landmark", what) in landmark_ids,
               f"{what}: unknown landmark id {det['landmark']!r}")
        box = _numbers(det, "box", what, (4,))
        _check(box[0] <= box[1] and box[2] <= box[3], f"{what}: box edges out of order")
        _check_sigma(det, "sigma_px", what)

    priors = graph.get("priors", {})
    _check(isinstance(priors, dict), "priors: expected an object")
    for p in _entries(priors, "orientation"):
        ref = _field(p, "landmark", "orientation prior")
        _check(ref in landmark_ids, f"orientation prior: unknown landmark {ref!r}")
        what = f"orientation prior for {ref!r}"
        m = _numbers(p, "direction", what, (3,))
        _check(np.linalg.norm(m) > 1e-9, f"{what}: bad direction")
        _check_sigma(p, "sigma", what)
    for p in _entries(priors, "scale"):
        ref = _field(p, "landmark", "scale prior")
        _check(ref in landmark_ids, f"scale prior: unknown landmark {ref!r}")
        what = f"scale prior for {ref!r}"
        abc = _numbers(p, "abc", what, (3,))
        _check(abc[0] >= abc[1] >= abc[2] > 0, f"{what}: abc must be sorted descending, positive")
        _check_sigma(p, "sigma_shape", what)
        _check_sigma(p, "sigma_size", what)
    for p in _entries(priors, "support"):
        ref = _field(p, "landmark", "support prior")
        _check(ref in landmark_ids, f"support prior: unknown landmark {ref!r}")
        what = f"support prior for {ref!r}"
        pl = _numbers(p, "plane", what, (4,))
        _check(np.linalg.norm(pl[:3]) > 1e-9, f"{what}: bad plane")
        _check_sigma(p, "sigma", what)
    for p in _entries(priors, "pose"):
        ref = _field(p, "frame", "pose prior")
        _check(ref in frame_ids, f"pose prior: unknown frame {ref!r}")
        what = f"pose prior for {ref!r}"
        _pose_from(p, what)
        _check_sigma(p, "sigma_rot_deg", what)
        _check_sigma(p, "sigma_trans_m", what)

    for vid in _entries(graph, "fixed"):
        _check(vid in frame_ids or vid in landmark_ids, f"fixed list: unknown id {vid!r}")
    for t in _entries(graph, "truth"):
        ref = _field(t, "landmark", "truth block")
        _check(ref in landmark_ids, f"truth block: unknown landmark {ref!r}")
        what = f"truth for {ref!r}"
        _pose_from(t, what)
        s = _numbers(t, "scale", what, (3,))
        _check(bool(np.all(s > 0)), f"{what}: scale must be 3 positive entries")


def load_graph(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        graph = json.load(fh)
    validate_graph(graph)
    return graph


def save_graph(graph: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _convert_landmark(state, parameterization: str):
    if parameterization == "rts":
        return state if isinstance(state, RtsState) else rts_from_dual(state.dual)
    if parameterization == "spd":
        return state if isinstance(state, SpdState) else spd_from_dual(state.dual)
    if parameterization == "full":
        return state if isinstance(state, FullState) else full_from_dual(state.dual)
    raise GraphError(f"unknown parameterization {parameterization!r}")


def problem_from_graph(graph: dict, parameterization: str, model: str = "inverse",
                       size_form: str = "sqrt") -> Problem:
    """Build the full multi-constraint problem from a validated graph."""
    kind = box_factor_kind(model)
    intr = CameraIntrinsics(**graph["intrinsics"])
    variables: dict = {}
    for f in graph.get("frames", []):
        variables[f["id"]] = _pose_from(f, f"frame {f['id']!r}")
    for lm in graph.get("initial", []):
        variables[lm["landmark"]] = _convert_landmark(
            _landmark_from(lm, lm["landmark"]), parameterization
        )

    factors = []
    fid = 0
    for det in graph.get("detections", []):
        var = det.get("sigma_px", np.sqrt(DEFAULT_VARIANCES[kind])) ** 2
        factors.append(
            Factor(fid, kind, (det["frame"], det["landmark"]),
                   {"intrinsics": intr, "box": BoundingBox.from_array(det["box"])},
                   variance=var)
        )
        fid += 1
    priors = graph.get("priors", {})
    for p in priors.get("orientation", []):
        m = np.asarray(p["direction"], dtype=float)
        var = p.get("sigma", np.sqrt(DEFAULT_VARIANCES["orientation"])) ** 2
        factors.append(Factor(fid, "orientation", (p["landmark"],),
                              {"direction": m / np.linalg.norm(m)}, variance=var))
        fid += 1
    for p in priors.get("scale", []):
        abc = tuple(float(x) for x in p["abc"])
        var_shape = p.get("sigma_shape", np.sqrt(DEFAULT_VARIANCES["shape"])) ** 2
        var_size = p.get("sigma_size", np.sqrt(DEFAULT_VARIANCES["size"])) ** 2
        factors.append(Factor(fid, "shape", (p["landmark"],), {"prior": abc}, variance=var_shape))
        fid += 1
        factors.append(Factor(fid, "size", (p["landmark"],),
                              {"prior": abc, "form": size_form}, variance=var_size))
        fid += 1
    for p in priors.get("support", []):
        pl = np.asarray(p["plane"], dtype=float)
        pl = pl / np.linalg.norm(pl[:3])
        var = p.get("sigma", np.sqrt(DEFAULT_VARIANCES["support"])) ** 2
        factors.append(Factor(fid, "support", (p["landmark"],), {"plane": pl}, variance=var))
        fid += 1
    for p in priors.get("pose", []):
        sig_rot = np.radians(p.get("sigma_rot_deg", np.degrees(0.01)))
        sig_t = p.get("sigma_trans_m", 0.01)
        var = np.concatenate([np.full(3, sig_rot**2), np.full(3, sig_t**2)])
        factors.append(Factor(fid, "pose-prior", (p["frame"],),
                              {"observed": _pose_from(p, "pose prior")}, variance=var))
        fid += 1

    return Problem(variables, factors, set(graph.get("fixed", [])))


def truth_landmarks(graph: dict) -> dict:
    """Ground-truth RTS states keyed by landmark id (empty if no truth block)."""
    out = {}
    for t in graph.get("truth", []):
        pose = _pose_from(t, f"truth for {t['landmark']!r}")
        out[t["landmark"]] = RtsState(pose.rotation, pose.translation,
                                      np.asarray(t["scale"], dtype=float))
    return out


def estimate_entry(landmark_id: str, state) -> dict:
    """Serialized estimate: native tag plus the dual coefficients."""
    entry: dict = {"landmark": landmark_id}
    if isinstance(state, RtsState):
        entry["param"] = "rts"
        entry["q_wxyz"] = rot_to_quat(state.rotation).tolist()
        entry["t_xyz"] = np.asarray(state.translation, dtype=float).tolist()
        entry["scale"] = np.asarray(state.scale, dtype=float).tolist()
    elif isinstance(state, SpdState):
        entry["param"] = "spd"
        entry["shape"] = np.asarray(state.shape, dtype=float).tolist()
        entry["t_xyz"] = np.asarray(state.translation, dtype=float).tolist()
    else:
        entry["param"] = "full"
        entry["coefficients"] = np.asarray(state.v, dtype=float).tolist()
    rts = rts_from_dual(state.dual)
    entry["rts_equivalent"] = {
        "q_wxyz": rot_to_quat(rts.rotation).tolist(),
        "t_xyz": rts.translation.tolist(),
        "scale": rts.scale.tolist(),
    }
    return entry


# ---------------------------------------------------------------------------
# Result files

_RECORD_FIELDS = [
    "noise", "arc_deg", "scene_index", "parameterization", "model",
    "success", "iou", "orientation_error_deg", "iterations",
    "iterations_to_success", "attempts", "final_cost", "floor_cost",
    "termination", "cost_trace",
]


def result_records(results: list) -> list:
    """Deterministic per-trial records (timing telemetry excluded)."""
    out = []
    for r in sorted(results, key=lambda r: r.key()):
        out.append({k: getattr(r, k) for k in _RECORD_FIELDS})
    return out


def records_to_results(records: list) -> list:
    return [TrialResult(mean_iter_time_s=0.0, **rec) for rec in records]


def cell_summaries(results: list) -> list:
    cells: dict = {}
    for r in results:
        cells.setdefault((r.noise, r.arc_deg, r.parameterization, r.model), []).append(r)
    out = []
    for (noise, arc, param, model) in sorted(cells, key=str):
        s = summarize(cells[(noise, arc, param, model)])
        entry = {"noise": noise, "arc_deg": arc, "parameterization": param, "model": model}
        entry.update(dataclasses.asdict(s))
        out.append(entry)
    return out


def config_echo(campaign_spec, extra: dict | None = None) -> dict:
    """Every default in force, so results are auditable and re-derivable."""
    cfg = {
        "master_seed": campaign_spec.master_seed,
        "noise_levels": list(campaign_spec.noise_levels),
        "arcs": list(campaign_spec.arcs),
        "trials_per_cell": campaign_spec.trials_per_cell,
        "parameterizations": list(campaign_spec.parameterizations),
        "models": list(campaign_spec.models),
        "scene": dataclasses.asdict(campaign_spec.scene),
        "options": dataclasses.asdict(campaign_spec.options),
        "default_variances": dict(DEFAULT_VARIANCES),
        "success_factor": SUCCESS_FACTOR,
        "iou_protocol": "circumscribed-box exact IoU",
        "kernel_backend": _kernels.backend(),
        "camera_placement": {
            "radius_m": list(campaign_spec.scene.distance),
            "elevation_deg": campaign_spec.scene.elevation_deg,
            "azimuth": "uniform within arc, per frame",
            "radius_sampling": "uniform per frame",
        },
    }
    if extra:
        cfg.update(extra)
    return cfg


def write_result(path, config: dict, results: list, timing: dict, table: str) -> None:
    doc = {
        "version": RESULT_VERSION,
        "created": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "records": result_records(results),
        "summaries": cell_summaries(results),
        "table": table,
        "timing": timing,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"corrupt result file at byte {exc.pos}: {exc.msg}") from exc


def write_traces(directory, results: list) -> list:
    """One CSV of (scene_index, iteration, cost) rows per campaign cell."""
    paths = []
    cells: dict = {}
    for r in sorted(results, key=lambda r: r.key()):
        cells.setdefault((r.noise, r.arc_deg, r.parameterization, r.model), []).append(r)
    for (noise, arc, param, model), rs in cells.items():
        name = f"trace_{noise}_{int(round(arc))}_{param}_{model}.csv"
        p = directory / name
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("scene_index,iteration,cost\n")
            for r in rs:
                for i, c in enumerate(r.cost_trace):
                    fh.write(f"{r.scene_index},{i},{c!r}\n")
        paths.append(p)
    return paths


_PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot per-iteration cost traces from the campaign CSVs (auto-generated)."""
import csv
import pathlib

import matplotlib.pyplot as plt

HERE = pathlib.Path(__file__).parent
CSVS = {csvs}

fig, axes = plt.subplots(1, len(CSVS), figsize=(4 * len(CSVS), 3.2), squeeze=False)
for ax, name in zip(axes[0], CSVS):
    runs = {{}}
    with open(HERE / name) as fh:
        for row in csv.DictReader(fh):
            runs.setdefault(int(row["scene_index"]), []).append(float(row["cost"]))
    for trace in runs.values():
        ax.semilogy(range(len(trace)), trace, alpha=0.5, lw=0.8)
    ax.set_title(name.replace("trace_", "").replace(".csv", ""))
    ax.set_xlabel("iteration")
    ax.set_ylabel("cost")
fig.tight_layout()
fig.savefig(HERE / "traces.png", dpi=150)
print("wrote", HERE / "traces.png")
'''


def write_plot_script(directory, csv_paths: list):
    names = [p.name for p in csv_paths]
    path = directory / "plot_traces.py"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_SCRIPT.format(csvs=repr(names)))
    return path
