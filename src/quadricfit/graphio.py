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
from .manifold import Pose, quat_to_rot, rot_to_quat
from .quadric import (
    FullState,
    RtsState,
    SpdState,
    full_from_dual,
    rts_from_dual,
    spd_from_dual,
)
from .sim import TrialResult
from .solver import Problem

GRAPH_VERSION = "1"
RESULT_VERSION = "2"


class GraphError(ValueError):
    """Schema violation in a graph file; the message names the entity."""


# ---------------------------------------------------------------------------
# Graph files


def _check(cond: bool, message: str):
    if not cond:
        raise GraphError(message)


def _pose_from(d: dict, what: str) -> Pose:
    q = np.asarray(d["q_wxyz"], dtype=float)
    _check(q.shape == (4,), f"{what}: quaternion must have 4 entries")
    _check(abs(np.linalg.norm(q) - 1.0) <= 1e-6, f"{what}: quaternion not normalized")
    t = np.asarray(d["t_xyz"], dtype=float)
    _check(t.shape == (3,), f"{what}: translation must have 3 entries")
    return Pose(quat_to_rot(q), t)


def _landmark_from(d: dict, what: str):
    param = d.get("param")
    if param == "rts":
        pose = _pose_from(d, what)
        s = np.asarray(d["scale"], dtype=float)
        _check(s.shape == (3,) and np.all(s > 0), f"{what}: scale must be 3 positive entries")
        return RtsState(pose.rotation, pose.translation, s)
    if param == "spd":
        shape = np.asarray(d["shape"], dtype=float)
        _check(shape.shape == (3, 3), f"{what}: shape must be a 3x3 matrix")
        t = np.asarray(d["t_xyz"], dtype=float)
        return SpdState(0.5 * (shape + shape.T), t)
    if param == "full":
        v = np.asarray(d["coefficients"], dtype=float)
        _check(v.shape == (10,), f"{what}: full parameterization needs 10 coefficients")
        return FullState(v)
    raise GraphError(f"{what}: unknown parameterization tag {param!r}")


def validate_graph(graph: dict) -> None:
    """Raise :class:`GraphError` naming the offending entity, else return."""
    _check(graph.get("version") == GRAPH_VERSION, f"unsupported graph version {graph.get('version')!r}")
    _check("intrinsics" in graph, "missing intrinsics")
    intr = graph["intrinsics"]
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        _check(key in intr, f"intrinsics: missing {key}")
    CameraIntrinsics(**intr)

    frame_ids = []
    for f in graph.get("frames", []):
        _check("id" in f, "frame without id")
        _check(f["id"] not in frame_ids, f"duplicate frame id {f['id']!r}")
        frame_ids.append(f["id"])
        _pose_from(f, f"frame {f['id']!r}")
    landmark_ids = []
    for lm in graph.get("initial", []):
        _check("landmark" in lm, "initial estimate without landmark id")
        _check(lm["landmark"] not in landmark_ids, f"duplicate landmark id {lm['landmark']!r}")
        landmark_ids.append(lm["landmark"])
        _landmark_from(lm, f"initial estimate for {lm['landmark']!r}")

    for i, det in enumerate(graph.get("detections", [])):
        what = f"detection {i}"
        _check(det.get("frame") in frame_ids, f"{what}: unknown frame id {det.get('frame')!r}")
        _check(det.get("landmark") in landmark_ids, f"{what}: unknown landmark id {det.get('landmark')!r}")
        box = np.asarray(det["box"], dtype=float)
        _check(box.shape == (4,), f"{what}: box must have 4 entries")
        _check(box[0] <= box[1] and box[2] <= box[3], f"{what}: box edges out of order")

    priors = graph.get("priors", {})
    for p in priors.get("orientation", []):
        _check(p.get("landmark") in landmark_ids, f"orientation prior: unknown landmark {p.get('landmark')!r}")
        m = np.asarray(p["direction"], dtype=float)
        _check(m.shape == (3,) and np.linalg.norm(m) > 1e-9, "orientation prior: bad direction")
    for p in priors.get("scale", []):
        _check(p.get("landmark") in landmark_ids, f"scale prior: unknown landmark {p.get('landmark')!r}")
        abc = np.asarray(p["abc"], dtype=float)
        _check(abc.shape == (3,) and abc[0] >= abc[1] >= abc[2] > 0, "scale prior: abc must be sorted descending, positive")
    for p in priors.get("support", []):
        _check(p.get("landmark") in landmark_ids, f"support prior: unknown landmark {p.get('landmark')!r}")
        pl = np.asarray(p["plane"], dtype=float)
        _check(pl.shape == (4,) and np.linalg.norm(pl[:3]) > 1e-9, "support prior: bad plane")
    for p in priors.get("pose", []):
        _check(p.get("frame") in frame_ids, f"pose prior: unknown frame {p.get('frame')!r}")
        _pose_from(p, f"pose prior for {p.get('frame')!r}")

    for vid in graph.get("fixed", []):
        _check(vid in frame_ids or vid in landmark_ids, f"fixed list: unknown id {vid!r}")
    for t in graph.get("truth", []):
        _check(t.get("landmark") in landmark_ids, f"truth block: unknown landmark {t.get('landmark')!r}")
        _pose_from(t, f"truth for {t.get('landmark')!r}")


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
    intr = CameraIntrinsics(**graph["intrinsics"])
    variables: dict = {}
    for f in graph.get("frames", []):
        variables[f["id"]] = _pose_from(f, f"frame {f['id']!r}")
    for lm in graph.get("initial", []):
        variables[lm["landmark"]] = _convert_landmark(
            _landmark_from(lm, lm["landmark"]), parameterization
        )

    kind = "box-inverse" if model == "inverse" else "box-semi"
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
        "success_factor": 1.5,
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
