"""File formats: factor-graph files, campaign result files, CSV traces.

Both formats are JSON (diffable, full float precision via repr round-trip).
Angles are serialized in degrees; everything internal is radians. One
reader per graph section checks it and returns its typed values; every
graph entry point reads through them, so each raises the same GraphError.
The result file separates deterministic content (config echo, per-trial
records, summaries) from wall-clock telemetry, so identical seeds produce
identical records regardless of parallelism.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from datetime import datetime, timezone

import numpy as np

from .costs import (
    FACTOR_KINDS,
    BoundingBox,
    CameraIntrinsics,
    Factor,
    box_factor_kind,
)
from .evaluation import group_cells, summarize
from .manifold import InvalidInputError, Pose, as_spd, quat_to_rot, rot_to_quat
from .quadric import (DegenerateLandmarkError, FullState, RtsState, SpdState, as_parameterization,
                      parameterization_tag, rts_from_dual, spd_from_dual)
from .sim import TrialResult
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
    if not isinstance(d, dict):
        raise GraphError(f"{what}: expected an object")
    if key not in d:
        raise GraphError(f"{what}: missing {key}")
    return d[key]


def _entries(d: dict, key: str) -> list:
    """The optional list ``key`` of ``d``."""
    entries = d.get(key, [])
    _check(isinstance(entries, list), f"{key}: expected a list")
    return entries


def _numbers(d: dict, key: str, what: str, shape: tuple, name: str | None = None) -> np.ndarray:
    """Field ``key`` of ``d`` as a finite float array of ``shape``: numbers,
    not strings or bools."""
    name = name or key
    value = _field(d, key, what)
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise GraphError(f"{what}: {name} must be numeric")
    a = a.astype(float)
    if a.shape != shape:
        size = " x ".join(map(str, shape))
        raise GraphError(f"{what}: {name} must be " + (f"{size} numbers" if shape else "a number"))
    if not np.isfinite(a).all():
        raise GraphError(f"{what}: {name} must be finite")
    return a


def _id(d: dict, key: str, what: str, known=None, noun: str = "") -> str:
    """Field ``key`` of ``d``: a string variable id, one of ``known`` unless that is None."""
    vid = _field(d, key, what)
    if not isinstance(vid, str):
        raise GraphError(f"{what}: {key} must be a string")
    if known is not None and vid not in known:
        raise GraphError(f"{what}: unknown {noun} {vid!r}")
    return vid


def _variance(d: dict, key: str, what: str, default=None, unit=float):
    """Variance of the optional standard deviation ``d[key]``, which must be
    a finite positive number, converted by ``unit``; ``default`` if absent."""
    if key not in d:
        return default
    sigma = _numbers(d, key, what, ())
    _check(sigma > 0.0, f"{what}: {key} must be positive")
    return unit(float(sigma)) ** 2


def _targeted(d: dict, key: str, owner: str, known, ref_key: str = "landmark"):
    """(target id, description, entry) for each entry of the optional list
    ``d[key]``, whose ``ref_key`` must name an id in ``known`` (None: any)."""
    for entry in _entries(d, key):
        ref = _id(entry, ref_key, owner, known, ref_key)
        yield ref, f"{owner} for {ref!r}", entry


def _pose_from(d: dict, what: str) -> Pose:
    q = _numbers(d, "q_wxyz", what, (4,), "quaternion")
    _check(abs(np.linalg.norm(q) - 1.0) <= 1e-6, f"{what}: quaternion not normalized")
    t = _numbers(d, "t_xyz", what, (3,), "translation")
    return Pose(quat_to_rot(q), t)


def _rts_from(d: dict, what: str) -> RtsState:
    pose = _pose_from(d, what)
    s = _numbers(d, "scale", what, (3,))
    _check(bool(np.all(s > 0)), f"{what}: scale must be 3 positive entries")
    return RtsState(pose.rotation, pose.translation, s)


def _landmark_from(d: dict, what: str):
    param = d.get("param")
    if param == "rts":
        return _rts_from(d, what)
    if param == "spd":
        shape = _numbers(d, "shape", what, (3, 3))
        t = _numbers(d, "t_xyz", what, (3,), "translation")
        try:
            return SpdState(as_spd(shape), t)
        except InvalidInputError:
            raise GraphError(f"{what}: shape must be positive definite") from None
    if param == "full":
        state = FullState(_numbers(d, "coefficients", what, (10,)))
        try:
            spd_from_dual(state.dual)
        except DegenerateLandmarkError:
            raise GraphError(f"{what}: coefficients do not describe an ellipsoid") from None
        return state
    raise GraphError(f"{what}: unknown parameterization tag {param!r}")


# One reader per section: each checks its section and returns typed values,
# a factor section its factors as (kind, targets, payload, variance) specs.
# A variance of None stands for the factor kind's default.


def _read_intrinsics(graph: dict) -> CameraIntrinsics:
    intr = _field(graph, "intrinsics", "graph")
    for key in ("fx", "fy", "cx", "cy", "width", "height"):
        _numbers(intr, key, "intrinsics", ())
    try:
        return CameraIntrinsics(**intr)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"intrinsics: {exc}") from None


def _read_frames(graph: dict) -> dict:
    """Frame id -> world-from-camera pose."""
    frames = {}
    for f in _entries(graph, "frames"):
        fid = _id(f, "id", "frame")
        _check(fid not in frames, f"duplicate frame id {fid!r}")
        frames[fid] = _pose_from(f, f"frame {fid!r}")
    return frames


def _read_initial(graph: dict, frames: dict) -> dict:
    """Landmark id -> initial state, in the parameterization its tag names."""
    landmarks = {}
    for lm in _entries(graph, "initial"):
        lid = _id(lm, "landmark", "initial estimate")
        _check(lid not in landmarks, f"duplicate landmark id {lid!r}")
        _check(lid not in frames, f"landmark id {lid!r} is also a frame id")
        landmarks[lid] = _landmark_from(lm, f"initial estimate for {lid!r}")
    return landmarks


def _read_detections(graph: dict, intrinsics, frames: dict, landmarks: dict, kind: str) -> list:
    specs = []
    for i, det in enumerate(_entries(graph, "detections")):
        what = f"detection {i}"
        targets = (_id(det, "frame", what, frames, "frame id"),
                   _id(det, "landmark", what, landmarks, "landmark id"))
        ul, ur, vu, vd = _numbers(det, "box", what, (4,)).tolist()
        if not (ul <= ur and vu <= vd):
            raise GraphError(f"{what}: box edges out of order")
        specs.append((kind, targets, {"intrinsics": intrinsics, "box": BoundingBox(ul, ur, vu, vd)},
                      _variance(det, "sigma_px", what)))
    return specs


def _read_unit_priors(priors: dict, landmarks: dict, kind: str, key: str, size: int) -> list:
    """Orientation or support priors, each vector scaled to a unit first three entries."""
    specs = []
    for ref, what, p in _targeted(priors, kind, f"{kind} prior", landmarks):
        v = _numbers(p, key, what, (size,))
        _check(np.linalg.norm(v[:3]) > 1e-9, f"{what}: bad {key}")
        specs.append((kind, (ref,), {key: v / np.linalg.norm(v[:3])}, _variance(p, "sigma", what)))
    return specs


def _read_scale_priors(priors: dict, landmarks: dict, size_form: str) -> list:
    """A shape and a size factor per scale prior."""
    specs = []
    for ref, what, p in _targeted(priors, "scale", "scale prior", landmarks):
        abc = _numbers(p, "abc", what, (3,))
        _check(abc[0] >= abc[1] >= abc[2] > 0, f"{what}: abc must be sorted descending, positive")
        abc = tuple(abc.tolist())
        specs += [("shape", (ref,), {"prior": abc}, _variance(p, "sigma_shape", what)),
                  ("size", (ref,), {"prior": abc, "form": size_form}, _variance(p, "sigma_size", what))]
    return specs


def _read_pose_priors(priors: dict, frames: dict) -> list:
    specs = []
    default = FACTOR_KINDS["pose-prior"].variance
    for ref, what, p in _targeted(priors, "pose", "pose prior", frames, "frame"):
        observed = _pose_from(p, what)
        rot = _variance(p, "sigma_rot_deg", what, default, np.radians)
        trans = _variance(p, "sigma_trans_m", what, default)
        specs.append(("pose-prior", (ref,), {"observed": observed},
                      np.concatenate([np.full(3, rot), np.full(3, trans)])))
    return specs


def _read_fixed(graph: dict, frames: dict, landmarks: dict) -> set:
    fixed = _entries(graph, "fixed")
    for vid in fixed:
        _check(isinstance(vid, str) and (vid in frames or vid in landmarks),
               f"fixed list: unknown id {vid!r}")
    return set(fixed)


def _read_truth(graph: dict, landmarks=None) -> dict:
    """Landmark id -> ground-truth RTS state, for ids in ``landmarks`` (None: any)."""
    return {ref: _rts_from(t, what) for ref, what, t in _targeted(graph, "truth", "truth", landmarks)}


def _read_graph(graph: dict, box_kind: str = "box-inverse", size_form: str = "sqrt"):
    """Every section, read in file order: (frames, landmarks, factor specs,
    fixed ids, truth). GraphError names the first offending entity."""
    _check(isinstance(graph, dict), "graph must be an object")
    _check(graph.get("version") == GRAPH_VERSION, f"unsupported graph version {graph.get('version')!r}")
    intrinsics = _read_intrinsics(graph)
    frames = _read_frames(graph)
    landmarks = _read_initial(graph, frames)
    specs = _read_detections(graph, intrinsics, frames, landmarks, box_kind)
    priors = graph.get("priors", {})
    _check(isinstance(priors, dict), "priors: expected an object")
    specs += _read_unit_priors(priors, landmarks, "orientation", "direction", 3)
    specs += _read_scale_priors(priors, landmarks, size_form)
    specs += _read_unit_priors(priors, landmarks, "support", "plane", 4)
    specs += _read_pose_priors(priors, frames)
    return frames, landmarks, specs, _read_fixed(graph, frames, landmarks), _read_truth(graph, landmarks)


def validate_graph(graph: dict) -> None:
    """Raise :class:`GraphError` naming the offending entity, else return.

    Every numeric field must be finite, every standard deviation positive,
    every required key present and every id reference known.
    """
    _read_graph(graph)


def _load_json(path, what: str):
    """The JSON document in ``path``; GraphError naming the byte where a corrupt ``what`` file breaks."""
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise GraphError(f"corrupt {what} file at byte {exc.start}: {exc.reason}") from exc
        except json.JSONDecodeError as exc:  # its pos counts characters
            at = len(exc.doc[:exc.pos].encode("utf-8"))
            raise GraphError(f"corrupt {what} file at byte {at}: {exc.msg}") from exc


def load_graph(path) -> dict:
    graph = _load_json(path, "graph")
    validate_graph(graph)
    return graph


def save_graph(graph: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph, fh, indent=2, sort_keys=True)
        fh.write("\n")


def problem_from_graph(graph: dict, parameterization: str, model: str = "inverse",
                       size_form: str = "sqrt") -> Problem:
    """Build the full multi-constraint problem of a graph; GraphError if it
    is malformed. Factor ids follow the file: detections, then orientation,
    scale (a shape and a size factor each), support and pose priors."""
    frames, landmarks, specs, fixed, _ = _read_graph(graph, box_factor_kind(model), size_form)
    variables = dict(frames)
    for lid, state in landmarks.items():
        variables[lid] = as_parameterization(state, parameterization)
    return Problem(variables, [Factor(i, *spec) for i, spec in enumerate(specs)], fixed)


def truth_landmarks(graph: dict) -> dict:
    """Ground-truth RTS states keyed by landmark id (empty if no truth
    block); reads the truth block alone. GraphError if it is malformed."""
    return _read_truth(graph)


def estimate_entry(landmark_id: str, state) -> dict:
    """Serialized estimate: native tag plus the dual coefficients."""
    tag = parameterization_tag(state)
    entry: dict = {"landmark": landmark_id, "param": tag}
    if tag == "rts":
        entry["q_wxyz"] = rot_to_quat(state.rotation).tolist()
        entry["t_xyz"] = np.asarray(state.translation, dtype=float).tolist()
        entry["scale"] = np.asarray(state.scale, dtype=float).tolist()
    elif tag == "spd":
        entry["shape"] = np.asarray(state.shape, dtype=float).tolist()
        entry["t_xyz"] = np.asarray(state.translation, dtype=float).tolist()
    else:
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

# The one TrialResult field that is wall-clock telemetry; records hold every
# other, each with the type TrialResult annotates it with.
_TELEMETRY_FIELD = "mean_iter_time_s"
_RECORD_TYPES = {name: hint for name, hint in typing.get_type_hints(TrialResult).items()
                 if name != _TELEMETRY_FIELD}


def _has_type(value, hint) -> bool:
    """Whether a JSON value has a record field's type. A bool is not a
    number, and an int is a float."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union, such as int | None
        return any(_has_type(value, a) for a in args)
    return isinstance(value, hint)


def result_records(results: list) -> list:
    """Deterministic per-trial records (timing telemetry excluded)."""
    return [{k: getattr(r, k) for k in _RECORD_TYPES} for r in sorted(results, key=lambda r: r.key())]


def records_to_results(records: list) -> list:
    return [TrialResult(**rec, **{_TELEMETRY_FIELD: 0.0}) for rec in records]


def cell_summaries(results: list) -> list:
    cells = group_cells(results)
    out = []
    for (noise, arc, param, model) in sorted(cells, key=str):
        s = summarize(cells[(noise, arc, param, model)])
        entry = {"noise": noise, "arc_deg": arc, "parameterization": param, "model": model}
        entry.update(dataclasses.asdict(s))
        out.append(entry)
    return out


def config_echo(campaign_spec) -> dict:
    """Every field of the campaign spec plus the factor variances, the
    success bar and the scoring and camera-placement rules, so results are
    auditable and re-derivable. The scene and LM constants in `sim` and
    `solver` are protocol, not settings, and are not echoed."""
    return {
        **dataclasses.asdict(campaign_spec),
        "default_variances": {name: kind.variance for name, kind in FACTOR_KINDS.items()},
        "success_factor": SUCCESS_FACTOR,
        "iou_protocol": "circumscribed-box exact IoU",
        "camera_placement": {
            "azimuth": "uniform within arc, per frame",
            "radius_sampling": "uniform per frame",
        },
    }


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
    """A result file's document. GraphError unless it is an object of this
    version whose records carry exactly the record fields, each of its
    annotated type, and whose summaries are a list."""
    doc = _load_json(path, "result")
    _check(isinstance(doc, dict), "result file must be an object")
    _check(doc.get("version") == RESULT_VERSION, f"unsupported result version {doc.get('version')!r}")
    for key in ("records", "summaries"):
        _check(isinstance(_field(doc, key, "result file"), list), f"result file: {key} must be a list")
    for i, rec in enumerate(doc["records"]):
        _check(isinstance(rec, dict), f"record {i}: expected an object")
        odd = sorted(set(rec) ^ set(_RECORD_TYPES))
        _check(not odd, f"record {i}: missing or unknown fields {odd}")
        for name, hint in _RECORD_TYPES.items():
            if not _has_type(rec[name], hint):
                want = hint.__name__ if isinstance(hint, type) else str(hint)
                raise GraphError(f"record {i}: {name} must be {want}, got {rec[name]!r:.40}")
    return doc


def write_traces(directory, results: list) -> list:
    """One CSV of (scene_index, iteration, cost) rows per campaign cell."""
    paths = []
    for (noise, arc, param, model), rs in group_cells(sorted(results, key=lambda r: r.key())).items():
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
