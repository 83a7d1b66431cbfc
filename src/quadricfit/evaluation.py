"""Quantitative evaluation: 3D IoU on circumscribed boxes, orientation
error on the axis-permutation quotient, and per-cell summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .quadric import proper_axis_permutations, rts_from_dual

IOU_GRID = 128


@dataclass(frozen=True)
class OrientedBox:
    """Oriented box: center, rotation (columns = box axes), half-extents."""

    center: np.ndarray
    rotation: np.ndarray
    half_extents: np.ndarray

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        reach = np.abs(self.rotation) @ np.asarray(self.half_extents, dtype=float)
        c = np.asarray(self.center, dtype=float)
        return c - reach, c + reach


def circumscribed_box(q: np.ndarray) -> OrientedBox:
    """Tight box around the ellipsoid: its center, rotation and semi-axes."""
    rts = rts_from_dual(q)
    return OrientedBox(rts.translation, rts.rotation, rts.scale)


def iou_boxes(a: OrientedBox, b: OrientedBox) -> float:
    """Volume IoU of two oriented boxes by counting grid cells.

    The grid spans the union's axis-aligned bounding region with IOU_GRID^3
    cells, which bounds the error at about +/-0.01 for comparable boxes;
    symmetric in (a, b) by construction.
    """
    lo_a, hi_a = a.aabb()
    lo_b, hi_b = b.aabb()
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    if np.any(hi <= lo):
        return 0.0
    na, nb, inter = _kernels.voxel_box_overlap(
        np.asarray(a.rotation, dtype=float),
        np.asarray(a.center, dtype=float),
        np.asarray(a.half_extents, dtype=float),
        np.asarray(b.rotation, dtype=float),
        np.asarray(b.center, dtype=float),
        np.asarray(b.half_extents, dtype=float),
        lo,
        hi,
        IOU_GRID,
    )
    union = na + nb - inter
    if union == 0:
        return 0.0
    return inter / union


def iou_aabb_analytic(a: OrientedBox, b: OrientedBox) -> float:
    """Exact IoU for axis-aligned boxes; the oracle for the voxel method."""
    lo_a, hi_a = a.aabb()
    lo_b, hi_b = b.aabb()
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if np.any(overlap <= 0.0):
        return 0.0
    inter = float(np.prod(overlap))
    vol_a = float(np.prod(hi_a - lo_a))
    vol_b = float(np.prod(hi_b - lo_b))
    return inter / (vol_a + vol_b - inter)


def iou_duals(qa: np.ndarray, qb: np.ndarray) -> float:
    """IoU of the circumscribed boxes of two dual quadrics."""
    return iou_boxes(circumscribed_box(qa), circumscribed_box(qb))


def orientation_error(est: np.ndarray, truth: np.ndarray) -> float:
    """Minimum angle (deg) aligning the estimated axes with any truth axis.

    Minimizes the rotation angle of ``(truth @ P)^T est`` over the 24 proper
    axis relabelings P, i.e. measures rotation error on the quotient where
    relabeled axes describe the same box. The angle uses the atan2 form,
    which stays accurate near zero where arccos loses precision.
    """
    best = np.pi
    for perm in proper_axis_permutations():
        rel = (truth @ perm).T @ est
        c = 0.5 * (np.trace(rel) - 1.0)
        s = 0.5 * np.linalg.norm(
            [rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]]
        )
        best = min(best, float(np.arctan2(s, c)))
    return float(np.degrees(best))


@dataclass
class CellSummary:
    """Aggregates of one campaign cell (noise, arc, parameterization, model)."""

    trials: int
    successes: int
    mean_iou: float
    mean_success_iou: float | None
    mean_iterations: float
    median_iterations: float
    mean_iterations_to_success: float | None
    median_iterations_to_success: float | None
    mean_orientation_error_deg: float


def summarize(results: list) -> CellSummary:
    """Summary of a list of TrialResult records from one cell.

    Uses only the deterministic record fields, so summaries recomputed from
    a saved result file match the stored ones exactly. Iterations-to-success
    is the accepted-step count at which the cost trace first reaches the
    success bar, aggregated over successful trials."""
    if not results:
        raise ValueError("cannot summarize an empty cell")
    ious = np.array([r.iou for r in results])
    iters = np.array([r.iterations for r in results])
    succ = [r for r in results if r.success]
    succ_ious = np.array([r.iou for r in succ]) if succ else None
    to_succ = np.array([r.iterations_to_success for r in succ], dtype=float) if succ else None
    return CellSummary(
        trials=len(results),
        successes=len(succ),
        mean_iou=float(ious.mean()),
        mean_success_iou=float(succ_ious.mean()) if succ else None,
        mean_iterations=float(iters.mean()),
        median_iterations=float(np.median(iters)),
        mean_iterations_to_success=float(to_succ.mean()) if succ else None,
        median_iterations_to_success=float(np.median(to_succ)) if succ else None,
        mean_orientation_error_deg=float(np.mean([r.orientation_error_deg for r in results])),
    )


_PARAM_ORDER = ("full", "rts", "spd")


def render_report(results: list) -> str:
    """Success-count / IoU table over (noise, arc, model) with one column
    block per measurement model and arc, parameterizations pooled per the
    F+S+O convention."""
    noises = sorted({r.noise for r in results}, key="LMH".index)
    arcs = sorted({r.arc_deg for r in results})
    models = [m for m in ("inverse", "semi") if any(r.model == m for r in results)]
    combos = [(m, a) for a in arcs for m in models]

    def cell(noise, model, arc):
        return [r for r in results if r.noise == noise and r.model == model and r.arc_deg == arc]

    lines = []
    header = ["metric", "noise"] + [f"{m[:4]}-{a}" for m, a in combos]
    widths = [16, 6] + [14] * len(combos)

    def fmt_row(cols):
        return "  ".join(str(c).ljust(w) for c, w in zip(cols, widths)).rstrip()

    lines.append(fmt_row(header))
    for noise in noises:
        row = ["success F+S+O" if noise == noises[0] else "", noise]
        for model, arc in combos:
            rs = cell(noise, model, arc)
            counts = []
            for p in _PARAM_ORDER:
                sub = [r for r in rs if r.parameterization == p]
                counts.append(str(sum(r.success for r in sub)) if sub else "-")
            row.append("+".join(counts))
        lines.append(fmt_row(row))
    for noise in noises:
        row = ["avg IoU F/S/O" if noise == noises[0] else "", noise]
        for model, arc in combos:
            rs = cell(noise, model, arc)
            vals = []
            for p in _PARAM_ORDER:
                sub = [r for r in rs if r.parameterization == p]
                vals.append(f"{np.mean([r.iou for r in sub]):.2f}" if sub else "-")
            row.append("/".join(vals))
        lines.append(fmt_row(row))
    for noise in noises:
        row = ["avg success IoU" if noise == noises[0] else "", noise]
        for model, arc in combos:
            rs = [r for r in cell(noise, model, arc) if r.success]
            row.append(f"{np.mean([r.iou for r in rs]):.2f}" if rs else "-")
        lines.append(fmt_row(row))
    for noise in noises:
        row = ["med iters to ok" if noise == noises[0] else "", noise]
        for model, arc in combos:
            vals = []
            for p in _PARAM_ORDER:
                sub = [r for r in cell(noise, model, arc) if r.parameterization == p and r.success]
                vals.append(f"{np.median([r.iterations_to_success for r in sub]):.0f}" if sub else "-")
            row.append("/".join(vals))
        lines.append(fmt_row(row))
    return "\n".join(lines)
