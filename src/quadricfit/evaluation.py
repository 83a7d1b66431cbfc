"""Quantitative evaluation: 3D IoU on circumscribed boxes, orientation
error on the axis-permutation quotient, trial scores and cell summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import MODELS
from .manifold import InvalidInputError
from .quadric import PARAMETERIZATIONS, DegenerateLandmarkError, proper_axis_permutations, rts_from_dual

# Tolerances of the exact box IoU, relative to the largest corner coordinate
# of the pair. Faces closer than _COPLANAR_TOL are one boundary piece: that
# merge errs by at most the tolerance, while clipping a face by a plane
# this close places the cut with a relative error of rounding / tolerance,
# so about sqrt(machine epsilon) balances the two. Vertices closer than
# _SNAP_TOL to a clipping plane lie on it.
_COPLANAR_TOL = 1e-8
_SNAP_TOL = 1e-12


@dataclass(frozen=True)
class OrientedBox:
    """Oriented box: center, rotation (columns = box axes), half-extents."""

    center: np.ndarray
    rotation: np.ndarray
    half_extents: np.ndarray


def circumscribed_box(q: np.ndarray) -> OrientedBox:
    """Tight box around the ellipsoid: its center, rotation and semi-axes."""
    rts = rts_from_dual(q)
    return OrientedBox(rts.translation, rts.rotation, rts.scale)


def _box_faces(box: OrientedBox, ref: np.ndarray) -> list:
    """The six faces of a box in coordinates relative to ``ref``.

    Each face is ``(plane, polygon)``: the plane ``(nx, ny, nz, d)`` holds
    the box in ``n . x <= d``, and the polygon lists its four corners in
    cyclic order, as plain-float tuples.
    """
    rot = np.asarray(box.rotation, dtype=float)
    half = np.asarray(box.half_extents, dtype=float)
    center = np.asarray(box.center, dtype=float) - ref
    faces = []
    for k in range(3):
        u = half[(k + 1) % 3] * rot[:, (k + 1) % 3]
        v = half[(k + 2) % 3] * rot[:, (k + 2) % 3]
        for s in (1.0, -1.0):
            n = s * rot[:, k]
            mid = center + half[k] * n
            poly = np.array([mid + u + v, mid - u + v, mid - u - v, mid + u - v])
            plane = (*n.tolist(), float(n @ center) + float(half[k]))
            faces.append((plane, [tuple(p) for p in poly.tolist()]))
    return faces


def _offsets(plane: tuple, points: list) -> list:
    """Signed distances ``n . x - d`` of points from a plane."""
    nx, ny, nz, d = plane
    return [nx * x + ny * y + nz * z - d for x, y, z in points]


def _clip(poly: list, plane: tuple, tol: float) -> list:
    """Part of a convex polygon inside ``n . x <= d`` (Sutherland-Hodgman).

    Vertices within ``tol`` of the plane count as on it, so a polygon that
    touches the plane only by rounding comes back unchanged (the same list).
    """
    dist = [0.0 if -tol <= e <= tol else e for e in _offsets(plane, poly)]
    if max(dist) <= 0.0:
        return poly
    if min(dist) >= 0.0:
        return []
    out = []
    prev, dprev = poly[-1], dist[-1]
    for cur, dcur in zip(poly, dist):
        if (dcur < 0.0 < dprev) or (dprev < 0.0 < dcur):
            t = dprev / (dprev - dcur)
            out.append(tuple(p + t * (c - p) for p, c in zip(prev, cur)))
        if dcur <= 0.0:
            out.append(cur)
        prev, dprev = cur, dcur
    return out


def _face_volume(plane: tuple, poly: list) -> float:
    """Signed volume of the cone from the origin to a planar face:
    ``d * area / 3`` (one term of the divergence theorem)."""
    nx, ny, nz, d = plane
    x0, y0, z0 = poly[0]
    ax = ay = az = 0.0
    for (x1, y1, z1), (x2, y2, z2) in zip(poly[1:-1], poly[2:]):
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
        ax += uy * vz - uz * vy
        ay += uz * vx - ux * vz
        az += ux * vy - uy * vx
    return d * 0.5 * abs(nx * ax + ny * ay + nz * az) / 3.0


def _clipped_volume(face: tuple, planes: list, tol: float) -> float:
    """:func:`_face_volume` of a face clipped by the inner sides of planes."""
    plane, poly = face
    for clip_plane in planes:
        poly = _clip(poly, clip_plane, tol)
        if not poly:
            return 0.0
    return _face_volume(plane, poly)


def _box_key(box: OrientedBox) -> tuple:
    """Sort key that puts a pair of boxes in a canonical order."""
    return tuple(
        np.concatenate(
            [np.ravel(box.center), np.ravel(box.rotation), np.ravel(box.half_extents)]
        ).tolist()
    )


def iou_boxes(a: OrientedBox, b: OrientedBox) -> float:
    """Exact volume IoU of two oriented boxes.

    The intersection of two convex boxes is bounded by the faces of each
    box clipped by the other's six half-spaces; its volume is the sum of
    ``d * area / 3`` over those clipped faces (the divergence theorem), the
    method of the Objectron 3D IoU (Ahmadyan et al., CVPR 2021).
    Coordinates are taken relative to the midpoint of the two centers.

    Faces of ``b`` lying in a same-oriented face plane of ``a`` (within a
    tolerance relative to the pair's size) are one boundary piece: it is
    counted from ``a`` alone, whose face is not clipped by that plane.
    Boxes that only touch across a face plane score 0. The box volumes come
    from the same face sum, so identical boxes score exactly 1.0, and the
    pair is put in a canonical order, so the result is bitwise symmetric.
    Raises InvalidInputError on non-finite input.
    """
    for box in (a, b):
        for part in (box.center, box.rotation, box.half_extents):
            if not np.all(np.isfinite(part)):
                raise InvalidInputError("oriented box contains non-finite entries")
    if _box_key(b) < _box_key(a):
        a, b = b, a
    ref = 0.5 * (np.asarray(a.center, dtype=float) + np.asarray(b.center, dtype=float))
    faces_a = _box_faces(a, ref)
    faces_b = _box_faces(b, ref)
    vol_a = sum(_face_volume(plane, poly) for plane, poly in faces_a)
    vol_b = sum(_face_volume(plane, poly) for plane, poly in faces_b)
    if vol_a <= 0.0 or vol_b <= 0.0:
        return 0.0

    scale = max(abs(x) for _, poly in faces_a + faces_b for v in poly for x in v)
    coplanar_tol = _COPLANAR_TOL * scale
    snap_tol = _SNAP_TOL * scale

    # A face plane with the other box entirely on its outer side (up to the
    # tolerance) separates the boxes; this also catches face-to-face contact.
    for mine, other in ((faces_a, faces_b), (faces_b, faces_a)):
        corners = [v for _, poly in other for v in poly]
        for plane, _ in mine:
            if min(_offsets(plane, corners)) >= -coplanar_tol:
                return 0.0

    planes_a = [plane for plane, _ in faces_a]
    planes_b = [plane for plane, _ in faces_b]
    partner = {}  # face index in b -> same-oriented coplanar face index in a
    for i, pa in enumerate(planes_a):
        for j, (pb, poly_b) in enumerate(faces_b):
            same_side = pa[0] * pb[0] + pa[1] * pb[1] + pa[2] * pb[2] > 0.5
            if same_side and max(map(abs, _offsets(pa, poly_b))) <= coplanar_tol:
                partner[j] = i
    inter = 0.0
    for i, face in enumerate(faces_a):
        clip_planes = [pb for j, pb in enumerate(planes_b) if partner.get(j) != i]
        inter += _clipped_volume(face, clip_planes, snap_tol)
    for j, face in enumerate(faces_b):
        if j not in partner:
            inter += _clipped_volume(face, planes_a, snap_tol)
    inter = min(max(inter, 0.0), vol_a, vol_b)
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


def score_estimate(estimate, truth) -> tuple[float, float]:
    """(IoU, orientation error in degrees) of a landmark estimate against its
    ground-truth RTS state; (0.0, 180.0) when the estimate is no ellipsoid."""
    try:
        dual = estimate.dual
        return (iou_duals(dual, truth.dual),
                orientation_error(rts_from_dual(dual).rotation, truth.rotation))
    except (DegenerateLandmarkError, np.linalg.LinAlgError):
        return 0.0, 180.0


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


def group_cells(results: list) -> dict:
    """Records by campaign cell ``(noise, arc_deg, parameterization, model)``;
    cells in order of first appearance, records in input order."""
    cells: dict = {}
    for r in results:
        cells.setdefault((r.noise, r.arc_deg, r.parameterization, r.model), []).append(r)
    return cells


# Report rows: label, separator between parameterizations (None: pooled),
# whether only successes count, and the entry of a non-empty record list.
_REPORT_ROWS = (
    ("success F+S+O", "+", False, lambda rs: str(sum(r.success for r in rs))),
    ("avg IoU F/S/O", "/", False, lambda rs: f"{np.mean([r.iou for r in rs]):.2f}"),
    ("avg success IoU", None, True, lambda rs: f"{np.mean([r.iou for r in rs]):.2f}"),
    ("med iters to ok", "/", True,
     lambda rs: f"{np.median([r.iterations_to_success for r in rs]):.0f}"),
)


def render_report(results: list) -> str:
    """Success-count / IoU table over (noise, arc, model) with one column
    block per measurement model and arc, parameterizations pooled per the
    F+S+O convention. Pooled entries take their records in key order."""
    noises = sorted({r.noise for r in results}, key="LMH".index)
    arcs = sorted({r.arc_deg for r in results})
    models = [m for m in MODELS if any(r.model == m for r in results)]
    combos = [(m, a) for a in arcs for m in models]
    cells = group_cells(results)

    header = ["metric", "noise"] + [f"{m[:4]}-{a}" for m, a in combos]
    widths = [16, 6] + [14] * len(combos)

    def fmt_row(cols):
        return "  ".join(str(c).ljust(w) for c, w in zip(cols, widths)).rstrip()

    lines = [fmt_row(header)]
    for label, sep, successes_only, entry in _REPORT_ROWS:
        for noise in noises:
            row = [label if noise == noises[0] else "", noise]
            for model, arc in combos:
                groups = [[r for r in cells.get((noise, arc, p, model), [])
                           if r.success or not successes_only] for p in PARAMETERIZATIONS]
                if sep is None:
                    groups = [sorted((r for g in groups for r in g), key=lambda r: r.key())]
                row.append((sep or "").join(entry(rs) if rs else "-" for rs in groups))
            lines.append(fmt_row(row))
    return "\n".join(lines)
