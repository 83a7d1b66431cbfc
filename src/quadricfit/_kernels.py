"""Vectorized numpy implementations of the hot kernels.

Batched box projection and tangency defects, plus a voxel overlap count
that serves only as a brute-force test oracle for the exact box IoU of
:mod:`quadricfit.evaluation`. All inputs are float64 arrays; duals are
canonical (``q[3,3] = -1``).
"""

import numpy as np

BACKEND = "python"

_CORNER_TOL = 1e-12


def backend() -> str:
    """Name of the kernel implementation, echoed in run records: 'python'."""
    return BACKEND


def boxes_from_duals(fx, fy, cx, cy, rt, duals):
    """Closed-form bounding boxes of projected dual quadrics.

    rt: (3, 4) camera-from-world. duals: (n, 4, 4). Returns
    (boxes (n, 4) as [ul, ur, vu, vd], ok (n,) bool). A row is not ok when
    the ellipsoid center is behind the camera, the projected conic cannot
    be normalized, or a discriminant is negative.
    """
    duals = np.asarray(duals, dtype=float)
    n = duals.shape[0]
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    m = k @ rt
    centers = -duals[:, :3, 3]
    z = centers @ rt[2, :3] + rt[2, 3]
    g = np.einsum("ij,njk,lk->nil", m, duals, m)
    corner = g[:, 2, 2]
    scale = np.maximum(np.abs(g).max(axis=(1, 2)), 1.0)
    ok = (z > 0.0) & (np.abs(corner) > _CORNER_TOL * scale)
    safe = np.where(ok, corner, 1.0)
    g = g / safe[:, None, None]
    du = g[:, 0, 2] ** 2 - g[:, 0, 0]
    dv = g[:, 1, 2] ** 2 - g[:, 1, 1]
    ok &= (du >= 0.0) & (dv >= 0.0)
    ru = np.sqrt(np.where(du >= 0.0, du, 0.0))
    rv = np.sqrt(np.where(dv >= 0.0, dv, 0.0))
    boxes = np.empty((n, 4))
    boxes[:, 0] = g[:, 0, 2] - ru
    boxes[:, 1] = g[:, 0, 2] + ru
    boxes[:, 2] = g[:, 1, 2] - rv
    boxes[:, 3] = g[:, 1, 2] + rv
    return boxes, ok


def tangency_values(planes, duals):
    """Tangency defects ``pi^T q pi`` for each plane and dual quadric.

    planes: (p, 4) rows, unit-normalized. duals: (n, 4, 4), canonical
    scale. Always evaluable: returns (vals (n, p), ok (n,) all-True).
    """
    duals = np.asarray(duals, dtype=float)
    planes = np.asarray(planes, dtype=float)
    vals = np.einsum("pi,nij,pj->np", planes, duals, planes)
    return vals, np.ones(duals.shape[0], dtype=bool)


def voxel_box_overlap(rot_a, cen_a, half_a, rot_b, cen_b, half_b, lo, hi, n):
    """Count grid-cell centers inside box a, box b, and both.

    The grid has n^3 cells spanning [lo, hi]. Boxes are oriented:
    a point p is inside when ``|rot^T (p - cen)| <= half`` componentwise.
    Returns (count_a, count_b, count_both) as ints.
    """
    step = (np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)) / n
    axes = [lo[i] + (np.arange(n) + 0.5) * step[i] for i in range(3)]
    # One z-slab at a time keeps peak memory at O(n^2).
    xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.empty((n * n, 3))
    pts[:, 0] = xs.ravel()
    pts[:, 1] = ys.ravel()
    count_a = count_b = count_both = 0
    for zval in axes[2]:
        pts[:, 2] = zval
        la = np.abs((pts - cen_a) @ rot_a)
        in_a = np.all(la <= half_a, axis=1)
        lb = np.abs((pts - cen_b) @ rot_b)
        in_b = np.all(lb <= half_b, axis=1)
        count_a += int(in_a.sum())
        count_b += int(in_b.sum())
        count_both += int((in_a & in_b).sum())
    return count_a, count_b, count_both
