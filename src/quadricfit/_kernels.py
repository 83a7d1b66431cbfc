"""Vectorized numpy implementations of the hot kernels.

The one camera-matrix builder (:func:`camera_matrices`), the one
conic-box formula (:func:`boxes_from_duals`, built from
:func:`project_duals` and :func:`conic_boxes`) and the one box-semi
tangency formula (:func:`tangency_values`), each beside its closed-form
derivatives (:func:`box_slopes`, :func:`tangency_slopes`), from which the
solver's box Jacobians come. Every input is per row: each
row carries its own camera ([R|t] and intrinsics, or edge planes), so one
call can cover every camera of a problem; rows never mix, and a row's
result has the same bits in any stack. The box rows of
:data:`quadricfit.costs.FACTOR_KINDS`, which the solver's cost, its
Jacobian and any single-factor evaluation all use, evaluate boxes and
tangency defects through these functions, so each residual has a single
implementation. A voxel overlap count serves only as a brute-force test
oracle for the exact box IoU of :mod:`quadricfit.evaluation`. All inputs
are float64 arrays; duals are canonical (``q[3,3] = -1``).
"""

import numpy as np

BACKEND = "python"

_CORNER_TOL = 1e-12

# Why a row of a batched box evaluation is not evaluable (0: it is).
BEHIND_CAMERA = 1
UNNORMALIZABLE = 2
NEGATIVE_DISCRIMINANT = 3
CUTS_PRINCIPAL_PLANE = 4

# The status of a row whose conic has no real box, by its projection status:
# a camera inside the ellipsoid also cuts its principal plane, and the
# imaginary conic is the reason given.
_NO_REAL_BOX = np.array([NEGATIVE_DISCRIMINANT, BEHIND_CAMERA, UNNORMALIZABLE,
                         NEGATIVE_DISCRIMINANT, NEGATIVE_DISCRIMINANT])

# The box edges [ul, ur, vu, vd]: each one's image axis, and half its sign.
_EDGES = np.arange(4)
_AXIS = np.array([0, 0, 1, 1])
_HALF_SIGN = np.array([-0.5, 0.5, -0.5, 0.5])


def backend() -> str:
    """Name of the kernel implementation, echoed in run records: 'python'."""
    return BACKEND


def project_duals(qs: np.ndarray, m: np.ndarray):
    """Dual conics of duals (n, 4, 4) projected into one camera per row.

    ``m`` (n, 3, 4) holds each row's camera matrix K [R|t], as
    :func:`camera_matrices` builds it. Returns (conics (n, 3, 3), status
    (n,)). Where status is 0 the conic is normalized so g[2, 2] = 1 and
    symmetrised. Otherwise it is BEHIND_CAMERA (the ellipsoid center is not
    in front of the camera), UNNORMALIZABLE (g[2, 2] is too small to divide
    by) or CUTS_PRINCIPAL_PLANE. K's last row is (0, 0, 1), so M's third
    row is [R|t]'s, the camera's z row ``pi``: it gives the center's depth,
    and the unnormalized g[2, 2] is ``pi^T q pi``. An ellipsoid wholly in
    front of the camera makes that negative, and when it is not below
    ``-tol`` the ellipsoid crosses the camera's plane z = 0 and its conic is
    no ellipse. g[2, 2] = r^T P r - z^2 for the shape block P and the
    camera's axis r, so it is in m^2, and ``tol = 1e-12 * max(1, z^2)`` is a
    tolerance in its units, whatever the pixel scale of the other entries.
    """
    z = np.vecdot(-qs[:, :3, 3], m[:, 2, :3]) + m[:, 2, 3]
    g = m @ qs @ np.swapaxes(m, 1, 2)
    corner = g[:, 2, 2]
    tol = _CORNER_TOL * np.fmax(1.0, z * z)
    # Past the UNNORMALIZABLE test |g[2, 2]| >= tol, so "not below -tol" is "positive".
    status = np.where(z <= 0.0, BEHIND_CAMERA,
                      np.where(np.abs(corner) < tol, UNNORMALIZABLE,
                               np.where(corner > 0.0, CUTS_PRINCIPAL_PLANE, 0)))
    # One call covers every row of a problem, so g is large: the in-place
    # normalization makes no (n, 3, 3) temporaries.
    g /= np.where(status == 0, corner, 1.0)[:, None, None]
    g += np.swapaxes(g, 1, 2)
    g *= 0.5
    return g, status


def conic_boxes(conics: np.ndarray):
    """Boxes of normalized dual conics (n, 3, 3): (boxes (n, 4) as
    [ul, ur, vu, vd], ok (n,)); not ok where a discriminant is negative."""
    g02, g12, g22 = conics[:, 0, 2], conics[:, 1, 2], conics[:, 2, 2]
    # float_power squares with the libm pow that a scalar ``**`` uses, not
    # the x * x of an array ``**``; the two differ in the last bit.
    du = np.float_power(g02, 2.0) - conics[:, 0, 0] * g22
    dv = np.float_power(g12, 2.0) - conics[:, 1, 1] * g22
    ok = ~((du < 0.0) | (dv < 0.0))
    ru = np.sqrt(np.where(ok, du, 0.0))
    rv = np.sqrt(np.where(ok, dv, 0.0))
    return np.stack([g02 - ru, g02 + ru, g12 - rv, g12 + rv], axis=1), ok


def intrinsic_matrices(fx, fy, cx, cy, n: int) -> np.ndarray:
    """Intrinsic matrices K (n, 3, 3) of intrinsics that are scalars or (n,)
    arrays."""
    k = np.zeros((n, 3, 3))
    k[:, 0, 0], k[:, 1, 1], k[:, 0, 2], k[:, 1, 2], k[:, 2, 2] = fx, fy, cx, cy, 1.0
    return k


def camera_matrices(fx, fy, cx, cy, rt: np.ndarray) -> np.ndarray:
    """Camera matrices M = K [R|t] (n, 3, 4) of each row's camera-from-world
    ``rt`` (n, 3, 4) and intrinsics, which are scalars or (n,) arrays."""
    return intrinsic_matrices(fx, fy, cx, cy, len(rt)) @ rt


def boxes_from_duals(fx, fy, cx, cy, rt, duals):
    """Closed-form bounding boxes of projected dual quadrics.

    duals: (n, 4, 4). Each row has its own camera: rt (n, 3, 4)
    camera-from-world, and intrinsics that are scalars or (n,) arrays.
    Returns (boxes (n, 4) as [ul, ur, vu, vd], status (n,)), status 0 where
    the row is evaluable; see :func:`project_duals`, plus
    NEGATIVE_DISCRIMINANT where the conic has no real bounding box.
    """
    conics, status = project_duals(duals, camera_matrices(fx, fy, cx, cy, rt))
    boxes, ok = conic_boxes(conics)
    return boxes, np.where(ok, status, _NO_REAL_BOX[status])


def box_slopes(fx, fy, cx, cy, rt, duals):
    """Closed-form derivatives of the box edges :func:`boxes_from_duals`
    gives, per row and edge: (against the dual (n, 4, 4, 4), against the
    camera's [R|t] (n, 4, 3, 4)), arguments as there.

    With G = M Q M^T and M = K [R|t], the u edges are
    ``G02/G22 -/+ sqrt(G02^2 - G00 G22)/|G22|`` and the v edges likewise
    with G11 and G12. With W = d(edge)/dG, symmetric, the derivative
    against Q is ``M^T W M``, against M ``2 W M Q``, and against [R|t]
    ``K^T`` times that. Only rows that :func:`boxes_from_duals` finds
    evaluable have a derivative; where a discriminant is zero (a box of
    zero width) it is infinite.
    """
    n = len(duals)
    k = intrinsic_matrices(fx, fy, cx, cy, n)
    m = k @ rt
    g = m @ duals @ np.swapaxes(m, 1, 2)
    # Per row and edge (n, 4): G_ii and G_i2 of the edge's axis i, and G22.
    a, b, c = g[:, _AXIS, _AXIS], g[:, _AXIS, 2], g[:, 2, 2, None]
    m_i, m_z = m[:, _AXIS], m[:, None, 2]
    wm = np.zeros((n, 4, 3, 4))  # W M: its rows i and z
    with np.errstate(divide="ignore", invalid="ignore"):
        # An edge is (b - sign root) / c; here its derivatives against G_ii,
        # G_i2 (halved: W holds it twice, at i2 and 2i) and G22.
        root = np.sqrt(b * b - a * c)
        da = _HALF_SIGN / root
        hdb = (0.5 - da * b) / c
        dc = (da * a - (b - 2.0 * _HALF_SIGN * root) / c) / c
        wm[:, _EDGES, _AXIS] = da[..., None] * m_i + hdb[..., None] * m_z
        wm[:, :, 2] = hdb[..., None] * m_i + dc[..., None] * m_z
        d_dual = np.swapaxes(m, 1, 2)[:, None] @ wm
        d_rt = np.swapaxes(k, 1, 2)[:, None] @ (2.0 * (wm @ duals[:, None]))
    return d_dual, d_rt


def tangency_values(planes, duals):
    """Tangency defects ``pi^T q pi`` of each row's planes and dual quadric.

    planes: (n, p, 4), unit-normalized. duals: (n, 4, 4), canonical scale.
    Always evaluable: returns the values (n, p).
    """
    return np.einsum("npi,nij,npj->np", planes, duals, planes)


def tangency_slopes(planes, duals):
    """Derivatives of :func:`tangency_values`' ``t = pi^T q pi`` per row
    and plane: (against the dual, ``pi pi^T`` (n, p, 4, 4); against the
    plane, ``2 q pi`` (n, p, 4))."""
    return planes[..., :, None] * planes[..., None, :], 2.0 * (planes @ duals)


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
