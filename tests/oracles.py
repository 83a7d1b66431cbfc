"""Reference implementations that only the tests use.

Each is an independent formula that a package function is checked
against, or a way to build a test case; none is part of the package.
"""

from types import SimpleNamespace

import numpy as np

from quadricfit.costs import Factor, box_edge_planes
from quadricfit.evaluation import OrientedBox
from quadricfit.manifold import _eigh_apply, spd_inv_sqrt, spd_sqrt
from quadricfit.quadric import RtsState
from quadricfit.solver import factor_residual


def residual(kind: str, q: np.ndarray, payload: dict, frame=None):
    """The residual of one ``kind`` factor on a landmark with dual ``q``,
    seen from camera ``frame`` for a box kind, as the solver evaluates it;
    a float for a one-component kind."""
    values = {"obj": SimpleNamespace(dual=np.asarray(q, dtype=float))}
    targets = ("obj",)
    if frame is not None:
        values["cam"] = frame.pose
        targets = ("cam", "obj")
        payload = {"intrinsics": frame.intrinsics, **payload}
    r = factor_residual(Factor(0, kind, targets, payload), values)
    return float(r[0]) if r.size == 1 else r


def frame_edge_planes(frame, box) -> np.ndarray:
    """The (4, 4) edge planes of one box seen from one camera frame: a
    batch of one through :func:`~quadricfit.costs.box_edge_planes`."""
    i = frame.intrinsics
    return box_edge_planes([[i.fx, i.fy, i.cx, i.cy]], frame.projection_rt()[None],
                           box.as_array()[None])[0]


def aabb(box: OrientedBox) -> tuple[np.ndarray, np.ndarray]:
    reach = np.abs(box.rotation) @ np.asarray(box.half_extents, dtype=float)
    c = np.asarray(box.center, dtype=float)
    return c - reach, c + reach


def iou_aabb_analytic(a: OrientedBox, b: OrientedBox) -> float:
    """Exact IoU for axis-aligned boxes; an oracle for :func:`iou_boxes`."""
    lo_a, hi_a = aabb(a)
    lo_b, hi_b = aabb(b)
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if np.any(overlap <= 0.0):
        return 0.0
    inter = float(np.prod(overlap))
    vol_a = float(np.prod(hi_a - lo_a))
    vol_b = float(np.prod(hi_b - lo_b))
    return inter / (vol_a + vol_b - inter)


def permuted_rts(state: RtsState, perm: np.ndarray) -> RtsState:
    """Relabel the axes of an RTS state: same ellipsoid, different tuple."""
    return RtsState(
        state.rotation @ perm,
        state.translation,
        np.abs(perm).T @ np.asarray(state.scale, dtype=float),
    )


def sym_logm(p: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm of an SPD matrix."""
    return _eigh_apply(p, np.log)


def spd_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Logarithmic map on SPD(3), the exact inverse of :func:`spd_retract`.

    ``log_p(q) = p^{1/2} Log(p^{-1/2} q p^{-1/2}) p^{1/2}``.
    """
    s = spd_sqrt(p)
    s_inv = spd_inv_sqrt(p)
    inner = s_inv @ q @ s_inv
    out = s @ sym_logm(inner) @ s
    return 0.5 * (out + out.T)
