"""Reference implementations that only the tests use.

Each is an independent formula that a package function is checked
against, or a way to build a test case; none is part of the package.
"""

from dataclasses import dataclass

import numpy as np

from quadricfit.costs import Factor, box_edge_planes
from quadricfit.evaluation import OrientedBox
from quadricfit.manifold import (
    _eigh_apply,
    _require_finite,
    _so3_log_near_pi,
    spd_retract_normalized,
    spd_sqrt,
)
from quadricfit.quadric import DegenerateLandmarkError, FullState, RtsState, SpdState
from quadricfit.solver import factor_residual


@dataclass(frozen=True)
class _Dual:
    """A landmark given by its dual alone."""

    dual: np.ndarray


def residual(kind: str, q: np.ndarray, payload: dict, frame=None):
    """The residual of one ``kind`` factor on a landmark with dual ``q``,
    seen from camera ``frame`` for a box kind, as the solver evaluates it;
    a float for a one-component kind."""
    values = {"obj": _Dual(np.asarray(q, dtype=float))}
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


# ---------------------------------------------------------------------------
# SPD(3) maps that no solver path uses: the Euclidean-tangent retraction,
# its inverse square root, the affine-invariant metric and the coordinates
# of a symmetric matrix.

_SQRT2 = np.sqrt(2.0)


def sym_to_vec6(x: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric 3x3 matrix: diagonal, then scaled off-diagonal."""
    x = np.asarray(x, dtype=float)
    return np.array(
        [x[0, 0], x[1, 1], x[2, 2], _SQRT2 * x[0, 1], _SQRT2 * x[0, 2], _SQRT2 * x[1, 2]]
    )


def spd_inv_sqrt(p: np.ndarray) -> np.ndarray:
    """Inverse SPD square root."""
    return _eigh_apply(p, lambda w: 1.0 / np.sqrt(w))


def spd_retract(p: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Exponential retraction on SPD(3).

    ``p [+] xi = p^{1/2} Exp(p^{-1/2} xi p^{-1/2}) p^{1/2}``.  The result is
    symmetric positive-definite for every finite symmetric ``xi``, and
    ``spd_retract(p, 0)`` returns ``p`` unchanged.
    """
    xi = _require_finite("spd tangent", xi)
    if not np.any(xi):
        return p
    s_inv = spd_inv_sqrt(p)
    return spd_retract_normalized(p, s_inv @ xi @ s_inv)


def spd_metric(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Affine-invariant inner product ``tr(p^{-1} a p^{-1} b)`` at ``p``.

    Invariant under congruence: ``spd_metric(g p g^T, g a g^T, g b g^T)``
    equals ``spd_metric(p, a, b)`` for any invertible ``g``.  Evaluated via
    linear solves rather than an explicit inverse.
    """
    x = np.linalg.solve(p, a)
    y = np.linalg.solve(p, b)
    return float(np.trace(x @ y))


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


# ---------------------------------------------------------------------------
# Retractions one value at a time: the scalar arithmetic (Python-float
# angles, 2-D matrix products) that the batched retractions, duals and
# logarithms must reproduce bit for bit.


def _hat(omega):
    x, y, z = omega
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def scalar_so3_exp(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    w = _hat(omega)
    w2 = w @ w
    if theta < 1e-8:
        return np.eye(3) + w + 0.5 * w2
    return np.eye(3) + np.sin(theta) / theta * w + (1.0 - np.cos(theta)) / (theta * theta) * w2


def scalar_pose_retract(rotation, translation, xi) -> np.ndarray:
    """[R | t] of ``Exp(xi) * (rotation, translation)``."""
    omega, rho = xi[:3], xi[3:]
    theta = float(np.linalg.norm(omega))
    w = _hat(omega)
    w2 = w @ w
    if theta < 1e-6:
        jac = np.eye(3) + 0.5 * w + w2 / 6.0
    else:
        t2 = theta * theta
        jac = np.eye(3) + (1.0 - np.cos(theta)) / t2 * w + (theta - np.sin(theta)) / (t2 * theta) * w2
    r = scalar_so3_exp(omega)
    return np.column_stack([r @ rotation, r @ translation + jac @ rho])


def scalar_inverse_rt(rotation, translation) -> np.ndarray:
    rt = rotation.T
    return np.column_stack([rt, -rt @ translation])


def scalar_se3_log(rotation, translation) -> np.ndarray:
    r = rotation
    tr = np.clip(0.5 * (np.trace(r) - 1.0), -1.0, 1.0)
    theta = float(np.arccos(tr))
    v = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-7:
        omega = v * (1.0 + theta * theta / 6.0)
    elif theta > np.pi - 1e-6:
        omega = _so3_log_near_pi(r, theta, v)
    else:
        omega = v * (theta / np.sin(theta))
    theta = float(np.linalg.norm(omega))
    w = _hat(omega)
    w2 = w @ w
    if theta < 1e-6:
        jinv = np.eye(3) - 0.5 * w + w2 / 12.0
    else:
        t2 = theta * theta
        b = 1.0 / t2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
        jinv = np.eye(3) - 0.5 * w + b * w2
    return np.concatenate([omega, jinv @ translation])


def _scalar_eigh_apply(p, fn):
    w, u = np.linalg.eigh(0.5 * (p + p.T))
    out = (u * fn(w)) @ u.T
    return 0.5 * (out + out.T)


def _scalar_spd_retract(p, z6):
    o01, o02, o12 = z6[3] / np.sqrt(2.0), z6[4] / np.sqrt(2.0), z6[5] / np.sqrt(2.0)
    z = np.array([[z6[0], o01, o02], [o01, z6[1], o12], [o02, o12, z6[2]]])
    if not np.any(z):
        return p
    s = _scalar_eigh_apply(p, np.sqrt)
    out = s @ _scalar_eigh_apply(z, lambda w: np.exp(np.clip(w, -40.0, 40.0))) @ s
    out = 0.5 * (out + out.T)
    w, u = np.linalg.eigh(out)
    floor = max(w[-1], 1.0) * 1e-15
    if w[0] < floor:
        out = (u * np.maximum(w, floor)) @ u.T
        out = 0.5 * (out + out.T)
    return out


def scalar_landmark_retract(state, delta):
    if isinstance(state, RtsState):
        return RtsState(scalar_so3_exp(delta[:3]) @ state.rotation, state.translation + delta[3:6],
                        state.scale + delta[6:9])
    if isinstance(state, SpdState):
        return SpdState(_scalar_spd_retract(state.shape, delta[:6]), state.translation + delta[6:9])
    return FullState(state.v + delta)


def scalar_dual(state) -> np.ndarray:
    """The canonical dual of one landmark state."""
    if isinstance(state, SpdState):
        c = state.translation
        q = np.empty((4, 4))
        q[:3, :3] = state.shape - np.outer(c, c)
        q[:3, 3] = q[3, :3] = -c
        q[3, 3] = -1.0
        return 0.5 * (q + q.T)
    if isinstance(state, RtsState):
        s = state.scale
        if np.any(np.abs(s) < 1e-8):
            raise DegenerateLandmarkError("semi-axis length is (near) zero")
        t = np.eye(4)
        t[:3, :3] = state.rotation
        t[:3, 3] = state.translation
        q = t @ np.diag(np.concatenate([s * s, [-1.0]])) @ t.T
    else:
        a, b, c, d, e, f, g, h, i, j = state.v
        q = np.array([[a, d, f, g], [d, b, e, h], [f, e, c, i], [g, h, i, j]])
    q = 0.5 * (q + q.T)
    corner = q[3, 3]
    if abs(corner) < 1e-12 * max(1.0, float(np.max(np.abs(q)))):
        raise DegenerateLandmarkError("dual quadric has vanishing homogeneous corner")
    return q / -corner


def dense_jacobian(lin) -> np.ndarray:
    """The (m, n) Jacobian a linearization's blocks stand for; rows that
    pad a block (index m) fall on a row that is dropped."""
    n = sum(columns.size for columns, _, _ in lin.blocks)
    out = np.zeros((lin.residual.size + 1, n))
    for columns, rows, jacobian in lin.blocks:
        out[rows[:, :, None], columns[:, None, :]] = jacobian
    return out[:-1]
