"""Manifold primitives: SO(3), SE(3) and SPD(3).

Conventions used throughout the package:

* Rotations are 3x3 arrays with ``det = +1``; poses are (rotation,
  translation) pairs acting as ``x_world = R @ x_local + t``.
* se(3) tangent vectors are ordered ``(omega, rho)``: rotation first,
  translation second.  Pose retraction is the left update
  ``T <- Exp(xi) * T``.
* SPD(3) tangent vectors are symmetric 3x3 matrices.  Their coordinate
  form is a 6-vector ``(x00, x11, x22, sqrt(2)*x01, sqrt(2)*x02,
  sqrt(2)*x12)`` so that the Euclidean norm of the coordinates equals
  the Frobenius norm of the matrix.
* Matrix exponentials/logarithms of symmetric matrices are computed by
  eigendecomposition, which is exact for symmetric input.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# Minimum eigenvalue accepted when validating an SPD matrix.  Validation
# happens once, at construction boundaries; operations do not re-check.
SPD_EIG_TOL = 1e-12

_SQRT2 = np.sqrt(2.0)


class InvalidInputError(ValueError):
    """Raised when an argument is non-finite or structurally invalid."""


def _require_finite(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def finite_numbers(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``: numbers (not strings or
    bools), all finite. Checks an input from outside the program."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or a.shape != shape or not np.isfinite(a).all():
        what = f"{' x '.join(map(str, shape))} finite numbers" if shape else "a finite number"
        raise InvalidInputError(f"{name} must be {what}, got {value!r}")
    return a.astype(float)


def require_integer(name: str, n, low: int, what: str) -> None:
    """InvalidInputError unless ``n`` is an integer, not a bool, of at least
    ``low``. Checks an input from outside the program."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < low:
        raise InvalidInputError(f"{name} must be {what}, got {n!r}")


# ---------------------------------------------------------------------------
# SPD(3)


def as_spd(m: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a 3x3 symmetric positive-definite matrix.

    Returns the symmetrized copy.  Raises :class:`InvalidInputError` if the
    input is non-finite, not 3x3, or has an eigenvalue below ``SPD_EIG_TOL``.
    """
    m = _require_finite("spd matrix", m)
    if m.shape != (3, 3):
        raise InvalidInputError(f"expected 3x3 matrix, got {m.shape}")
    m = 0.5 * (m + m.T)
    if np.linalg.eigvalsh(m)[0] <= SPD_EIG_TOL:
        raise InvalidInputError("matrix is not positive definite")
    return m


def sym_to_vec6(x: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric 3x3 matrix: diagonal, then scaled off-diagonal."""
    x = np.asarray(x, dtype=float)
    return np.array(
        [x[0, 0], x[1, 1], x[2, 2], _SQRT2 * x[0, 1], _SQRT2 * x[0, 2], _SQRT2 * x[1, 2]]
    )


def vec6_to_sym(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sym_to_vec6`."""
    v = np.asarray(v, dtype=float)
    o01, o02, o12 = v[3] / _SQRT2, v[4] / _SQRT2, v[5] / _SQRT2
    return np.array([[v[0], o01, o02], [o01, v[1], o12], [o02, o12, v[2]]])


def _eigh_apply(p: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a symmetric matrix."""
    w, u = np.linalg.eigh(0.5 * (p + p.T))
    out = (u * fn(w)) @ u.T
    return 0.5 * (out + out.T)


def spd_sqrt(p: np.ndarray) -> np.ndarray:
    """Unique SPD square root, ``spd_sqrt(p) @ spd_sqrt(p) = p``.

    The result does not depend on the particular eigendecomposition chosen.
    """
    p = _require_finite("spd_sqrt input", p)
    return _eigh_apply(p, np.sqrt)


def spd_inv_sqrt(p: np.ndarray) -> np.ndarray:
    """Inverse SPD square root."""
    return _eigh_apply(p, lambda w: 1.0 / np.sqrt(w))


# Numerical guards for the SPD retraction. The exponent clamp keeps
# absurdly long trial steps (which an optimizer rejects anyway) finite;
# the relative eigenvalue floor absorbs the roundoff of the sandwich
# product so the result is strictly positive-definite, never just
# positive-semidefinite to machine precision.
_SPD_EXP_CLAMP = 40.0
_SPD_REL_FLOOR = 1e-15


def _spd_exp_congruence(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``s Exp(x) s`` with the clamped exponent and the eigenvalue floor."""
    expd = _eigh_apply(x, lambda w: np.exp(np.clip(w, -_SPD_EXP_CLAMP, _SPD_EXP_CLAMP)))
    out = s @ expd @ s
    out = 0.5 * (out + out.T)
    w, u = np.linalg.eigh(out)
    floor = max(w[-1], 1.0) * _SPD_REL_FLOOR
    if w[0] < floor:
        out = (u * np.maximum(w, floor)) @ u.T
        out = 0.5 * (out + out.T)
    return out


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
    return _spd_exp_congruence(spd_sqrt(p), s_inv @ xi @ s_inv)


def spd_retract_normalized(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exponential retraction in metric-orthonormal tangent coordinates.

    ``p^{1/2} Exp(z) p^{1/2}``, which equals ``spd_retract(p, p^{1/2} z
    p^{1/2})``.  The Frobenius norm of ``z`` is exactly the affine-invariant
    metric length of the step, so damping and trust bounds expressed on
    ``z`` act in the manifold's own geometry regardless of how
    ill-conditioned ``p`` is.
    """
    z = _require_finite("spd tangent", z)
    if not np.any(z):
        return p
    return _spd_exp_congruence(spd_sqrt(p), z)


def spd_metric(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Affine-invariant inner product ``tr(p^{-1} a p^{-1} b)`` at ``p``.

    Invariant under congruence: ``spd_metric(g p g^T, g a g^T, g b g^T)``
    equals ``spd_metric(p, a, b)`` for any invertible ``g``.  Evaluated via
    linear solves rather than an explicit inverse.
    """
    x = np.linalg.solve(p, a)
    y = np.linalg.solve(p, b)
    return float(np.trace(x @ y))


# ---------------------------------------------------------------------------
# SO(3) / SE(3)


def so3_hat(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector."""
    x, y, z = omega
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation matrix of an axis-angle 3-vector."""
    omega = _require_finite("omega", omega)
    theta = float(np.linalg.norm(omega))
    w = so3_hat(omega)
    w2 = w @ w
    if theta < 1e-8:
        return np.eye(3) + w + 0.5 * w2
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * w + b * w2


def so3_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector of a rotation matrix; stable near pi."""
    r = np.asarray(r, dtype=float)
    tr = np.clip(0.5 * (np.trace(r) - 1.0), -1.0, 1.0)
    theta = float(np.arccos(tr))
    v = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-7:
        return v * (1.0 + theta * theta / 6.0)
    if theta > np.pi - 1e-6:
        # Near pi the antisymmetric part vanishes; recover the axis from the
        # well-conditioned symmetric part: (R + R^T)/2 - I = (cos(theta)-1)(I - aa^T).
        s = 0.5 * (r + r.T)
        aa = np.eye(3) + (s - np.eye(3)) / (1.0 - np.cos(theta))
        a = np.sqrt(np.clip(np.diag(aa), 0.0, None))
        k = int(np.argmax(a))
        for i in range(3):
            if i != k:
                a[i] = aa[k, i] / a[k]
        a /= np.linalg.norm(a)
        if np.dot(a, v) < 0.0:
            a = -a
        return theta * a
    return v * (theta / np.sin(theta))


def _so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    w = so3_hat(omega)
    w2 = w @ w
    if theta < 1e-6:
        return np.eye(3) + 0.5 * w + w2 / 6.0
    t2 = theta * theta
    a = (1.0 - np.cos(theta)) / t2
    b = (theta - np.sin(theta)) / (t2 * theta)
    return np.eye(3) + a * w + b * w2


def _so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    w = so3_hat(omega)
    w2 = w @ w
    if theta < 1e-6:
        return np.eye(3) - 0.5 * w + w2 / 12.0
    t2 = theta * theta
    b = 1.0 / t2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) - 0.5 * w + b * w2


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Project a near-rotation back onto SO(3) via SVD."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


# Largest entry of |R R^T - I| a stepped rotation may reach before it is
# re-orthonormalized.
ROT_DRIFT_TOL = 1e-8


def settle_rotation(state):
    """``state`` (a Pose or RtsState), or a copy of it with its rotation
    re-orthonormalized once that has drifted beyond ``ROT_DRIFT_TOL``."""
    r = state.rotation
    if not np.max(np.abs(r @ r.T - np.eye(3))) > ROT_DRIFT_TOL:
        return state
    return replace(state, rotation=orthonormalize(r))


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion; normalizes the input."""
    q = _require_finite("quaternion", q)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """(w, x, y, z) quaternion of a rotation matrix, with w >= 0."""
    r = np.asarray(r, dtype=float)
    tr = np.trace(r)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    q /= np.linalg.norm(q)
    return q if q[0] >= 0.0 else -q


@dataclass(frozen=True)
class Pose:
    """Rigid transform: ``x_out = rotation @ x_in + translation``.

    Implements the variable protocol of the landmark states
    (``tangent_dim`` / ``retract`` / ``fd_scales`` / ``settled``), so the
    solver steps, differentiates and fixes up poses and landmarks alike.
    As a landmark state caches its ``dual``, a pose caches ``inverse_rt``,
    the camera every camera-landmark factor sees it through.
    """

    rotation: np.ndarray
    translation: np.ndarray

    tangent_dim = 6  # 3 rotation + 3 translation, se(3) order (omega, rho)

    def retract(self, xi: np.ndarray) -> "Pose":
        return pose_retract(self, xi)

    def fd_scales(self) -> np.ndarray:
        return np.concatenate([np.ones(3), 1.0 + np.abs(self.translation)])

    def settled(self) -> "Pose":
        return settle_rotation(self)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    @cached_property
    def inverse_rt(self) -> np.ndarray:
        """[R | t] of the inverse transform as a 3x4 matrix: camera-from-world
        for a world-from-camera pose. Computed once per pose value."""
        inv = self.inverse()
        return np.hstack([inv.rotation, inv.translation[:, None]])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def se3_exp(xi: np.ndarray) -> Pose:
    """Exponential map of se(3); ``xi = (omega, rho)``."""
    xi = _require_finite("xi", xi)
    omega, rho = xi[:3], xi[3:]
    return Pose(so3_exp(omega), _so3_left_jacobian(omega) @ rho)


def se3_log(t: Pose) -> np.ndarray:
    """Logarithm of a pose, inverse of :func:`se3_exp`."""
    omega = so3_log(t.rotation)
    rho = _so3_left_jacobian_inv(omega) @ t.translation
    return np.concatenate([omega, rho])


def pose_retract(t: Pose, xi: np.ndarray) -> Pose:
    """Left-multiplicative pose update ``Exp(xi) * t``."""
    return se3_exp(xi).compose(t)
