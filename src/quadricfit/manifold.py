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
* The retractions and the maps they are made of (``so3_exp``, the SO(3)
  Jacobians, ``so3_log``, ``se3_exp``, ``se3_log``, ``pose_retract``,
  ``vec6_to_sym``, ``spd_retract_normalized``, and a :class:`Pose`'s
  ``compose``, ``inverse`` and ``inverse_rt``) take one argument or a
  stack of them along leading axes, and give each row the bits its single
  call gives: the single call is the stack of one. Small angles take
  their series per row, through a mask, and matrix-vector products are
  ``@`` with a trailing axis (:func:`_apply`).
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
_EYE3 = np.eye(3)


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


def vec6_to_sym(v: np.ndarray) -> np.ndarray:
    """The symmetric 3x3 matrix of 6 coordinates, diagonal then scaled
    off-diagonal; (..., 6) to (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    o01, o02, o12 = v[..., 3] / _SQRT2, v[..., 4] / _SQRT2, v[..., 5] / _SQRT2
    rows = (v[..., 0], o01, o02, o01, v[..., 1], o12, o02, o12, v[..., 2])
    return np.stack(rows, axis=-1).reshape(v.shape[:-1] + (3, 3))


def _mt(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each in a stack."""
    return np.swapaxes(a, -1, -2)


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` per row for matrices (..., i, j) and vectors (..., j).

    Through ``@`` with a trailing axis, which gives each row the bits of
    its own ``m @ x``; ``np.einsum`` does not.
    """
    return (m @ x[..., None])[..., 0]


def _eigh_apply(p: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a symmetric matrix,
    or of each in a stack."""
    w, u = np.linalg.eigh(0.5 * (p + _mt(p)))
    out = (u * fn(w)[..., None, :]) @ _mt(u)
    return 0.5 * (out + _mt(out))


def spd_sqrt(p: np.ndarray) -> np.ndarray:
    """Unique SPD square root, ``spd_sqrt(p) @ spd_sqrt(p) = p``.

    The result does not depend on the particular eigendecomposition chosen.
    """
    p = _require_finite("spd_sqrt input", p)
    return _eigh_apply(p, np.sqrt)


# Numerical guards for the SPD retraction. The exponent clamp keeps
# absurdly long trial steps (which an optimizer rejects anyway) finite;
# the relative eigenvalue floor absorbs the roundoff of the sandwich
# product so the result is strictly positive-definite, never just
# positive-semidefinite to machine precision.
_SPD_EXP_CLAMP = 40.0
_SPD_REL_FLOOR = 1e-15


def _spd_exp_congruence(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``s Exp(x) s`` for a stack of steps ``x`` (n, 3, 3), with the
    clamped exponent and, on the rows that need it, the eigenvalue floor."""
    expd = _eigh_apply(x, lambda w: np.exp(np.clip(w, -_SPD_EXP_CLAMP, _SPD_EXP_CLAMP)))
    out = s @ expd @ s
    out = 0.5 * (out + _mt(out))
    w, u = np.linalg.eigh(out)
    floor = np.maximum(w[:, -1], 1.0) * _SPD_REL_FLOOR
    low = w[:, 0] < floor
    if low.any():
        u = u[low]
        lifted = (u * np.maximum(w[low], floor[low, None])[:, None, :]) @ _mt(u)
        out[low] = 0.5 * (lifted + _mt(lifted))
    return out


def spd_retract_normalized(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exponential retraction in metric-orthonormal tangent coordinates.

    ``p^{1/2} Exp(z) p^{1/2}``: the exponential retraction
    ``p^{1/2} Exp(p^{-1/2} xi p^{-1/2}) p^{1/2}`` of the step
    ``xi = p^{1/2} z p^{1/2}``.  The Frobenius norm of ``z`` is exactly the
    affine-invariant metric length of the step, so damping and trust bounds
    expressed on ``z`` act in the manifold's own geometry regardless of how
    ill-conditioned ``p`` is.

    ``z`` is one step (3, 3) or a stack of them (..., 3, 3), and ``p`` one
    base, whose ``p^{1/2}`` serves every step, or a base per step; a row
    whose step is zero is its base unchanged.
    """
    z = _require_finite("spd tangent", z)
    p = np.asarray(p, dtype=float)
    steps = z.reshape(-1, 3, 3)
    moved = steps.any(axis=(1, 2))
    out = np.broadcast_to(p, z.shape).reshape(-1, 3, 3).copy()
    if moved.any():
        s = spd_sqrt(p)
        out[moved] = _spd_exp_congruence(s if s.ndim == 2 else s.reshape(-1, 3, 3)[moved],
                                         steps[moved])
    return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# SO(3) / SE(3)


def so3_hat(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector; (..., 3) to (..., 3, 3)."""
    omega = np.asarray(omega, dtype=float)
    x, y, z = omega[..., 0], omega[..., 1], omega[..., 2]
    w = np.zeros(omega.shape + (3,))
    w[..., 0, 1], w[..., 0, 2], w[..., 1, 2] = -z, y, -x
    w[..., 1, 0], w[..., 2, 0], w[..., 2, 1] = z, -y, x
    return w


def _so3_series(omega: np.ndarray, small_below: float, small, general) -> np.ndarray:
    """``I + a w + b w^2`` for ``w = hat(omega)`` over (..., 3) vectors.

    ``general(theta)`` gives (a, b) at a rotation angle theta; a row whose
    angle is below ``small_below`` takes ``small(w, w2)`` instead.
    """
    theta = np.sqrt(np.vecdot(omega, omega))[..., None, None]
    w = so3_hat(omega)
    w2 = w @ w
    tiny = theta < small_below
    if tiny.all():
        return small(w, w2)
    a, b = general(np.where(tiny, 1.0, theta))
    out = _EYE3 + a * w + b * w2
    return np.where(tiny, small(w, w2), out) if tiny.any() else out


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation matrix of an axis-angle 3-vector, or of
    each in a stack (..., 3)."""
    return _so3_series(
        _require_finite("omega", omega), 1e-8,
        lambda w, w2: _EYE3 + w + 0.5 * w2,
        lambda t: (np.sin(t) / t, (1.0 - np.cos(t)) / (t * t)))


def _so3_log_near_pi(r: np.ndarray, theta: float, v: np.ndarray) -> np.ndarray:
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


def so3_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector of a rotation matrix, or of each in a stack
    (..., 3, 3); stable near pi, where a row takes its own formula."""
    r = np.asarray(r, dtype=float)
    rows = r.reshape(-1, 3, 3)
    trace = rows[:, 0, 0] + rows[:, 1, 1] + rows[:, 2, 2]  # np.trace's order
    theta = np.arccos(np.minimum(np.maximum(0.5 * (trace - 1.0), -1.0), 1.0))
    v = 0.5 * np.stack([rows[:, 2, 1] - rows[:, 1, 2], rows[:, 0, 2] - rows[:, 2, 0],
                        rows[:, 1, 0] - rows[:, 0, 1]], axis=1)
    tiny = theta < 1e-7
    near_pi = theta > np.pi - 1e-6
    factor = np.where(tiny, 1.0 + theta * theta / 6.0,
                      theta / np.sin(np.where(tiny | near_pi, 1.0, theta)))
    out = v * factor[:, None]
    for i in np.flatnonzero(near_pi):
        out[i] = _so3_log_near_pi(rows[i], float(theta[i]), v[i])
    return out.reshape(r.shape[:-1])


def _so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    return _so3_series(
        omega, 1e-6, lambda w, w2: _EYE3 + 0.5 * w + w2 / 6.0,
        lambda t: ((1.0 - np.cos(t)) / (t * t), (t - np.sin(t)) / (t * t * t)))


def _so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    return _so3_series(
        omega, 1e-6, lambda w, w2: _EYE3 - 0.5 * w + w2 / 12.0,
        lambda t: (-0.5, 1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))))


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

    A Pose may also hold a stack of n poses, rotations (n, 3, 3) and
    translations (n, 3): ``retract`` with steps (n, 6) gives one, from one
    pose or from a stack of n, and ``fd_scales``, ``compose``, ``inverse``,
    ``inverse_rt`` and ``matrix`` work row by row on it.
    """

    rotation: np.ndarray
    translation: np.ndarray

    tangent_dim = 6  # 3 rotation + 3 translation, se(3) order (omega, rho)

    def retract(self, xi: np.ndarray) -> "Pose":
        return pose_retract(self, xi)

    def fd_scales(self) -> np.ndarray:
        return np.concatenate([np.ones_like(self.translation), 1.0 + np.abs(self.translation)],
                              axis=-1)

    def settled(self) -> "Pose":
        return settle_rotation(self)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            _apply(self.rotation, other.translation) + self.translation,
        )

    def inverse(self) -> "Pose":
        rt = _mt(self.rotation)
        return Pose(rt, _apply(-rt, self.translation))

    @cached_property
    def inverse_rt(self) -> np.ndarray:
        """[R | t] of the inverse transform as a 3x4 matrix, (n, 3, 4) for a
        stack: camera-from-world for a world-from-camera pose. Computed once
        per pose value."""
        inv = self.inverse()
        return np.concatenate([inv.rotation, inv.translation[..., None]], axis=-1)

    def matrix(self) -> np.ndarray:
        m = np.zeros(np.shape(self.translation)[:-1] + (4, 4))
        m[..., :3, :3] = self.rotation
        m[..., :3, 3] = self.translation
        m[..., 3, 3] = 1.0
        return m


def se3_exp(xi: np.ndarray) -> Pose:
    """Exponential map of se(3); ``xi = (omega, rho)``, or a stack (n, 6)."""
    xi = _require_finite("xi", xi)
    omega, rho = xi[..., :3], xi[..., 3:]
    return Pose(so3_exp(omega), _apply(_so3_left_jacobian(omega), rho))


def se3_log(t: Pose) -> np.ndarray:
    """Logarithm of a pose, inverse of :func:`se3_exp`; (n, 6) for a stack."""
    omega = so3_log(t.rotation)
    rho = _apply(_so3_left_jacobian_inv(omega), t.translation)
    return np.concatenate([omega, rho], axis=-1)


def pose_retract(t: Pose, xi: np.ndarray) -> Pose:
    """Left-multiplicative pose update ``Exp(xi) * t``; a stack of steps
    (n, 6) gives the stack of updated poses."""
    return se3_exp(xi).compose(t)
