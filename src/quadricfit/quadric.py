"""Dual-quadric ellipsoids and the three landmark parameterizations.

Canonical dual form
-------------------
A landmark is exchanged between parameterizations as a normalized 4x4
symmetric dual quadric ``q = T diag(s1^2, s2^2, s3^2, -1) T^T`` with ``T``
the homogeneous pose matrix, rescaled so ``q[3, 3] = -1``.  Under this
convention the ellipsoid center is ``c = -q[:3, 3]`` and the SPD shape
matrix (rotated, squared semi-axes) is ``P = q[:3, :3] + c c^T``.  Tangent
planes ``pi`` of the ellipsoid satisfy ``pi^T q pi = 0``.

Parameterizations
-----------------
* ``RtsState``   -- rotation + translation + semi-axis lengths (9 tangent dims)
* ``SpdState``   -- SPD(3) shape matrix + translation (9 tangent dims),
  free of the axis-relabeling ambiguity of ``RtsState``
* ``FullState``  -- raw 10 coefficients of the dual matrix; its ``settled``
  fixup re-projects onto valid ellipsoids after every accepted step

All states implement ``tangent_dim`` / ``retract`` / ``fd_scales`` /
``settled``, the protocol through which :mod:`quadricfit.solver` steps and
differentiates every variable and fixes it up after an accepted step;
camera poses (:class:`quadricfit.manifold.Pose`) implement it too.
Landmark states add ``dual``, the quadric every landmark factor is
evaluated on. ``retract`` is batched: steps (n, tangent_dim), from one
state or from a state holding n values along a leading axis of each field,
give a state holding n values, whose ``dual`` is the stack (n, 4, 4) and
whose ``fd_scales`` are (n, tangent_dim), each row with the bits of its
own single call, which is the batch of one. So the solver steps all the
landmarks of a parameterization, and makes all their finite-difference
variants, in one numpy pass each. :data:`PARAMETERIZATIONS` holds the
classes' tags, which :func:`as_parameterization` and
:func:`parameterization_tag` map to states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .manifold import (
    SPD_EIG_TOL,
    InvalidInputError,
    Pose,
    as_spd,
    pose_retract,
    settle_rotation,
    so3_exp,
    spd_retract_normalized,
    vec6_to_sym,
)

# Floor applied to shape eigenvalues when re-projecting a raw coefficient
# vector onto valid ellipsoids (m^2).
SHAPE_EIG_FLOOR = 1e-6


class DegenerateLandmarkError(ValueError):
    """The quadric does not describe a nondegenerate ellipsoid."""


def normalize_dual(q: np.ndarray) -> np.ndarray:
    """Rescale a dual quadric to the canonical ``q[3, 3] = -1`` representative,
    or each of a stack (n, 4, 4); raises if any has a vanishing corner."""
    q = np.asarray(q, dtype=float)
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    corner = q[..., 3, 3]
    if np.any(np.abs(corner) < 1e-12 * np.fmax(1.0, np.max(np.abs(q), axis=(-2, -1)))):
        raise DegenerateLandmarkError("dual quadric has vanishing homogeneous corner")
    return q / -corner[..., None, None]


def dual_center(q: np.ndarray) -> np.ndarray:
    """Ellipsoid center of a normalized dual quadric, or of each in a stack."""
    return -q[..., :3, 3]


def dual_shape(q: np.ndarray) -> np.ndarray:
    """Shape block ``P = q[:3, :3] + c c^T`` of a normalized dual quadric.

    Also takes a stack (n, 4, 4) and returns (n, 3, 3). Returns the
    symmetric matrix without checking positive-definiteness.
    """
    c = dual_center(q)
    p = q[..., :3, :3] + c[..., :, None] * c[..., None, :]
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def dual_from_rts(state: "RtsState") -> np.ndarray:
    """Compose the canonical dual quadric of a rotation/translation/scale
    state, (n, 4, 4) for a stack."""
    s = np.asarray(state.scale, dtype=float)
    if np.any(np.abs(s) < 1e-8):
        raise DegenerateLandmarkError("semi-axis length is (near) zero")
    t = Pose(state.rotation, state.translation).matrix()
    core = np.zeros(t.shape)
    core[..., [0, 1, 2], [0, 1, 2]] = s * s
    core[..., 3, 3] = -1.0
    return normalize_dual(t @ core @ np.swapaxes(t, -1, -2))


def dual_from_spd(state: "SpdState") -> np.ndarray:
    """Compose the canonical dual quadric of an SPD-shape + translation
    state, (n, 4, 4) for a stack."""
    c = np.asarray(state.translation, dtype=float)
    q = np.empty(c.shape[:-1] + (4, 4))
    q[..., :3, :3] = state.shape - c[..., :, None] * c[..., None, :]
    q[..., :3, 3] = -c
    q[..., 3, :3] = -c
    q[..., 3, 3] = -1.0
    return 0.5 * (q + np.swapaxes(q, -1, -2))


def spd_from_dual(q: np.ndarray) -> "SpdState":
    """Extract the SPD parameterization; exact inverse of :func:`dual_from_spd`."""
    p = dual_shape(q)
    try:
        p = as_spd(p)
    except InvalidInputError as exc:
        raise DegenerateLandmarkError(f"shape block is not SPD: {exc}") from exc
    return SpdState(p, dual_center(q))


def rts_from_duals(qs: np.ndarray):
    """Batched rotation/scale decomposition of a stack of duals (n, 4, 4).

    Returns (rotations (n, 3, 3), scales (n, 3), ok (n,)): per row the
    proper rotation and descending semi-axes of :func:`rts_from_dual`, one
    eigendecomposition for the whole stack. A row is not ok when its shape
    block is not positive definite; its rotation and scales are then
    placeholders.
    """
    w, u = np.linalg.eigh(dual_shape(qs))
    # A NaN shape makes eigh raise LinAlgError, before this test, unless
    # the NaN stays on the diagonal; such a NaN eigenvalue passes (not <=)
    # and gives NaN residuals. solver.Problem rejects NaN variables first.
    ok = ~(w[:, 0] <= SPD_EIG_TOL)
    # eigh is ascending; semi-axes are reported descending
    w = w[:, ::-1]
    r = u[:, :, ::-1].copy()
    left = np.linalg.det(r) < 0.0
    r[left, :, 2] = -r[left, :, 2]
    return r, np.sqrt(np.where(ok[:, None], w, 1.0)), ok


def rts_from_dual(q: np.ndarray) -> "RtsState":
    """Decompose into rotation/translation/scale with ``s1 >= s2 >= s3``.

    The rotation is proper (``det = +1``); the third column is flipped when
    the eigenvector basis comes out left-handed.
    """
    q = np.asarray(q, dtype=float)
    r, s, ok = rts_from_duals(q[None])
    if not ok[0]:
        raise DegenerateLandmarkError("shape block is not positive definite")
    return RtsState(r[0], dual_center(q), s[0])


# ---------------------------------------------------------------------------
# Landmark states


@dataclass(frozen=True)
class RtsState:
    """Rotation (3x3), translation (m), semi-axis lengths (m).

    Scales are positive for a physically meaningful landmark; intermediate
    solver iterates may wander (the quadric only depends on ``scale**2``),
    and conversions from a dual quadric always return positive sorted scales.
    """

    rotation: np.ndarray
    translation: np.ndarray
    scale: np.ndarray

    tangent_dim = 9  # 3 rotation + 3 translation + 3 scale

    def retract(self, delta: np.ndarray) -> "RtsState":
        delta = np.asarray(delta, dtype=float)
        return RtsState(
            so3_exp(delta[..., :3]) @ self.rotation,
            self.translation + delta[..., 3:6],
            self.scale + delta[..., 6:9],
        )

    def fd_scales(self) -> np.ndarray:
        t = np.asarray(self.translation, dtype=float)
        return np.concatenate([np.ones_like(t), 1.0 + np.abs(t), 1.0 + np.abs(self.scale)], axis=-1)

    def settled(self) -> "RtsState":
        return settle_rotation(self)

    @cached_property
    def dual(self) -> np.ndarray:
        return dual_from_rts(self)


@dataclass(frozen=True)
class SpdState:
    """SPD(3) shape matrix (m^2) plus translation (m); singularity-free.

    The first six tangent coordinates are orthonormal under the
    affine-invariant metric at the current shape (``xi = P^{1/2} Z
    P^{1/2}`` with ``Z`` in vec6 coordinates), so a unit coordinate step
    always moves the shape by one metric unit -- roughly, one e-fold of an
    eigenvalue -- however stretched the current shape is. The last three
    coordinates translate the center.
    """

    shape: np.ndarray
    translation: np.ndarray

    tangent_dim = 9  # 6 shape (metric-orthonormal) + 3 translation

    def retract(self, delta: np.ndarray) -> "SpdState":
        delta = np.asarray(delta, dtype=float)
        return SpdState(
            spd_retract_normalized(self.shape, vec6_to_sym(delta[..., :6])),
            self.translation + delta[..., 6:9],
        )

    def fd_scales(self) -> np.ndarray:
        t = np.asarray(self.translation, dtype=float)
        return np.concatenate([np.ones(t.shape[:-1] + (6,)), 1.0 + np.abs(t)], axis=-1)

    def settled(self) -> "SpdState":
        return self  # every retraction stays on SPD(3)

    @cached_property
    def dual(self) -> np.ndarray:
        return dual_from_spd(self)


@dataclass(frozen=True)
class FullState:
    """Raw dual-quadric coefficient vector ``(A..J)``.

    Coefficient order follows the symmetric matrix layout
    ``[[A, D, F, G], [D, B, E, H], [F, E, C, I], [G, H, I, J]]``.
    The retraction is plain vector addition; nothing at rest keeps the
    coefficients on the ellipsoid set. ``settled`` re-projects an accepted
    iterate through :func:`regularize_full`; when the projection undoes
    part of a step's cost decrease, that is the known fragility of this
    baseline parameterization.
    """

    v: np.ndarray

    tangent_dim = 10

    def retract(self, delta: np.ndarray) -> "FullState":
        return FullState(np.asarray(self.v, dtype=float) + delta)

    def fd_scales(self) -> np.ndarray:
        return 1.0 + np.abs(np.asarray(self.v, dtype=float))

    def settled(self) -> "FullState":
        """:func:`regularize_full` of itself, or itself when degenerate."""
        try:
            return regularize_full(self)
        except DegenerateLandmarkError:
            return self

    @cached_property
    def dual(self) -> np.ndarray:
        return normalize_dual(coeffs_to_sym4(self.v))


LandmarkState = RtsState | SpdState | FullState


# Coefficient index of each entry of the symmetric 4x4 matrix.
_SYM4_LAYOUT = np.array([[0, 3, 5, 6], [3, 1, 4, 7], [5, 4, 2, 8], [6, 7, 8, 9]])


def coeffs_to_sym4(v: np.ndarray) -> np.ndarray:
    """Assemble the symmetric 4x4 matrix from a 10-coefficient vector, or
    each from a stack (n, 10)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (10,):
        raise InvalidInputError(f"expected 10 coefficients, got shape {v.shape}")
    return np.take(v, _SYM4_LAYOUT, axis=-1)


def sym4_to_coeffs(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`coeffs_to_sym4`."""
    return np.array(
        [
            m[0, 0], m[1, 1], m[2, 2],
            m[0, 1], m[1, 2], m[0, 2],
            m[0, 3], m[1, 3], m[2, 3],
            m[3, 3],
        ]
    )


def full_from_dual(q: np.ndarray) -> FullState:
    return FullState(sym4_to_coeffs(normalize_dual(q)))


# Parameterization tag -> state class and its conversion from a dual quadric.
_PARAMETERIZATIONS = {"full": (FullState, full_from_dual), "rts": (RtsState, rts_from_dual),
                      "spd": (SpdState, spd_from_dual)}
PARAMETERIZATIONS = tuple(_PARAMETERIZATIONS)


def parameterization_tag(state: LandmarkState) -> str:
    return next(tag for tag, (cls, _) in _PARAMETERIZATIONS.items() if isinstance(state, cls))


def as_parameterization(state: LandmarkState, tag: str) -> LandmarkState:
    """``state`` in parameterization ``tag``, converted through its dual if need be."""
    if tag not in _PARAMETERIZATIONS:
        raise ValueError(f"unknown parameterization {tag!r}")
    cls, from_dual = _PARAMETERIZATIONS[tag]
    return state if isinstance(state, cls) else from_dual(state.dual)


def regularize_full(state: FullState) -> FullState:
    """Project a raw coefficient vector back onto valid ellipsoids.

    Normalizes the projective scale, clamps the shape-block eigenvalues to
    at least ``SHAPE_EIG_FLOOR`` and re-serializes.  Idempotent on already
    valid ellipsoids.
    """
    v = np.asarray(state.v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("coefficients contain non-finite entries")
    if np.all(v == 0.0):
        raise DegenerateLandmarkError("all-zero quadric coefficients")
    q = normalize_dual(coeffs_to_sym4(v))
    c = dual_center(q)
    w, u = np.linalg.eigh(dual_shape(q))
    p = (u * np.maximum(w, SHAPE_EIG_FLOOR)) @ u.T
    return full_from_dual(dual_from_spd(SpdState(0.5 * (p + p.T), c)))


def rts_perturb(state: RtsState, xi: np.ndarray, ds: np.ndarray) -> RtsState:
    """Perturb pose by ``Exp(xi)`` on the left and semi-axes additively."""
    pose = pose_retract(Pose(state.rotation, state.translation), xi)
    return RtsState(pose.rotation, pose.translation, np.asarray(state.scale) + ds)


def proper_axis_permutations() -> list[np.ndarray]:
    """The 24 signed permutation matrices with determinant +1.

    These are the axis relabelings under which a rotation + scale pair
    describes the same ellipsoid (the parameterization's symmetry group).
    """
    mats = []
    for perm in permutations(range(3)):
        for signs in np.ndindex(2, 2, 2):
            m = np.zeros((3, 3))
            for col, row in enumerate(perm):
                m[row, col] = -1.0 if signs[col] else 1.0
            if np.linalg.det(m) > 0.5:
                mats.append(m)
    return mats
