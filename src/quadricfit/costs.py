"""Residual functions: box measurement (two models), orientation, shape,
size, supporting plane and pose prior.

Every residual is evaluated through the canonical dual quadric, so its
value does not depend on which landmark parameterization produced the
quadric. Cameras follow the pinhole convention with the camera looking
along +z; image u grows right, v grows down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._kernels import (
    BEHIND_CAMERA,
    CUTS_PRINCIPAL_PLANE,
    NEGATIVE_DISCRIMINANT,
    UNNORMALIZABLE,
    boxes_from_duals,
    conic_boxes,
    project_duals,
    tangency_values,
)
from .manifold import InvalidInputError, Pose, se3_log
from .quadric import dual_shape, rts_from_dual


class BehindCameraError(ValueError):
    """The ellipsoid is not wholly in front of the camera: its center is not
    strictly in front, or it cuts the camera's principal plane."""


class DegenerateProjectionError(ValueError):
    """The projected conic has no real bounding box (negative discriminant)."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise InvalidInputError("principal point outside image")

    @property
    def k(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class CameraFrame:
    """Pinhole camera with a world-from-camera pose."""

    intrinsics: CameraIntrinsics
    pose: Pose
    frame_id: str = ""

    def projection_rt(self) -> np.ndarray:
        """Camera-from-world [R_c | t_c] as a 3x4 matrix."""
        inv = self.pose.inverse()
        return np.hstack([inv.rotation, inv.translation[:, None]])

    def projection_matrix(self) -> np.ndarray:
        """K [R_c | t_c]."""
        return self.intrinsics.k @ self.projection_rt()


@dataclass(frozen=True)
class BoundingBox:
    """Pixel box edges: left/right u, top/bottom v."""

    ul: float
    ur: float
    vu: float
    vd: float

    def __post_init__(self):
        if self.ul > self.ur or self.vu > self.vd:
            raise InvalidInputError("bounding box edges out of order")

    def as_array(self) -> np.ndarray:
        return np.array([self.ul, self.ur, self.vu, self.vd])

    @staticmethod
    def from_array(a) -> "BoundingBox":
        return BoundingBox(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def projection_error(status: int) -> Exception | None:
    """The error a single evaluation raises for a batched row's status."""
    if status == BEHIND_CAMERA:
        return BehindCameraError("ellipsoid center behind camera")
    if status == CUTS_PRINCIPAL_PLANE:
        return BehindCameraError("ellipsoid cuts the camera's principal plane")
    if status == UNNORMALIZABLE:
        return DegenerateProjectionError("projected conic cannot be normalized")
    if status == NEGATIVE_DISCRIMINANT:
        return DegenerateProjectionError("negative discriminant")
    return None


def project_dual(q: np.ndarray, frame: CameraFrame) -> np.ndarray:
    """Dual conic of the projected ellipsoid, normalized so g[2, 2] = 1.

    Raises :class:`BehindCameraError` unless the ellipsoid lies wholly in
    front of the camera.
    """
    rt = frame.projection_rt()
    g, status = project_duals(np.asarray(q, dtype=float)[None], rt[None],
                              (frame.intrinsics.k @ rt)[None])
    if status[0]:
        raise projection_error(status[0])
    return g[0]


def conic_bbox(g: np.ndarray) -> BoundingBox:
    """Closed-form bounding box of a normalized dual conic.

    u edges = g02 -/+ sqrt(g02^2 - g00), v edges analogously; requires the
    g[2, 2] = 1 normalization produced by :func:`project_dual`.
    """
    boxes, ok = conic_boxes(np.asarray(g, dtype=float)[None])
    if not ok[0]:
        raise projection_error(NEGATIVE_DISCRIMINANT)
    return BoundingBox.from_array(boxes[0])


def _backproject(m: np.ndarray, line) -> np.ndarray:
    pi = m.T @ np.asarray(line, dtype=float)
    norm = np.linalg.norm(pi[:3])
    if norm < 1e-15:
        raise InvalidInputError("line backprojects to a degenerate plane")
    return pi / norm


def box_edge_planes(frame: CameraFrame, box: BoundingBox) -> np.ndarray:
    """World planes through the camera center and each box edge, one per row
    (ul, ur, vu, vd): ``pi = (K [R_c|t_c])^T l``, unit-normalized, for the
    lines ``[1, 0, -u]`` (vertical) and ``[0, 1, -v]`` (horizontal)."""
    m = frame.projection_matrix()
    lines = [
        np.array([1.0, 0.0, -box.ul]),
        np.array([1.0, 0.0, -box.ur]),
        np.array([0.0, 1.0, -box.vu]),
        np.array([0.0, 1.0, -box.vd]),
    ]
    return np.array([_backproject(m, l) for l in lines])


def residual_box_inverse(frame: CameraFrame, q: np.ndarray, observed: BoundingBox) -> np.ndarray:
    """Predicted box minus observed box (4 components, px)."""
    intr = frame.intrinsics
    boxes, status = boxes_from_duals(intr.fx, intr.fy, intr.cx, intr.cy, frame.projection_rt(),
                                     np.asarray(q, dtype=float)[None])
    if status[0]:
        raise projection_error(status[0])
    return boxes[0] - observed.as_array()


def residual_box_semi(frame: CameraFrame, q: np.ndarray, observed: BoundingBox) -> np.ndarray:
    """Tangency defect of each observed edge plane (4 components).

    With a unit-normal plane and the canonical quadric scale the defect is
    ``reach^2 - dist^2`` (m^2): the squared support reach of the ellipsoid
    along the plane normal minus the squared center-to-plane distance, so
    it is zero exactly at tangency and grows with landmark size, which
    anchors the otherwise scale-free tangency condition. Stacked per edge
    rather than summed so a per-edge covariance stays meaningful; the
    minimizer is the same under isotropic covariance.
    """
    return tangency_values(box_edge_planes(frame, observed), np.asarray(q, dtype=float)[None])[0][0]


def unit_direction(m) -> np.ndarray:
    """Orientation-prior direction scaled to unit length; must be nonzero."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    if norm < 1e-12:
        raise InvalidInputError("orientation direction must be nonzero")
    return m / norm


def orientation_residuals(rotations: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched :func:`residual_orientation`: rotations (n, 3, 3), unit ``m``; (n, 9)."""
    out = np.empty((len(rotations), 9))
    for i in range(3):
        axis = rotations[:, :, i]
        out[:, 3 * i : 3 * i + 3] = np.cross(axis, m) * np.vecdot(axis, m)[:, None]
    return out


def residual_orientation(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Alignment defect of each landmark axis against direction ``m``.

    For axis column n: ``(n x m) * (n . m)``, which vanishes when the axis
    is parallel or perpendicular to ``m``; stacking all three axes gives a
    9-vector that is zero exactly when ``m`` points along one axis (in
    either direction). Independent of the axis labeling returned by the
    underlying decomposition.
    """
    m = unit_direction(m)
    return orientation_residuals(rts_from_dual(q).rotation[None], m)[0]


def shape_residuals(scales: np.ndarray, prior) -> np.ndarray:
    """Batched :func:`residual_shape` on descending semi-axes (n, 3); (n, 2)."""
    a, b, c = (float(x) for x in prior)
    if not (a >= b >= c > 0.0):
        raise InvalidInputError("shape prior must satisfy a >= b >= c > 0")
    return np.stack([scales[:, 0] / scales[:, 2] - a / c,
                     scales[:, 1] / scales[:, 2] - b / c], axis=1)


def residual_shape(q: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Axis-ratio defect [s1/s3 - a/c, s2/s3 - b/c]; prior sorted a >= b >= c."""
    return shape_residuals(rts_from_dual(q).scale[None], prior)[0]


def size_residuals(qs: np.ndarray, scales: np.ndarray, prior, form: str = "sqrt") -> np.ndarray:
    """Batched :func:`residual_size` on duals (n, 4, 4) and their semi-axes (n, 3)."""
    a, b, c = (float(x) for x in prior)
    if form == "sqrt":
        return scales[:, 0] * scales[:, 1] * scales[:, 2] - a * b * c
    if form == "det":
        return np.linalg.det(dual_shape(qs)) - a * b * c
    raise InvalidInputError(f"unknown size residual form: {form!r}")


def residual_size(q: np.ndarray, prior: np.ndarray, form: str = "sqrt") -> float:
    """Volume-scale defect against the prior product a*b*c.

    form='sqrt' (default) compares the semi-axis product s1*s2*s3, which has
    the same units as a*b*c. form='det' compares the raw shape-block
    determinant (s1*s2*s3)^2 instead, kept selectable for A/B comparison.
    """
    s = rts_from_dual(q).scale
    return float(size_residuals(np.asarray(q, dtype=float)[None], s[None], prior, form)[0])


def support_residuals(qs: np.ndarray, plane) -> np.ndarray:
    """Batched :func:`residual_support` on duals (n, 4, 4); (n,)."""
    plane = np.asarray(plane, dtype=float)
    n = np.linalg.norm(plane[:3])
    if abs(n - 1.0) > 1e-9:
        plane = plane / n
    return np.vecdot(plane @ qs, plane)


def residual_support(q: np.ndarray, plane: np.ndarray) -> float:
    """Tangency defect of a supporting plane (unit normal), zero when tangent.

    Same ``reach^2 - dist^2`` form as the semi-inverse box residual.
    """
    return float(support_residuals(np.asarray(q, dtype=float)[None], plane)[0])


def residual_pose_prior(x: Pose, observed: Pose) -> np.ndarray:
    """se(3) error ``Log(x observed^{-1})``; zero iff the poses match.

    The right-difference order pairs with the left-multiplicative pose
    retraction: an offset ``x = Exp(xi) observed`` maps back to exactly
    ``xi``, and the tangent Jacobian at the prior is the identity.
    """
    return se3_log(x.compose(observed.inverse()))


# ---------------------------------------------------------------------------
# Factors

FACTOR_KINDS = (
    "box-inverse",
    "box-semi",
    "orientation",
    "shape",
    "size",
    "support",
    "pose-prior",
)

RESIDUAL_DIMS = {
    "box-inverse": 4,
    "box-semi": 4,
    "orientation": 9,
    "shape": 2,
    "size": 1,
    "support": 1,
    "pose-prior": 6,
}

# Per-component variances by factor kind (configurable per factor).
DEFAULT_VARIANCES = {
    "box-inverse": 5.0**2,
    "box-semi": 5.0**2,
    "orientation": 0.1**2,
    "shape": 0.5**2,
    "size": 0.2**2,
    "support": 0.05**2,
    "pose-prior": 0.01**2,
}


@dataclass(frozen=True)
class Factor:
    """One residual term: kind, target variable ids, observation, covariance."""

    fid: int
    kind: str
    targets: tuple
    payload: Any
    variance: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise InvalidInputError(f"unknown factor kind: {self.kind!r}")
        dim = RESIDUAL_DIMS[self.kind]
        var = self.variance
        if var is None:
            var = np.full(dim, DEFAULT_VARIANCES[self.kind])
        else:
            var = np.broadcast_to(np.asarray(var, dtype=float), (dim,)).copy()
        if np.any(var <= 0.0):
            raise InvalidInputError("covariance entries must be positive")
        object.__setattr__(self, "variance", var)

    @property
    def dim(self) -> int:
        return RESIDUAL_DIMS[self.kind]
