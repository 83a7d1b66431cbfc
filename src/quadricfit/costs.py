"""Factor kinds and their residuals: box measurement (two models),
orientation, shape, size, supporting plane and pose prior.

Each factor kind is defined once, in :data:`FACTOR_KINDS`: its residual
dimension, its default variance, its batched row functions, its payload
check and packing, and the roles of its targets. :func:`box_factor_kind`
names the box kind of each measurement model in :data:`MODELS`. The
solver evaluates all the factors of a kind in one call through the table,
on rows gathered from its targets' stacked values with each row's packed
payload, and so does :func:`quadricfit.solver.factor_residual` for a
single factor; there is no second, one-factor implementation of any
residual, and a payload is checked once, when its :class:`Factor` is
built.

Every residual is evaluated through the canonical dual quadric, so its
value does not depend on which landmark parameterization produced the
quadric. Both box models see a landmark through the same camera per row:
the camera-from-world [R|t] cached on the pose value
(:attr:`quadricfit.manifold.Pose.inverse_rt`) and the factor's intrinsics.
Cameras follow the pinhole convention with the camera looking along +z;
image u grows right, v grows down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import _kernels
from ._kernels import (
    BEHIND_CAMERA,
    CUTS_PRINCIPAL_PLANE,
    NEGATIVE_DISCRIMINANT,
    UNNORMALIZABLE,
    camera_matrices,
    conic_boxes,
    project_duals,
)
from .manifold import InvalidInputError, Pose, finite_numbers, se3_log
from .quadric import DegenerateLandmarkError, dual_shape


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
        if not (np.isfinite(self.fx) and np.isfinite(self.fy)):
            raise InvalidInputError("focal lengths must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise InvalidInputError("principal point outside image")

    @property
    def k(self) -> np.ndarray:
        """K (3, 3), the first three columns of the camera matrix K [I|0]."""
        return camera_matrices(self.fx, self.fy, self.cx, self.cy, np.eye(3, 4)[None])[0, :, :3]


@dataclass(frozen=True)
class CameraFrame:
    """Pinhole camera with a world-from-camera pose."""

    intrinsics: CameraIntrinsics
    pose: Pose
    frame_id: str = ""

    def projection_rt(self) -> np.ndarray:
        """Camera-from-world [R_c | t_c] as a 3x4 matrix, cached on the pose."""
        return self.pose.inverse_rt


@dataclass(frozen=True)
class BoundingBox:
    """Pixel box edges: left/right u, top/bottom v."""

    ul: float
    ur: float
    vu: float
    vd: float

    def __post_init__(self):
        if not np.isfinite([self.ul, self.ur, self.vu, self.vd]).all():
            raise InvalidInputError("bounding box edges must be finite")
        if self.ul > self.ur or self.vu > self.vd:
            raise InvalidInputError("bounding box edges out of order")

    def as_array(self) -> np.ndarray:
        return np.array([self.ul, self.ur, self.vu, self.vd])

    @staticmethod
    def from_array(a) -> "BoundingBox":
        return BoundingBox(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


# Why a prior's row is not evaluable, beside the kernels' projection
# statuses: the landmark's shape block is not positive definite.
NOT_DECOMPOSABLE = 5


def evaluation_error(status: int) -> Exception | None:
    """The error a single evaluation raises for a batched row's status."""
    if status == NOT_DECOMPOSABLE:
        return DegenerateLandmarkError("shape block is not positive definite")
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
    i = frame.intrinsics
    g, status = project_duals(np.asarray(q, dtype=float)[None],
                              camera_matrices(i.fx, i.fy, i.cx, i.cy, frame.projection_rt()[None]))
    if status[0]:
        raise evaluation_error(status[0])
    return g[0]


def conic_bbox(g: np.ndarray) -> BoundingBox:
    """Closed-form bounding box of a normalized dual conic.

    u edges = g02 -/+ sqrt(g02^2 - g00), v edges analogously; requires the
    g[2, 2] = 1 normalization produced by :func:`project_dual`.
    """
    boxes, ok = conic_boxes(np.asarray(g, dtype=float)[None])
    if not ok[0]:
        raise evaluation_error(NEGATIVE_DISCRIMINANT)
    return BoundingBox.from_array(boxes[0])


def box_edge_planes(intrinsics, rt, boxes) -> np.ndarray:
    """World planes through each row's camera center and each edge of its
    box, (n, 4, 4) in edge order (ul, ur, vu, vd).

    ``intrinsics`` (n, 4) holds each row's fx, fy, cx, cy, ``rt`` (n, 3, 4)
    its camera-from-world [R|t] and ``boxes`` (n, 4) its box. A plane is
    ``pi = M^T l`` with ``M = K [R|t]``: ``M_0 - u M_2`` for the vertical
    line ``[1, 0, -u]`` and ``M_1 - v M_2`` for the horizontal line
    ``[0, 1, -v]``, unit-normalized. Its normal has the norm of ``K^T l``,
    at least fx > 0, so it always normalizes.
    """
    boxes = np.asarray(boxes, dtype=float)
    m = camera_matrices(*np.asarray(intrinsics, dtype=float).T, rt)
    planes = m[:, [0, 0, 1, 1]] - boxes[:, :, None] * m[:, 2:]
    return planes / np.sqrt(np.vecdot(planes[..., :3], planes[..., :3]))[..., None]


def _evaluable(rows: np.ndarray):
    """Rows with the status of rows that are always evaluable."""
    return rows, np.zeros(len(rows), dtype=int)


def box_inverse_rows(duals, rt, intrinsics, observed):
    """Predicted box minus observed box (4 components, px), a row per camera:
    ``rt`` (n, 3, 4) holds each row's camera-from-world [R|t],
    ``intrinsics`` (n, 4) its fx, fy, cx, cy and ``observed`` (n, 4) its
    box; statuses as :func:`~quadricfit._kernels.boxes_from_duals` gives
    them."""
    boxes, status = _kernels.boxes_from_duals(*intrinsics.T, rt, duals)
    return boxes - observed, status


def box_semi_rows(duals, planes):
    """Tangency defect of each observed edge plane (4 components), a row
    per camera: ``planes`` (n, 4, 4) holds each row's edge planes, as
    :func:`box_edge_planes` builds them.

    With a unit-normal plane and the canonical quadric scale the defect is
    ``reach^2 - dist^2`` (m^2): the squared support reach of the ellipsoid
    along the plane normal minus the squared center-to-plane distance, so
    it is zero exactly at tangency and grows with landmark size, which
    anchors the otherwise scale-free tangency condition. Stacked per edge
    rather than summed so a per-edge covariance stays meaningful; the
    minimizer is the same under isotropic covariance. Always evaluable.
    """
    return _evaluable(_kernels.tangency_values(planes, duals))


def unit_direction(m) -> np.ndarray:
    """Orientation-prior direction scaled to unit length; must be nonzero."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    if norm < 1e-12:
        raise InvalidInputError("orientation direction must be nonzero")
    return m / norm


def orientation_residuals(rotations: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Alignment defect of each landmark axis against unit direction ``m``
    (3,), or a direction per row (n, 3), for rotations (n, 3, 3); (n, 9).

    For axis column n: ``(n x m) * (n . m)``, which vanishes when the axis
    is parallel or perpendicular to ``m``; stacking all three axes gives a
    9-vector that is zero exactly when ``m`` points along one axis (in
    either direction). Independent of the axis labeling returned by the
    underlying decomposition. The cross products of all three axes are
    formed from components in one pass, each a multiply then a subtract as
    in ``np.cross``.
    """
    a0, a1, a2 = rotations[:, 0], rotations[:, 1], rotations[:, 2]  # (n, axis)
    m = np.asarray(m)[..., None, :]
    m0, m1, m2 = m[..., 0], m[..., 1], m[..., 2]
    cross = np.stack([a1 * m2 - a2 * m1, a2 * m0 - a0 * m2, a0 * m1 - a1 * m0], axis=-1)
    return (cross * np.vecdot(np.swapaxes(rotations, 1, 2), m)[..., None]).reshape(-1, 9)


def _abc(prior):
    """The semi-axes a, b, c of a prior (3,), or of a prior per row (n, 3)."""
    prior = np.asarray(prior, dtype=float)
    return prior[..., 0], prior[..., 1], prior[..., 2]


def shape_residuals(scales: np.ndarray, prior) -> np.ndarray:
    """Axis-ratio defect [s1/s3 - a/c, s2/s3 - b/c] of descending semi-axes
    (n, 3); (n, 2). The prior (3,), or a prior per row (n, 3), is sorted
    a >= b >= c."""
    a, b, c = _abc(prior)
    return np.stack([scales[:, 0] / scales[:, 2] - a / c,
                     scales[:, 1] / scales[:, 2] - b / c], axis=1)


def size_residuals(qs: np.ndarray, scales: np.ndarray, prior, form: str = "sqrt") -> np.ndarray:
    """Volume-scale defect against the prior product a*b*c, for duals
    (n, 4, 4), their semi-axes (n, 3) and a prior (3,) or a prior per row
    (n, 3); (n,).

    form='sqrt' (default) compares the semi-axis product s1*s2*s3, which has
    the same units as a*b*c. form='det' compares the raw shape-block
    determinant (s1*s2*s3)^2 instead, kept selectable for A/B comparison.
    """
    a, b, c = _abc(prior)
    if form == "det":
        return np.linalg.det(dual_shape(qs)) - a * b * c
    return scales[:, 0] * scales[:, 1] * scales[:, 2] - a * b * c


def unit_plane(plane) -> np.ndarray:
    """A supporting plane scaled to a unit normal, unless its normal's norm
    is within 1e-9 of 1."""
    plane = np.asarray(plane, dtype=float)
    n = np.linalg.norm(plane[:3])
    return plane / n if abs(n - 1.0) > 1e-9 else plane


def support_residuals(qs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Tangency defect of a unit-normal supporting plane per row (n, 4) for
    duals (n, 4, 4), zero when tangent; (n,). Same ``reach^2 - dist^2``
    form as the box-semi residual."""
    return np.vecdot((planes[:, None, :] @ qs)[:, 0], planes)


def residual_pose_prior(x: Pose, observed_inverse: Pose) -> np.ndarray:
    """se(3) error ``Log(x observed^{-1})``; zero iff the poses match.
    (n, 6) for a stack of poses ``x``, in one batched logarithm, with the
    observed pose's inverse, one or a stack of n.

    The right-difference order pairs with the left-multiplicative pose
    retraction: an offset ``x = Exp(xi) observed`` maps back to exactly
    ``xi``, and the tangent Jacobian at the prior is the identity.
    """
    return se3_log(x.compose(observed_inverse))


# ---------------------------------------------------------------------------
# Factor kinds


@dataclass(frozen=True)
class FactorKind:
    """A factor kind: residual dimension, default per-component variance,
    ``rows``, which gives residual rows (n, dim) and each row's status (n,),
    0 where evaluable, ``check``, which raises :class:`InvalidInputError`
    for a payload the rows cannot read, ``pack``, which stacks the payloads
    of a list of factors into a tuple of arrays with a leading axis over the
    factors, and the role of each target, "pose" or "landmark".

    A single-target kind reads ``rows(stack, *payload)``: n rows of its
    variables' values, a pose's ``rotations`` (n, 3, 3) and
    ``translations`` (n, 3), or a landmark's ``duals`` (n, 4, 4) and, for a
    ``decomposed`` kind, ``rts``, their
    :func:`~quadricfit.quadric.rts_from_duals`, which every decomposed row
    of an evaluation shares; ``payload`` holds each row's packed payload.

    A camera-landmark kind (targets pose, landmark) gives
    ``rows(rt, duals, intrinsics, observed)``, each row seen through the
    camera-from-world [R|t] of a value of the pose, as two steps: ``view``
    takes the rt, intrinsics and observed box of each (pose value, factor)
    pair to the pair's camera data, and ``seen(duals, *view)`` gives the
    rows of duals seen through it. So the solver builds a fixed pose's
    camera data once per solve, and a free pose's once per value.
    """

    dim: int
    variance: float
    rows: Callable
    check: Callable
    pack: Callable
    roles: tuple = ("landmark",)
    decomposed: bool = False
    view: Callable | None = None
    seen: Callable | None = None

    @property
    def targets(self) -> int:
        return len(self.roles)


def _camera_kind(view: Callable, seen: Callable) -> FactorKind:
    """The camera-landmark kind whose rows are ``seen(duals, *view(rt,
    intrinsics, observed))``."""
    return FactorKind(4, 5.0**2, lambda rt, duals, intrinsics, observed: seen(
        duals, *view(rt, intrinsics, observed)), _check_box, _pack_box, ("pose", "landmark"),
        view=view, seen=seen)


def _decomposed(stack) -> np.ndarray:
    """Row statuses of a prior read from the shared decomposition."""
    return np.where(stack.rts[2], 0, NOT_DECOMPOSABLE)


def _size_rows(stack, prior, det):
    """Size-prior rows, in the det form where ``det`` (n,) is set."""
    out = size_residuals(stack.duals, stack.rts[1], prior)
    if det.any():
        out[det] = size_residuals(stack.duals[det], None, prior[det], "det")
    return out[:, None], _decomposed(stack)


def _pack_box(payloads) -> tuple:
    """Each factor's intrinsics (k, 4) as fx, fy, cx, cy and box (k, 4)."""
    intrinsics = [p["intrinsics"] for p in payloads]
    return (np.array([[i.fx, i.fy, i.cx, i.cy] for i in intrinsics]),
            np.array([p["box"].as_array() for p in payloads]))


def _pack(key: str, read: Callable = np.asarray) -> Callable:
    """Packs ``read(payload[key])`` of each factor."""
    return lambda payloads: (np.array([read(p[key]) for p in payloads], dtype=float),)


def _pack_inverse(payloads) -> tuple:
    """Each factor's observed pose inverted, as rotations (k, 3, 3) and
    translations (k, 3), in one batched inverse."""
    observed = [p["observed"] for p in payloads]
    inverse = Pose(np.stack([o.rotation for o in observed]),
                   np.stack([o.translation for o in observed])).inverse()
    return inverse.rotation, inverse.translation


def _get(payload, key: str):
    """``payload[key]``, or None when the payload has no such entry."""
    return payload.get(key) if isinstance(payload, dict) else None


def _entry(payload, key: str, kind) -> None:
    """Raise unless ``payload[key]`` is a ``kind``."""
    if not isinstance(_get(payload, key), kind):
        raise InvalidInputError(f"payload needs {key} as a {kind.__name__}")


def _check_box(payload) -> None:
    _entry(payload, "intrinsics", CameraIntrinsics)
    _entry(payload, "box", BoundingBox)


def _check_prior(payload) -> None:
    a, b, c = finite_numbers("prior", _get(payload, "prior"), (3,))
    if not (a >= b >= c > 0.0):
        raise InvalidInputError("prior must satisfy a >= b >= c > 0")


def _check_size(payload) -> None:
    _check_prior(payload)
    if payload.get("form", "sqrt") not in ("sqrt", "det"):
        raise InvalidInputError(f"unknown size residual form: {payload['form']!r}")


def _check_support(payload) -> None:
    if np.linalg.norm(finite_numbers("plane", _get(payload, "plane"), (4,))[:3]) < 1e-12:
        raise InvalidInputError("support plane normal must be nonzero")


# The row functions look up box_edge_planes and the kernels at call time,
# so a tracer or a test that replaces them by name sees every call.
FACTOR_KINDS = {
    "box-inverse": _camera_kind(lambda rt, intrinsics, observed: (rt, intrinsics, observed),
                                box_inverse_rows),
    "box-semi": _camera_kind(lambda rt, intrinsics, observed: (
        box_edge_planes(intrinsics, rt, observed),), box_semi_rows),
    "orientation": FactorKind(9, 0.1**2, lambda s, m: (
        orientation_residuals(s.rts[0], m), _decomposed(s)),
        lambda p: unit_direction(finite_numbers("direction", _get(p, "direction"), (3,))),
        _pack("direction", unit_direction), decomposed=True),
    "shape": FactorKind(2, 0.5**2, lambda s, prior: (
        shape_residuals(s.rts[1], prior), _decomposed(s)), _check_prior, _pack("prior"),
        decomposed=True),
    "size": FactorKind(1, 0.2**2, _size_rows, _check_size, lambda payloads: (
        *_pack("prior")(payloads), np.array([p.get("form", "sqrt") == "det" for p in payloads])),
        decomposed=True),
    "support": FactorKind(1, 0.05**2, lambda s, plane: _evaluable(
        support_residuals(s.duals, plane)[:, None]), _check_support, _pack("plane", unit_plane)),
    "pose-prior": FactorKind(6, 0.01**2, lambda s, rotation, translation: _evaluable(
        residual_pose_prior(Pose(s.rotations, s.translations), Pose(rotation, translation))),
        lambda p: _entry(p, "observed", Pose), _pack_inverse, ("pose",)),
}

# Measurement model -> the box factor kind that implements it.
_BOX_FACTOR_KINDS = {"inverse": "box-inverse", "semi": "box-semi"}
MODELS = tuple(_BOX_FACTOR_KINDS)


def box_factor_kind(model: str) -> str:
    """The box factor kind of a measurement model; ValueError if unknown."""
    try:
        return _BOX_FACTOR_KINDS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}, expected one of {list(MODELS)}") from None


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
        kind = FACTOR_KINDS[self.kind]
        if len(self.targets) != kind.targets:
            raise InvalidInputError(f"a {self.kind} factor takes {kind.targets} target(s), "
                                    f"got {len(self.targets)}")
        var = self.variance
        if var is None:
            var = np.full(kind.dim, kind.variance)
        else:
            var = np.broadcast_to(np.asarray(var, dtype=float), (kind.dim,)).copy()
        # Negated comparisons, so NaN is rejected too.
        if not np.all((var > 0.0) & (var < np.inf)):
            raise InvalidInputError("covariance entries must be positive and finite")
        object.__setattr__(self, "variance", var)
        kind.check(self.payload)

    @property
    def dim(self) -> int:
        return FACTOR_KINDS[self.kind].dim
