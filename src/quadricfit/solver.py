"""Levenberg-Marquardt over a product manifold of poses and landmarks.

The solver is generic in its variables: poses (:class:`quadricfit.manifold.Pose`)
and the three landmark states (:mod:`quadricfit.quadric`) share one
protocol, ``tangent_dim`` / ``retract`` / ``fd_scales``, and the solver asks
nothing else of them. It takes Jacobians by central finite differences
through the retraction and solves damped dense normal equations. Identical
solver settings therefore compare parameterizations fairly; only the
retraction differs.

Finite differences are batched over the whole problem. A per-solve plan
sorts the factors once, groups box factors by box model and priors by
landmark, and caches each pose's [R|t] and each box-semi factor's edge
planes per pose value (once per solve for a fixed pose). Each evaluation
then makes one kernel call per box model, with a camera per row: every
factor's landmark stack (the center, or the center and its FD variants)
seen from its camera, and, for a free pose, the landmark center seen from
each of the pose's 12 variants. A landmark's orientation, shape, size and
support priors are evaluated on its stacked variant duals with one batched
eigendecomposition, and a pose prior on its pose's stacked variants. One
block builder, :func:`_blocks`, does all of this; the cost calls it
without variants and sums the residual rows it returns, so the cost is
exactly the residual the Jacobian linearizes. Every row is computed as the
one-factor formula would compute it, so batching does not change a single
bit of the results.

Factors that cannot be evaluated at the current state (landmark behind the
camera, degenerate projection) are dropped for that evaluation with a skip
count; a candidate step is only accepted when it does not increase the
skip count and strictly decreases the total cost, so the reported cost
trace is monotone across accepted steps and "all factors dropped" is never
an attractor. A rejected step (singular normal equations, a step beyond
the trust bound, or a candidate that fails that test) raises the damping.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import _kernels
from .costs import (
    BehindCameraError,
    CameraFrame,
    DegenerateProjectionError,
    Factor,
    box_edge_planes,
    orientation_residuals,
    residual_box_inverse,
    residual_box_semi,
    residual_orientation,
    residual_pose_prior,
    residual_shape,
    residual_size,
    residual_support,
    shape_residuals,
    size_residuals,
    support_residuals,
    unit_direction,
)
from .manifold import InvalidInputError, Pose, orthonormalize
from .quadric import (
    DegenerateLandmarkError,
    FullState,
    RtsState,
    regularize_full,
    rts_from_duals,
)

_EVAL_ERRORS = (
    BehindCameraError,
    DegenerateProjectionError,
    DegenerateLandmarkError,
    np.linalg.LinAlgError,
)

logger = logging.getLogger("quadricfit.solver")


class LinearizeError(RuntimeError):
    """A residual evaluated to a non-finite value during linearization."""


class ProblemError(ValueError):
    """The problem references unknown variables or is otherwise malformed."""


def retract_value(value, delta: np.ndarray):
    """``value`` moved by the tangent step ``delta``: every variable, pose or
    landmark, carries its own retraction (see :class:`quadricfit.manifold.Pose`
    and :mod:`quadricfit.quadric`)."""
    return value.retract(delta)


# ---------------------------------------------------------------------------
# Problem


@dataclass
class Problem:
    """Variables (id -> Pose or landmark state), factors, fixed-id set."""

    variables: dict
    factors: list
    fixed: set = field(default_factory=set)

    def __post_init__(self):
        self.fixed = set(self.fixed)
        for f in self.factors:
            for t in f.targets:
                if t not in self.variables:
                    raise ProblemError(f"factor {f.fid} references unknown variable {t!r}")

    def free_ids(self) -> list:
        return [v for v in sorted(self.variables, key=str) if v not in self.fixed]

    def unconstrained(self) -> list:
        """Free variables that appear in no factor."""
        touched = {t for f in self.factors for t in f.targets}
        return [v for v in self.free_ids() if v not in touched]


@dataclass
class SolveOptions:
    max_iterations: int = 100
    init_lambda: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    rel_cost_tol: float = 1e-10
    grad_tol: float = 1e-12
    fd_step: float = 1e-6
    max_inner_retries: int = 10
    # Trust bound on any single tangent coordinate per step (rad, m, or
    # log-scale units). Steps beyond it are retried at higher damping;
    # keeps the quadratic model honest far from the linearization point.
    max_step: float = 2.0

    def __post_init__(self):
        # Negated comparisons, so NaN is rejected too.
        for name in ("max_iterations", "init_lambda", "lambda_up", "lambda_down",
                     "rel_cost_tol", "grad_tol", "fd_step", "max_inner_retries", "max_step"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"solve option {name} must be positive")
        # The retries that raise the damping stop only once it reaches its
        # cap, so it must grow on the way up and shrink on the way down.
        if not self.lambda_up > 1.0:
            raise InvalidInputError("solve option lambda_up must exceed 1")
        if not self.lambda_down < 1.0:
            raise InvalidInputError("solve option lambda_down must be below 1")


@dataclass
class SolveReport:
    """Outcome of one solve: accepted-cost trace, final variables, telemetry."""

    cost_trace: list
    variables: dict
    iterations: int
    attempts: int
    termination: str
    iter_times: list
    lambda_final: float
    skipped_final: int
    skip_events: int
    unconstrained: list
    options: SolveOptions

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]

    @property
    def diverged(self) -> bool:
        return self.termination == "diverged"


# ---------------------------------------------------------------------------
# Residual evaluation


_BOX_KINDS = ("box-inverse", "box-semi")
_LANDMARK_PRIORS = ("orientation", "shape", "size", "support")


def _frame_for(factor: Factor, pose: Pose) -> CameraFrame:
    return CameraFrame(factor.payload["intrinsics"], pose)


def factor_residual(factor: Factor, values: dict) -> np.ndarray:
    """Residual vector of one factor at the given variable values.

    Raises the evaluation errors (behind camera, degenerate projection or
    landmark) that the solver treats as per-iteration skips.
    """
    kind = factor.kind
    if kind in _BOX_KINDS:
        pose = values[factor.targets[0]]
        q = values[factor.targets[1]].dual
        frame = _frame_for(factor, pose)
        box = factor.payload["box"]
        if kind == "box-inverse":
            return residual_box_inverse(frame, q, box)
        return residual_box_semi(frame, q, box)
    value = values[factor.targets[0]]
    if kind == "orientation":
        return residual_orientation(value.dual, factor.payload["direction"])
    if kind == "shape":
        return residual_shape(value.dual, factor.payload["prior"])
    if kind == "size":
        return np.array(
            [residual_size(value.dual, factor.payload["prior"],
                           factor.payload.get("form", "sqrt"))]
        )
    if kind == "support":
        return np.array([residual_support(value.dual, factor.payload["plane"])])
    if kind == "pose-prior":
        return residual_pose_prior(value, factor.payload["observed"])
    raise InvalidInputError(f"unknown factor kind {kind!r}")


def _safe_dual(value):
    if value is None:
        return None
    try:
        return value.dual
    except _EVAL_ERRORS:
        return None


class _Plan:
    """The factors of one solve, laid out once.

    Factors are sorted by id; box factors are grouped by box model, with
    their intrinsics and observed boxes stacked, landmark priors by
    landmark, and pose priors kept apart. Each pose's [R|t] and each
    box-semi factor's edge planes are cached for the latest pose value
    they were computed at, so a fixed pose computes them once per solve
    and a free pose once per value it takes.
    """

    def __init__(self, factors: list):
        self.factors = sorted(factors, key=lambda f: f.fid)
        # box model -> (factors in fid order, intrinsics (k, 4) as fx, fy, cx, cy, boxes (k, 4))
        self.boxes = {}
        self.priors = {}  # landmark id -> landmark prior factors in fid order
        self.pose_priors = []
        for f in self.factors:
            if f.kind in _BOX_KINDS:
                self.boxes.setdefault(f.kind, []).append(f)
            elif f.kind in _LANDMARK_PRIORS:
                self.priors.setdefault(f.targets[0], []).append(f)
            else:
                self.pose_priors.append(f)
        for kind, group in self.boxes.items():
            intrinsics = [f.payload["intrinsics"] for f in group]
            self.boxes[kind] = (group, np.array([[i.fx, i.fy, i.cx, i.cy] for i in intrinsics]),
                                np.array([f.payload["box"].as_array() for f in group]))
        self._rts = {}  # pose id -> (pose value, [R|t])
        self._planes = {}  # box-semi fid -> (pose value, edge planes)

    def rt(self, factor: Factor, pose: Pose) -> np.ndarray:
        """The [R|t] of a box factor's camera at ``pose``, its current value."""
        cached = self._rts.get(factor.targets[0])
        if cached is None or cached[0] is not pose:
            cached = self._rts[factor.targets[0]] = (pose, _frame_for(factor, pose).projection_rt())
        return cached[1]

    def planes(self, factor: Factor, pose: Pose) -> np.ndarray:
        """The edge planes of a box-semi factor's box at ``pose``, its current value."""
        cached = self._planes.get(factor.fid)
        if cached is None or cached[0] is not pose:
            planes = box_edge_planes(_frame_for(factor, pose), factor.payload["box"])
            cached = self._planes[factor.fid] = (pose, planes)
        return cached[1]


def _prior_tables(factors: list, duals: np.ndarray) -> list:
    """(residual table (k, dim), ok (k,)) of each prior factor of one landmark
    over a stack of its duals (k, 4, 4), sharing one batched decomposition."""
    if any(f.kind != "support" for f in factors):
        rotations, scales, decomposed = rts_from_duals(duals)
    out = []
    for f in factors:
        payload = f.payload
        if f.kind == "orientation":
            table = orientation_residuals(rotations, unit_direction(payload["direction"]))
        elif f.kind == "shape":
            table = shape_residuals(scales, payload["prior"])
        elif f.kind == "size":
            table = size_residuals(duals, scales, payload["prior"],
                                   payload.get("form", "sqrt"))[:, None]
        else:
            table = support_residuals(duals, payload["plane"])[:, None]
            out.append((table, np.ones(len(duals), dtype=bool)))
            continue
        out.append((table, decomposed))
    return out


def _cost_of(values: dict, factors: list, plan: _Plan | None = None):
    """(total Mahalanobis cost, skipped-factor count, per-factor costs).

    The residuals are the center rows of :func:`_blocks`, the builder the
    Jacobian uses; the sum runs in factor-id order.
    """
    plan = plan or _Plan(factors)
    blocks = _blocks(values, plan, {}, {})
    total = 0.0
    skipped = 0
    per_factor = {}
    for f in plan.factors:
        block = blocks[f.fid]
        if block is None:
            skipped += 1
            continue
        r = block[0]
        c = float(np.dot(r, r / f.variance))
        per_factor[f.fid] = c
        total += c
    return total, skipped, per_factor


def total_cost(problem: Problem) -> float:
    """Sum of ``r^T Sigma^{-1} r`` over evaluable factors (skips contribute 0)."""
    return _cost_of(problem.variables, problem.factors)[0]


def cost_breakdown(problem: Problem) -> dict:
    """Total cost per factor kind at the current variables."""
    out = {}
    _, _, per_factor = _cost_of(problem.variables, problem.factors)
    by_fid = {f.fid: f for f in problem.factors}
    for fid, c in per_factor.items():
        out[by_fid[fid].kind] = out.get(by_fid[fid].kind, 0.0) + c
    return out


# ---------------------------------------------------------------------------
# Linearization


@dataclass
class Linearization:
    jacobian: np.ndarray  # (m, n), unweighted
    residual: np.ndarray  # (m,)
    weights: np.ndarray  # (m,) inverse variances
    columns: dict  # variable id -> slice into the tangent coordinates
    skipped: list  # factor ids dropped this linearization


class _Variants:
    """Center value plus per-coordinate +/- retracted values of one variable
    (a variant that cannot be retracted is None)."""

    def __init__(self, value, fd_step: float):
        self.value = value
        self.dim = value.tangent_dim
        self.h = fd_step * value.fd_scales()
        self.plus = []
        self.minus = []
        for j in range(self.dim):
            step = np.zeros(self.dim)
            step[j] = self.h[j]
            self.plus.append(self._safe_retract(value, step))
            self.minus.append(self._safe_retract(value, -step))

    @cached_property
    def duals(self):
        """A landmark's center dual, then the duals of its plus and of its
        minus variants, stacked (2 dim + 1, 4, 4); None when any of them
        cannot be evaluated."""
        rows = [_safe_dual(v) for v in (self.value, *self.plus, *self.minus)]
        if any(r is None for r in rows):
            return None
        return np.stack(rows)

    @staticmethod
    def _safe_retract(value, step):
        try:
            return retract_value(value, step)
        except _EVAL_ERRORS:
            return None

    def central_difference(self, table: np.ndarray) -> np.ndarray:
        """Jacobian block (dim_r, dim) from a residual table (2 dim, dim_r)
        over the plus, then the minus variants."""
        d = self.dim
        return (table[:d] - table[d:]).T / (2.0 * self.h)


def _landmark_stack(lm_id, values: dict, variants: dict):
    """The duals a landmark's factors are evaluated on, or None to skip them:
    center plus FD variants when the landmark is free, else its center."""
    var = variants.get(lm_id)
    if var is not None:
        return var.duals
    q = _safe_dual(values[lm_id])
    return None if q is None else q[None]


def _box_blocks(plan: _Plan, values: dict, variants: dict, columns: dict, blocks: dict) -> None:
    """Blocks of every box factor, one kernel call per box model.

    The call stacks, factor by factor, the factor's landmark stack seen
    from its camera and, when the camera's pose is free, the landmark
    center seen from each of the pose's 12 variants (plus, then minus).
    Each row carries its own camera: an [R|t] (box-inverse) or the
    factor's edge planes at that pose value (box-semi).
    """
    stacks = {}  # landmark id -> _landmark_stack
    for kind, (group, intrinsics, observed) in plan.boxes.items():
        live, sizes, duals = [], [], []
        views, view_of_row = [], []  # each row's camera, as an index into views
        center = {}  # box-inverse: pose id -> index of its [R|t], shared by its factors
        for i, f in enumerate(group):
            pose_id, lm_id = f.targets
            if lm_id not in stacks:
                stacks[lm_id] = _landmark_stack(lm_id, values, variants)
            stack = stacks[lm_id]
            pose_var = variants.get(pose_id)
            poses = [] if pose_var is None else pose_var.plus + pose_var.minus
            if stack is None or any(v is None for v in poses):
                blocks[f.fid] = None
                continue
            if kind == "box-inverse":
                c = center.get(pose_id)
                if c is None:
                    c = center[pose_id] = len(views)
                    views.append(plan.rt(f, values[pose_id]))
                    views.extend(_frame_for(f, v).projection_rt() for v in poses)
            else:
                c = len(views)
                views.append(plan.planes(f, values[pose_id]))
                views.extend(box_edge_planes(_frame_for(f, v), f.payload["box"]) for v in poses)
            live.append(i)
            sizes.append(len(stack) + len(poses))
            duals.append(stack)
            view_of_row += [c] * len(stack)
            if poses:
                duals.append(np.broadcast_to(stack[0], (len(poses), 4, 4)))
                view_of_row += range(c + 1, c + 1 + len(poses))
        if not live:
            continue
        duals = np.concatenate(duals)
        views = np.stack(views)[view_of_row]
        if kind == "box-inverse":
            owner = np.repeat(live, sizes)
            fx, fy, cx, cy = intrinsics[owner].T
            boxes, status = _kernels.boxes_from_duals(fx, fy, cx, cy, views, duals)
            rows, ok = boxes - observed[owner], status == 0
        else:
            rows, ok = _kernels.tangency_values(views, duals)
        starts = list(accumulate(sizes[:-1], initial=0))
        ok = np.logical_and.reduceat(ok, starts)
        for k, i in enumerate(live):
            f = group[i]
            if not ok[k]:
                blocks[f.fid] = None
                continue
            pose_id, lm_id = f.targets
            table = rows[starts[k] : starts[k] + sizes[k]]
            n = len(stacks[lm_id])
            pieces = []
            if lm_id in variants:
                pieces.append((columns[lm_id], variants[lm_id].central_difference(table[1:n])))
            if pose_id in variants:
                pieces.append((columns[pose_id], variants[pose_id].central_difference(table[n:])))
            blocks[f.fid] = (table[0], pieces)


def _prior_blocks(lm_id, group: list, values: dict, variants: dict, columns: dict,
                  blocks: dict) -> None:
    """Blocks of one landmark's priors, all evaluated on its stacked duals."""
    stack = _landmark_stack(lm_id, values, variants)
    if stack is None:
        blocks.update((f.fid, None) for f in group)
        return
    for f, (table, ok) in zip(group, _prior_tables(group, stack)):
        if not ok.all():
            blocks[f.fid] = None
        elif lm_id in variants:
            jac = variants[lm_id].central_difference(table[1:])
            blocks[f.fid] = (table[0], [(columns[lm_id], jac)])
        else:
            blocks[f.fid] = (table[0], [])


def _pose_prior_block(f: Factor, values: dict, variants: dict, columns: dict):
    """Block of one pose prior, its residual stacked over the pose's center
    and, when the pose is free, its plus and minus variants."""
    pose_id = f.targets[0]
    var = variants.get(pose_id)
    poses = [values[pose_id]] if var is None else [var.value, *var.plus, *var.minus]
    if any(p is None for p in poses):
        return None
    table = np.stack([residual_pose_prior(p, f.payload["observed"]) for p in poses])
    if var is None:
        return table[0], []
    return table[0], [(columns[pose_id], var.central_difference(table[1:]))]


def _blocks(values: dict, plan: _Plan, variants: dict, columns: dict) -> dict:
    """Residual and Jacobian blocks of every factor of ``plan``.

    Maps each fid to (residual at ``values``, [(columns, jacobian block)])
    or to None when the factor is skipped. ``variants`` holds the FD
    variants of the free variables, ``columns`` their tangent columns; with
    none, the blocks carry residuals only, which is what the cost uses.
    """
    blocks = {}
    _box_blocks(plan, values, variants, columns, blocks)
    for lm_id, group in plan.priors.items():
        _prior_blocks(lm_id, group, values, variants, columns, blocks)
    for f in plan.pose_priors:
        blocks[f.fid] = _pose_prior_block(f, values, variants, columns)
    return blocks


def _linearize(values: dict, factors: list, free: list, options: SolveOptions,
               plan: _Plan | None = None) -> Linearization:
    plan = plan or _Plan(factors)
    variants = {vid: _Variants(values[vid], options.fd_step) for vid in free}
    columns = {}
    offset = 0
    for vid in free:
        d = variants[vid].dim
        columns[vid] = slice(offset, offset + d)
        offset += d
    n = offset

    blocks = _blocks(values, plan, variants, columns)
    kept, skipped = [], []
    for f in plan.factors:
        if blocks[f.fid] is None:
            logger.debug("factor %s (%s) unevaluable at current state; dropped", f.fid, f.kind)
            skipped.append(f.fid)
        else:
            kept.append(f)
    m = sum(f.dim for f in kept)
    jacobian = np.zeros((m, n))
    residual = np.empty(m)
    weights = np.empty(m)
    owner = np.empty(m, dtype=int)
    row = 0
    for k, f in enumerate(kept):
        rows = slice(row, row + f.dim)
        res, pieces = blocks[f.fid]
        for cols, p in pieces:
            jacobian[rows, cols] = p
        residual[rows] = res
        weights[rows] = 1.0 / f.variance
        owner[rows] = k
        row = rows.stop
    finite = np.isfinite(jacobian).all(axis=1) & np.isfinite(residual)
    if not finite.all():
        bad = kept[owner[np.argmin(finite)]]
        raise LinearizeError(f"non-finite residual or Jacobian in factor {bad.fid}")
    return Linearization(jacobian, residual, weights, columns, skipped)


def linearize(problem: Problem, options: SolveOptions | None = None) -> Linearization:
    """Public linearization of a problem at its current variables."""
    options = options or SolveOptions()
    unconstrained = set(problem.unconstrained())
    free = [v for v in problem.free_ids() if v not in unconstrained]
    return _linearize(problem.variables, problem.factors, free, options)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


_ROT_DRIFT_TOL = 1e-8
_LAMBDA_MAX = 1e12

# A solve succeeds when its final cost is within this factor of the noise
# floor (see declare_success).
SUCCESS_FACTOR = 1.5


def _renormalize_rotations(values: dict, free: list) -> None:
    for vid in free:
        v = values[vid]
        if isinstance(v, (Pose, RtsState)):
            r = v.rotation
            if np.max(np.abs(r @ r.T - np.eye(3))) > _ROT_DRIFT_TOL:
                values[vid] = replace(v, rotation=orthonormalize(r))


def _regularize_full_states(values: dict, free: list) -> bool:
    """Re-project raw-coefficient landmarks onto valid ellipsoids.

    Applied after every accepted step. Identity (up to the projective
    gauge) while the iterate is still a valid ellipsoid; when a raw step
    has left the valid set, the clamp moves the state and can undo part of
    the step's cost decrease, which is the known fragility of this
    baseline parameterization.
    """
    changed = False
    for vid in free:
        v = values[vid]
        if isinstance(v, FullState):
            try:
                values[vid] = regularize_full(v)
            except DegenerateLandmarkError:
                continue
            changed = True
    return changed


def solve(problem: Problem, options: SolveOptions | None = None) -> SolveReport:
    """Damped normal equations with manifold retraction updates.

    A candidate step is accepted iff it strictly decreases the total cost
    without increasing the number of skipped factors; otherwise the damping
    is raised and the step retried. Normal-equation failure at maximum
    damping yields a diverged report rather than an exception.
    """
    options = options or SolveOptions()
    unconstrained = problem.unconstrained()
    if unconstrained:
        warnings.warn(f"unconstrained variables held fixed: {unconstrained}")
    held = set(unconstrained)
    free = [v for v in problem.free_ids() if v not in held]
    if not free:
        raise ProblemError("problem has no free variables")

    values = dict(problem.variables)
    factors = list(problem.factors)
    plan = _Plan(factors)
    cost, nskip, _ = _cost_of(values, factors, plan)
    trace = [cost]
    iter_times: list = []
    attempts = 0
    skip_events = 0
    lam = options.init_lambda
    termination = "max_iterations"

    for _ in range(options.max_iterations):
        t0 = time.perf_counter()
        try:
            lin = _linearize(values, factors, free, options, plan)
        except LinearizeError:
            termination = "diverged"
            break
        skip_events += len(lin.skipped)
        if lin.residual.size == 0:
            termination = "diverged"
            break
        grad = lin.jacobian.T @ (lin.weights * lin.residual)
        if np.max(np.abs(grad)) < options.grad_tol:
            termination = "gradient"
            iter_times.append(time.perf_counter() - t0)
            break
        hess = lin.jacobian.T @ (lin.weights[:, None] * lin.jacobian)
        n = hess.shape[0]

        accepted = False
        evals = 0
        while True:
            try:
                delta = np.linalg.solve(hess + lam * np.eye(n), -grad)
                solve_failed = not np.all(np.isfinite(delta))
            except np.linalg.LinAlgError:
                solve_failed = True
            # A singular system yields no step, and an over-long step is
            # outside the model's trust region: neither spends a cost
            # evaluation. Every rejection raises the damping below.
            if not solve_failed and np.max(np.abs(delta)) <= options.max_step:
                attempts += 1
                evals += 1
                candidate = dict(values)
                try:
                    for vid in free:
                        candidate[vid] = retract_value(values[vid], delta[lin.columns[vid]])
                    ccost, cnskip, _ = _cost_of(candidate, factors, plan)
                except _EVAL_ERRORS:
                    ccost, cnskip = np.inf, nskip + 1
                accepted = bool(np.isfinite(ccost) and cnskip <= nskip and ccost < cost)
                if accepted or evals > options.max_inner_retries:
                    break
            if lam >= _LAMBDA_MAX:
                break
            lam = min(lam * options.lambda_up, _LAMBDA_MAX)

        iter_times.append(time.perf_counter() - t0)
        if not accepted:
            termination = "diverged" if solve_failed else "stalled"
            break
        values = candidate
        _renormalize_rotations(values, free)
        prev = cost
        cost, nskip = ccost, cnskip
        trace.append(cost)
        if _regularize_full_states(values, free):
            # The regularized state is the next linearization point, but the
            # acceptance bar stays at the accepted cost so the recorded
            # trace is monotone even when the projection undoes progress.
            _, nskip, _ = _cost_of(values, factors, plan)
        lam = max(lam * options.lambda_down, 1e-15)
        if prev - cost <= options.rel_cost_tol * max(prev, 1e-300):
            termination = "cost_converged"
            break

    _, skipped_final, _ = _cost_of(values, factors, plan)
    return SolveReport(
        cost_trace=trace,
        variables=values,
        iterations=len(trace) - 1,
        attempts=attempts,
        termination=termination,
        iter_times=iter_times,
        lambda_final=lam,
        skipped_final=skipped_final,
        skip_events=skip_events,
        unconstrained=unconstrained,
        options=options,
    )


def declare_success(report: SolveReport, noise_floor_cost: float) -> bool:
    """Success iff the solve converged onto the noise floor.

    The floor is the cost of the ground-truth landmark under the same noisy
    observations; a solve counts as successful when its final cost is within
    ``SUCCESS_FACTOR`` of that floor (plus a small absolute slack for the
    noiseless case), it did not diverge, and no factor had to be dropped at
    the final state.
    """
    if report.diverged or report.skipped_final > 0:
        return False
    return report.final_cost <= SUCCESS_FACTOR * noise_floor_cost + 1e-6
