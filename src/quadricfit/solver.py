"""Levenberg-Marquardt over a product manifold of poses and landmarks.

The solver is generic in its variables: poses (:class:`quadricfit.manifold.Pose`)
and the three landmark states (:mod:`quadricfit.quadric`) share one
protocol, ``tangent_dim`` / ``retract`` / ``fd_scales`` / ``settled``, and
the solver asks nothing else of them. It takes Jacobians by central finite
differences through the retraction, solves damped dense normal equations
and replaces each free variable by its ``settled()`` fixup after every
accepted step. Identical solver settings therefore compare
parameterizations fairly; only the retraction and its fixup differ.

Finite differences are batched over the whole problem. Every variable has
one :class:`_Stack` of the values its factors are evaluated at: the value
alone, or for a free variable in a linearization the value and its FD
variants. A per-solve plan sorts the factors once, groups box factors by
box model and priors by landmark, and caches each pose's [R|t] and each
box-semi factor's edge planes per pose value. Each evaluation then makes
one kernel call per box model, with a camera per row: every factor's
landmark stack seen from its camera and the landmark center seen from
each of its pose's variants. A landmark's priors are evaluated on its
stacked duals with one batched eigendecomposition, and a pose prior on its
pose's stack. One block builder, :func:`_blocks`, does all of this; the
cost calls it with value-only stacks and sums the residual rows it
returns, so the cost is exactly the residual the Jacobian linearizes.
Every row is computed as the one-factor formula would compute it, so
batching does not change a single bit of the results.

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
from dataclasses import dataclass, field
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
from .manifold import InvalidInputError, Pose
from .quadric import DegenerateLandmarkError, rts_from_duals

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
    blocks = _blocks(plan, {vid: _Stack(v) for vid, v in values.items()}, {})
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


class _Stack:
    """The values one variable's factors are evaluated at.

    ``values`` holds the value alone for a fixed variable (``fd_step`` None),
    which is every variable in a cost evaluation; for a free variable it
    holds the value, then its plus, then its minus finite-difference
    variants (a variant that cannot be retracted is None).
    """

    def __init__(self, value, fd_step: float | None = None):
        self.values = [value]
        self.dim = 0
        if fd_step is None:
            return
        self.dim = value.tangent_dim
        self.h = fd_step * value.fd_scales()
        steps = np.diag(self.h)
        self.values += [self._safe_retract(value, s) for s in (*steps, *-steps)]

    @cached_property
    def duals(self):
        """A landmark's duals over ``values``, stacked (len(values), 4, 4);
        None when any of them cannot be evaluated."""
        rows = [_safe_dual(v) for v in self.values]
        if any(r is None for r in rows):
            return None
        return np.stack(rows)

    @staticmethod
    def _safe_retract(value, step):
        try:
            return retract_value(value, step)
        except _EVAL_ERRORS:
            return None

    def pieces(self, columns: dict, vid, table: np.ndarray) -> list:
        """[(columns, Jacobian block (dim_r, dim))] from a residual table
        (2 dim, dim_r) over the plus, then the minus variants; [] for a
        fixed variable."""
        if self.dim == 0:
            return []
        d = self.dim
        return [(columns[vid], (table[:d] - table[d:]).T / (2.0 * self.h))]


def _box_blocks(plan: _Plan, stacks: dict, columns: dict, blocks: dict) -> None:
    """Blocks of every box factor, one kernel call per box model.

    The call stacks, factor by factor, the landmark's duals seen from the
    factor's camera and the landmark center seen from each of the pose's
    variants (none for a fixed pose). Each row carries its own camera: an
    [R|t] (box-inverse) or the factor's edge planes at that pose value
    (box-semi).
    """
    for kind, (group, intrinsics, observed) in plan.boxes.items():
        live, sizes, duals = [], [], []
        views, view_of_row = [], []  # each row's camera, as an index into views
        center = {}  # box-inverse: pose id -> index of its [R|t], shared by its factors
        for i, f in enumerate(group):
            pose_id, lm_id = f.targets
            stack = stacks[lm_id].duals
            pose, *poses = stacks[pose_id].values
            if stack is None or any(v is None for v in poses):
                blocks[f.fid] = None
                continue
            if kind == "box-inverse":
                c = center.get(pose_id)
                if c is None:
                    c = center[pose_id] = len(views)
                    views.append(plan.rt(f, pose))
                    views.extend(_frame_for(f, v).projection_rt() for v in poses)
            else:
                c = len(views)
                views.append(plan.planes(f, pose))
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
            n = len(stacks[lm_id].values)
            blocks[f.fid] = (table[0], stacks[lm_id].pieces(columns, lm_id, table[1:n])
                             + stacks[pose_id].pieces(columns, pose_id, table[n:]))


def _prior_blocks(lm_id, group: list, stacks: dict, columns: dict, blocks: dict) -> None:
    """Blocks of one landmark's priors, all evaluated on its stacked duals."""
    stack = stacks[lm_id]
    if stack.duals is None:
        blocks.update((f.fid, None) for f in group)
        return
    for f, (table, ok) in zip(group, _prior_tables(group, stack.duals)):
        blocks[f.fid] = (table[0], stack.pieces(columns, lm_id, table[1:])) if ok.all() else None


def _pose_prior_block(f: Factor, stacks: dict, columns: dict):
    """Block of one pose prior, its residual stacked over the pose's values."""
    pose_id = f.targets[0]
    stack = stacks[pose_id]
    if any(p is None for p in stack.values):
        return None
    table = np.stack([residual_pose_prior(p, f.payload["observed"]) for p in stack.values])
    return table[0], stack.pieces(columns, pose_id, table[1:])


def _blocks(plan: _Plan, stacks: dict, columns: dict) -> dict:
    """Residual and Jacobian blocks of every factor of ``plan``.

    Maps each fid to (residual at the variables' values, [(columns,
    jacobian block)]) or to None when the factor is skipped. ``stacks``
    holds every variable's :class:`_Stack`, ``columns`` the tangent columns
    of the free ones; with no free stack, the blocks carry residuals only,
    which is what the cost uses.
    """
    blocks = {}
    _box_blocks(plan, stacks, columns, blocks)
    for lm_id, group in plan.priors.items():
        _prior_blocks(lm_id, group, stacks, columns, blocks)
    for f in plan.pose_priors:
        blocks[f.fid] = _pose_prior_block(f, stacks, columns)
    return blocks


def _linearize(values: dict, factors: list, free: list, options: SolveOptions,
               plan: _Plan | None = None) -> Linearization:
    plan = plan or _Plan(factors)
    free_set = set(free)
    stacks = {vid: _Stack(v, options.fd_step if vid in free_set else None)
              for vid, v in values.items()}
    columns = {}
    offset = 0
    for vid in free:
        d = stacks[vid].dim
        columns[vid] = slice(offset, offset + d)
        offset += d
    n = offset

    blocks = _blocks(plan, stacks, columns)
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


_LAMBDA_MAX = 1e12

# A solve succeeds when its final cost is within this factor of the noise
# floor (see declare_success).
SUCCESS_FACTOR = 1.5


def _settle(values: dict, free: list) -> bool:
    """Replace each free variable by its ``settled()`` fixup; True if any changed."""
    settled = {vid: values[vid].settled() for vid in free}
    changed = any(settled[vid] is not values[vid] for vid in free)
    values.update(settled)
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
        prev = cost
        cost, nskip = ccost, cnskip
        trace.append(cost)
        if _settle(values, free):
            # The settled state is the next linearization point, but the
            # acceptance bar stays at the accepted cost so the recorded
            # trace is monotone even when a fixup undoes progress.
            _, nskip, _ = _cost_of(values, factors, plan)
        lam = max(lam * options.lambda_down, 1e-15)
        if prev - cost <= options.rel_cost_tol * max(prev, 1e-300):
            termination = "cost_converged"
            break

    return SolveReport(
        cost_trace=trace,
        variables=values,
        iterations=len(trace) - 1,
        attempts=attempts,
        termination=termination,
        iter_times=iter_times,
        lambda_final=lam,
        skipped_final=nskip,
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
