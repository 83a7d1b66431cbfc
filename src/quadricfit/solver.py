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
one :class:`_Stack` of the values its factors are evaluated at, held as
arrays: the value alone, or for a free variable in a linearization the
value and its FD variants, which one batched ``retract`` of the value
makes in a single numpy pass (duals for a landmark; rotations,
translations and cameras for a pose). Each factor kind is evaluated by
its entry in :data:`quadricfit.costs.FACTOR_KINDS`, so the solver has no
per-kind code.
A per-solve plan sorts the factors once and groups camera-landmark factors
by kind and single-target factors by variable. Each evaluation makes one
row-function call per camera-landmark kind, with a camera per row: every
factor's landmark stack seen from its pose and the landmark center seen
from each of its pose's variants. Every row's camera is the [R|t] its pose
value caches (``Pose.inverse_rt``), under both box models, so a pose value
computes it once however many factors see it. A single-target factor,
landmark prior or pose prior alike, is evaluated on its variable's stack,
and a landmark's priors share the stack's one batched eigendecomposition.
One block builder, :func:`_blocks`, does all of this; the cost calls it
with value-only stacks and sums the residual rows it returns, so the cost
is exactly the residual the Jacobian linearizes. Each row has the bits of
the batch of one that :func:`factor_residual` evaluates, so batching
changes no result.

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
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate

import numpy as np

from .costs import (
    FACTOR_KINDS,
    BehindCameraError,
    DegenerateProjectionError,
    Factor,
    evaluation_error,
)
from .manifold import require_integer
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
    """Variables (id -> Pose or landmark state), factors, fixed-id set.

    Every variable value must be finite: a NaN state would reach the solver
    as NaN residuals, whose cost no step can decrease.
    """

    variables: dict
    factors: list
    fixed: set = field(default_factory=set)

    def __post_init__(self):
        self.fixed = set(self.fixed)
        for vid, value in self.variables.items():
            if not all(np.isfinite(getattr(value, f.name)).all() for f in fields(value)):
                raise ProblemError(f"variable {vid!r} has non-finite values")
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

    def __post_init__(self):
        require_integer("max_iterations", self.max_iterations, 1, "a positive integer")


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

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]

    @property
    def diverged(self) -> bool:
        return self.termination == "diverged"


# ---------------------------------------------------------------------------
# Residual evaluation


def factor_residual(factor: Factor, values: dict) -> np.ndarray:
    """Residual vector of one factor at the given variable values.

    A batch of one through the kind table, evaluated exactly as the solver
    evaluates it. Raises the evaluation errors (behind camera, degenerate
    projection or landmark) that the solver treats as per-iteration skips.
    """
    block = _blocks(_Plan([factor]), {t: _Stack(values[t]) for t in factor.targets}, {})[factor.fid]
    if isinstance(block, Exception):
        raise block
    return block[0]


class _Plan:
    """The factors of one solve, laid out once.

    Factors are sorted by id; camera-landmark factors are grouped by kind,
    with their intrinsics and observed boxes stacked, and single-target
    factors by their variable.
    """

    def __init__(self, factors: list):
        self.factors = sorted(factors, key=lambda f: f.fid)
        # kind -> (factors in fid order, intrinsics (k, 4) as fx, fy, cx, cy, boxes (k, 4))
        self.boxes = {}
        self.singles = {}  # variable id -> its single-target factors in fid order
        for f in self.factors:
            if FACTOR_KINDS[f.kind].targets == 1:
                self.singles.setdefault(f.targets[0], []).append(f)
            else:
                self.boxes.setdefault(f.kind, []).append(f)
        for kind, group in self.boxes.items():
            intrinsics = [f.payload["intrinsics"] for f in group]
            self.boxes[kind] = (group, np.array([[i.fx, i.fy, i.cx, i.cy] for i in intrinsics]),
                                np.array([f.payload["box"].as_array() for f in group]))


class _Stack:
    """The values one variable's factors are evaluated at, as arrays.

    Row 0 is the value itself, the only row of a fixed variable
    (``fd_step`` None), which is every variable in a cost evaluation. A
    free variable in a linearization adds its plus, then its minus
    finite-difference variants, all made by one batched ``retract`` of the
    value, so no variant is an object of its own. A landmark's stack reads
    ``duals`` and ``rts``, a pose's ``rotations``, ``translations`` and
    ``cameras``; the value's row is the one it caches. Reading an array
    that a row cannot form raises the evaluation error of the first such
    row, and the factors that read it are skipped.
    """

    def __init__(self, value, fd_step: float | None = None):
        self._value = value
        self._variants = None
        self._error = None
        self.dim = 0
        if fd_step is None:
            return
        self.dim = value.tangent_dim
        self.h = fd_step * value.fd_scales()
        steps = np.diag(self.h)
        try:
            self._variants = value.retract(np.concatenate([steps, -steps]))
        except _EVAL_ERRORS as exc:
            self._error = exc

    def _rows(self, name: str) -> np.ndarray:
        """The value's field ``name`` above its variants', (n, ...), in C
        order as the kernels take it."""
        if self._error is not None:
            raise self._error
        rows = getattr(self._value, name)[None]
        if self._variants is not None:
            rows = np.concatenate([rows, getattr(self._variants, name)])
        return np.ascontiguousarray(rows)

    @cached_property
    def duals(self) -> np.ndarray:
        """A landmark's duals (n, 4, 4)."""
        return self._rows("dual")

    @cached_property
    def rotations(self) -> np.ndarray:
        """A pose's rotations (n, 3, 3)."""
        return self._rows("rotation")

    @cached_property
    def translations(self) -> np.ndarray:
        """A pose's translations (n, 3)."""
        return self._rows("translation")

    @cached_property
    def cameras(self) -> np.ndarray:
        """A pose's camera-from-world [R|t] (n, 3, 4)."""
        return self._rows("inverse_rt")

    @cached_property
    def rts(self):
        """:func:`rts_from_duals` of ``duals``: one batched eigendecomposition
        that every prior of the stack shares, made when the first reads it."""
        return rts_from_duals(self.duals)

    def pieces(self, columns: dict, vid, table: np.ndarray) -> list:
        """[(columns, Jacobian block (dim_r, dim))] from a residual table
        (2 dim, dim_r) over the plus, then the minus variants; [] for a
        fixed variable."""
        if self.dim == 0:
            return []
        d = self.dim
        return [(columns[vid], (table[:d] - table[d:]).T / (2.0 * self.h))]


def _box_blocks(plan: _Plan, stacks: dict, columns: dict, blocks: dict) -> None:
    """Blocks of every camera-landmark factor, one row-function call per kind.

    The call stacks, factor by factor, the landmark's duals seen from the
    pose's value and the landmark center seen from each of the pose's
    variants (none for a fixed pose), each row with the [R|t] of the pose
    value it is seen from.
    """
    for name, (group, intrinsics, observed) in plan.boxes.items():
        live, sizes, duals, cameras = [], [], [], []
        for i, f in enumerate(group):
            pose_id, lm_id = f.targets
            try:
                stack = stacks[lm_id].duals
                rt = stacks[pose_id].cameras
            except _EVAL_ERRORS as exc:
                blocks[f.fid] = exc
                continue
            live.append(i)
            sizes.append(len(stack) + len(rt) - 1)
            duals.append(stack)
            cameras.append(rt[:1].repeat(len(stack), axis=0))
            if len(rt) > 1:
                duals.append(stack[:1].repeat(len(rt) - 1, axis=0))
                cameras.append(rt[1:])
        if not live:
            continue
        owner = np.repeat(live, sizes)
        rows, status = FACTOR_KINDS[name].rows(np.concatenate(cameras), np.concatenate(duals),
                                               intrinsics[owner], observed[owner])
        starts = list(accumulate(sizes[:-1], initial=0))
        worst = np.maximum.reduceat(status, starts)  # a factor's rows are all evaluable iff 0
        for k, i in enumerate(live):
            f = group[i]
            if worst[k]:
                blocks[f.fid] = evaluation_error(worst[k])
                continue
            pose_id, lm_id = f.targets
            table = rows[starts[k] : starts[k] + sizes[k]]
            n = len(stacks[lm_id].duals)
            blocks[f.fid] = (table[0], stacks[lm_id].pieces(columns, lm_id, table[1:n])
                             + stacks[pose_id].pieces(columns, pose_id, table[n:]))


def _single_blocks(plan: _Plan, stacks: dict, columns: dict, blocks: dict) -> None:
    """Blocks of every single-target factor: its kind's rows over the stack
    of its variable, so a landmark's priors share one decomposition. Rows
    that raise an evaluation error, or a row with a nonzero status, skip
    the factor."""
    for vid, group in plan.singles.items():
        stack = stacks[vid]
        for f in group:
            try:
                table, status = FACTOR_KINDS[f.kind].rows(stack, f.payload)
            except _EVAL_ERRORS as exc:
                blocks[f.fid] = exc
                continue
            worst = status.max()
            blocks[f.fid] = (evaluation_error(worst) if worst
                             else (table[0], stack.pieces(columns, vid, table[1:])))


def _blocks(plan: _Plan, stacks: dict, columns: dict) -> dict:
    """Residual and Jacobian blocks of every factor of ``plan``.

    Maps each fid to (residual at the variables' values, [(columns,
    jacobian block)]), or to the evaluation error for which the factor is
    skipped. ``stacks`` holds every target's :class:`_Stack`, ``columns``
    the tangent columns of the free ones; with no free stack, the blocks
    carry residuals only, which is what the cost uses.
    """
    blocks = {}
    _box_blocks(plan, stacks, columns, blocks)
    _single_blocks(plan, stacks, columns, blocks)
    return blocks


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
        if isinstance(block, Exception):
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


def _linearize(values: dict, factors: list, free: list, plan: _Plan | None = None) -> Linearization:
    plan = plan or _Plan(factors)
    free_set = set(free)
    stacks = {vid: _Stack(v, FD_STEP if vid in free_set else None)
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
        if isinstance(blocks[f.fid], Exception):
            logger.debug("factor %s (%s) dropped: %s", f.fid, f.kind, blocks[f.fid])
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


def linearize(problem: Problem) -> Linearization:
    """Public linearization of a problem at its current variables."""
    unconstrained = set(problem.unconstrained())
    free = [v for v in problem.free_ids() if v not in unconstrained]
    return _linearize(problem.variables, problem.factors, free)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


# The LM schedule, the same for every parameterization. A retry that
# spends no cost evaluation ends only at _LAMBDA_MAX, so LAMBDA_UP > 1.
_LAMBDA_MAX = 1e12
INIT_LAMBDA = 1e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
REL_COST_TOL = 1e-10
GRAD_TOL = 1e-12
FD_STEP = 1e-6  # central-difference step, scaled per coordinate by fd_scales()
MAX_INNER_RETRIES = 10
# Trust bound on any single tangent coordinate per step (rad, m, or
# log-scale units). Steps beyond it are retried at higher damping;
# keeps the quadratic model honest far from the linearization point.
MAX_STEP = 2.0

# A solve succeeds when its final cost is within this factor of the noise
# floor (see iterations_to_success).
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
    lam = INIT_LAMBDA
    termination = "max_iterations"

    for _ in range(options.max_iterations):
        t0 = time.perf_counter()
        try:
            lin = _linearize(values, factors, free, plan)
        except LinearizeError:
            termination = "diverged"
            break
        skip_events += len(lin.skipped)
        if lin.residual.size == 0:
            termination = "diverged"
            break
        grad = lin.jacobian.T @ (lin.weights * lin.residual)
        if np.max(np.abs(grad)) < GRAD_TOL:
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
            if not solve_failed and np.max(np.abs(delta)) <= MAX_STEP:
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
                if accepted or evals > MAX_INNER_RETRIES:
                    break
            if lam >= _LAMBDA_MAX:
                break
            lam = min(lam * LAMBDA_UP, _LAMBDA_MAX)

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
        lam = max(lam * LAMBDA_DOWN, 1e-15)
        if prev - cost <= REL_COST_TOL * max(prev, 1e-300):
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
    )


def iterations_to_success(report: SolveReport, noise_floor_cost: float) -> int | None:
    """The first accepted step whose cost is at or below the success bar,
    or None when the solve did not succeed.

    The floor is the cost of the ground-truth landmark under the same noisy
    observations, and the bar is ``SUCCESS_FACTOR`` times that floor (plus
    a small absolute slack for the noiseless case). A solve succeeds when
    its final cost is at or below the bar, it did not diverge, and no
    factor had to be dropped at the final state.
    """
    bar = SUCCESS_FACTOR * noise_floor_cost + 1e-6
    if report.diverged or report.skipped_final > 0 or not report.final_cost <= bar:
        return None
    return next(i for i, c in enumerate(report.cost_trace) if c <= bar)
