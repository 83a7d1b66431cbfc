"""Levenberg-Marquardt over a product manifold of poses and landmarks.

The solver is generic in its variables: poses (:class:`quadricfit.manifold.Pose`)
and the three landmark states (:mod:`quadricfit.quadric`) share one
protocol, ``tangent_dim`` / ``retract`` / ``fd_scales`` / ``settled``, and
the solver asks nothing else of them. It takes Jacobians by central finite
differences through the retraction, solves damped dense normal equations
and replaces each free variable by its ``settled()`` fixup after every
accepted step. Identical solver settings therefore compare
parameterizations fairly; only the retraction and its fixup differ.

Evaluations are array passes, one per variable kind and one per factor
kind. The free variables are held as one stacked value per kind (their
class: poses, and each parameterization's landmarks), so the LM candidate
step is one ``retract`` per kind, as are a linearization's FD variants. A
per-solve :class:`_Plan` holds what only the fixed variables and the
payloads decide, and the index arrays by which :func:`_evaluate` gathers
each factor kind's inputs from a :class:`_Stack` per role and scatters
its residual rows and central differences. A factor kind is one row call
through :data:`quadricfit.costs.FACTOR_KINDS`, so the solver has no
per-kind code. The cost sums, in factor-id order, exactly the residual
rows the Jacobian linearizes, and each row has the bits of the batch of
one that :func:`factor_residual` evaluates, so batching changes no result.

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
from types import SimpleNamespace

import numpy as np

from .costs import FACTOR_KINDS, BehindCameraError, DegenerateProjectionError, Factor, evaluation_error
from .manifold import require_integer
from .quadric import DegenerateLandmarkError, rts_from_duals

_EVAL_ERRORS = (BehindCameraError, DegenerateProjectionError, DegenerateLandmarkError,
                np.linalg.LinAlgError)

logger = logging.getLogger("quadricfit.solver")


class LinearizeError(RuntimeError):
    """A residual evaluated to a non-finite value during linearization."""


class ProblemError(ValueError):
    """The problem references unknown variables or is otherwise malformed."""


def retract_value(value, delta: np.ndarray):
    """``value`` moved by the tangent step ``delta``: every variable, pose or
    landmark, carries its own retraction (see :class:`quadricfit.manifold.Pose`
    and :mod:`quadricfit.quadric`), which also moves a kind's stacked values."""
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

# The fields a single-target kind reads per role, and the shape of a row of each stack field.
_READS = {"pose": ("rotation", "translation"), "landmark": ("dual",)}
_SHAPES = {"dual": (4, 4), "rotation": (3, 3), "translation": (3,), "inverse_rt": (3, 4)}


def _stacked(values: list):
    """One value holding ``values``, all of one class, along a leading axis."""
    return type(values[0])(*(np.stack([getattr(v, f.name) for v in values])
                             for f in fields(values[0])))


def _take(value, rows):
    """Rows (an index array) or one row (an int) of a stacked value."""
    return type(value)(*(getattr(value, f.name)[rows] for f in fields(value)))


def factor_residual(factor: Factor, values: dict) -> np.ndarray:
    """Residual vector of one factor at the given variable values.

    A batch of one through the kind table, evaluated exactly as the solver
    evaluates it. Raises the evaluation errors (behind camera, degenerate
    projection or landmark) that the solver treats as per-iteration skips.
    """
    residual, _, errors = _evaluate(_Plan([factor], values), [], None)
    if errors:
        raise errors[0]
    return residual


class _Plan:
    """What the evaluations of one solve share, laid out once: the factors
    by id and by kind, with each kind's payloads packed; each variable's
    role, pose or landmark; the variables by kind (class), the fixed kinds
    stacked here and the free kinds in column order; the camera data of the
    box factors on fixed poses (``views``); and :meth:`layout`."""

    def __init__(self, factors: list, values: dict, free=()):
        self.factors = sorted(factors, key=lambda f: f.fid)
        self.role = {t: r for f in self.factors for t, r in zip(f.targets, FACTOR_KINDS[f.kind].roles)}
        self.columns, fixed, kinds, offset = {}, {}, {}, 0
        for vid in free:
            self.columns[vid] = slice(offset, offset + values[vid].tangent_dim)
            offset = self.columns[vid].stop
            kinds.setdefault(type(values[vid]), []).append(vid)
        for vid in (vid for vid in self.role if vid not in self.columns):
            fixed.setdefault(type(values[vid]), []).append(vid)
        self.n, self.kinds = offset, list(kinds.values())
        self.kind_columns = [np.r_[tuple(self.columns[vid] for vid in vids)] for vids in self.kinds]
        self.fixed = [(vids, _stacked([values[vid] for vid in vids])) for vids in fixed.values()]
        self.groups, self.views, self._layouts = {}, {}, {}
        for i, f in enumerate(self.factors):
            self.groups.setdefault(f.kind, []).append(i)
        self.packed = {name: FACTOR_KINDS[name].pack([self.factors[i].payload for i in members])
                       for name, members in self.groups.items()}
        dims = [f.dim for f in self.factors]
        self.starts = np.cumsum([0] + dims)
        self.m, self.owner = int(self.starts[-1]), np.repeat(np.arange(len(dims)), dims)
        self.variance = np.concatenate([f.variance for f in self.factors] or [np.empty(0)])

    def stack(self, values: dict) -> list:
        """Each free kind's values, stacked."""
        return [_stacked([values[vid] for vid in vids]) for vids in self.kinds]

    def split(self, stacked: list) -> dict:
        """Each free variable's value, from its kind's stacked values."""
        return {vid: _take(value, i) for vids, value in zip(self.kinds, stacked)
                for i, vid in enumerate(vids)}

    def layout(self, fd: bool):
        """(groups, decomposed rows) of an evaluation, with FD variants if ``fd``.

        A factor kind's group gives its factors' kernel rows, each factor's
        contiguous from ``starts``: value, landmark variants, pose variants,
        each by the :class:`_Stack` row it reads (``targets``) and, for a box
        row, by its camera data (``pairs``: the ``fixed`` poses', a stack row
        and a factor each, then the free poses' ``cameras``). ``payload`` is
        packed per single row or free pair; ``res`` places the value rows in
        the residual; a Jacobian entry is its ``plus`` minus its ``minus``
        row over twice the step of column ``jcols``, at residual rows ``jrows``.
        """
        if fd in self._layouts:
            return self._layouts[fd]
        rows, size = {}, dict.fromkeys(_READS, 0)
        widths = [(vids, 0) for vids, _ in self.fixed]
        for vids, width in widths + [(vids, len(c)) for vids, c in zip(self.kinds, self.kind_columns)]:
            role, k = self.role[vids[0]], len(vids)
            d = width // k if fd else 0
            for i, vid in enumerate(vids):
                start = size[role] + k + 2 * d * i
                rows[vid] = [size[role] + i, *range(start, start + 2 * d)]
            size[role] += k * (1 + 2 * d)
        groups = {}
        for name, members in self.groups.items():
            kind = FACTOR_KINDS[name]
            g = SimpleNamespace(targets=[], starts=[], pairs=[], fixed=[], cameras=[], owner=[],
                                plus=[], minus=[], jrows=[], jcols=[])
            on_fixed = sum(self.factors[i].targets[0] not in self.columns for i in members)
            for j, i in enumerate(members):
                targets = self.factors[i].targets
                own, views = rows[targets[-1]], rows[targets[0]]
                g.starts.append(len(g.targets))
                g.targets += own
                if kind.view is None:
                    g.owner += [j] * len(own)
                elif targets[0] in self.columns:
                    first = on_fixed + len(g.cameras)
                    g.targets += own[:1] * (len(views) - 1)
                    g.pairs += [first] * len(own) + list(range(first + 1, first + len(views)))
                    g.cameras += views
                    g.owner += [j] * len(views)
                else:
                    g.pairs += [len(g.fixed)] * len(own)
                    g.fixed.append((views[0], j))
                at = g.starts[-1] + 1
                for t in reversed(targets):
                    d = (len(rows[t]) - 1) // 2
                    g.plus += range(at, at + d)
                    g.minus += range(at + d, at + 2 * d)
                    g.jcols += range(self.columns[t].start, self.columns[t].start + d) if d else ()
                    g.jrows += [self.starts[i]] * d
                    at += 2 * d
            vars(g).update({key: np.array(v, dtype=int) for key, v in vars(g).items()})
            g.factors, g.payload = np.array(members), tuple(a[g.owner] for a in self.packed[name])
            g.jrows, g.jcols = g.jrows[:, None] + np.arange(kind.dim), g.jcols[:, None]
            g.res = self.starts[members][:, None] + np.arange(kind.dim)
            groups[name] = g
        decomposed = {name for name in groups if FACTOR_KINDS[name].decomposed}
        read = np.zeros(size["landmark"], dtype=bool)  # np.unique would import numpy.ma
        read[np.concatenate([groups[name].targets for name in decomposed] or [np.zeros(0, int)])] = True
        dec_rows = np.flatnonzero(read)
        for name, g in groups.items():
            g.rts = np.searchsorted(dec_rows, g.targets) if name in decomposed else None
        self._layouts[fd] = groups, dec_rows
        return self._layouts[fd]


class _Stack:
    """The rows one evaluation reads for one role, poses or landmarks: the
    fixed kinds', then each free kind's k values and, with FD steps ``hs``
    (k, dim) per kind, their variants from one batched ``retract``,
    variable by variable, plus then minus steps. :meth:`field` reads one
    field in one pass per kind. A variable whose rows cannot form a field,
    or whose variants cannot be made, gets zero rows and its error in
    ``errors``, and the factors reading it are skipped.
    """

    def __init__(self, plan: _Plan, role: str, values: list, hs: list, dec_rows: np.ndarray):
        self.role, self.dec_rows, self.errors, self._fields = role, dec_rows, {}, {}
        self._kinds = [(vids, value) for vids, value in plan.fixed if plan.role[vids[0]] == role]
        for vids, value, h in zip(plan.kinds, values, hs):
            if plan.role[vids[0]] != role:
                continue
            if h is not None:
                k, d = h.shape
                steps = h[:, None, :] * np.eye(d)
                base = _take(value, np.repeat(np.arange(k), 2 * d))
                try:
                    variants = base.retract(np.concatenate([steps, -steps], axis=1).reshape(-1, d))
                except _EVAL_ERRORS as exc:
                    self.errors.update(dict.fromkeys(vids, exc))
                    variants = base
                value = type(value)(*(np.concatenate([getattr(value, f.name), getattr(variants, f.name)])
                                      for f in fields(value)))
            self._kinds.append((vids, value))

    def field(self, name: str) -> np.ndarray:
        """Field ``name`` of every row, (n, ...)."""
        if name not in self._fields:
            parts = [self._read(vids, rows, name) for vids, rows in self._kinds]
            self._fields[name] = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return self._fields[name]

    def _read(self, vids: list, rows, name: str) -> np.ndarray:
        """Field ``name`` of one kind's rows; on an evaluation error, of each
        variable's rows alone, so only the variables that raise are lost."""
        try:
            return getattr(rows, name)
        except _EVAL_ERRORS:
            pass
        k, n = len(vids), len(getattr(rows, fields(rows)[0].name))
        out, per = np.zeros((n,) + _SHAPES[name]), n // k - 1  # variants per variable
        for i, vid in enumerate(vids):
            sel = np.r_[i, k + per * i : k + per * (i + 1)]
            try:
                out[sel] = getattr(_take(rows, sel), name)
            except _EVAL_ERRORS as exc:
                self.errors.setdefault(vid, exc)
        return out

    def rows(self, rows: np.ndarray, rts_rows: np.ndarray | None) -> SimpleNamespace:
        """Rows as a single-target kind reads them: ``duals`` and ``rts``, or
        ``rotations`` and ``translations``."""
        out = SimpleNamespace(**{name + "s": self.field(name)[rows] for name in _READS[self.role]})
        out.rts = None if rts_rows is None else tuple(a[rts_rows] for a in self.rts)
        return out

    @cached_property
    def rts(self):
        """One :func:`rts_from_duals` of every row a decomposed prior reads."""
        return rts_from_duals(self.field("dual")[self.dec_rows])


def _evaluate(plan: _Plan, values: list, fd_step: float | None):
    """Residual rows of every factor, and their Jacobian for an ``fd_step``,
    at ``values``, each free kind's stacked value: (residual (m,) in
    factor-id order, Jacobian (m, n) or None, {factor position: evaluation
    error} of the factors to skip, whose rows mean nothing).
    """
    fd = fd_step is not None
    groups, dec_rows = plan.layout(fd)
    hs = [fd_step * value.fd_scales() if fd else None for value in values]
    stacks = {role: _Stack(plan, role, values, hs, dec_rows) for role in _READS}
    residual, h = np.empty(plan.m), np.empty(plan.n)
    jacobian = np.zeros((plan.m, plan.n)) if fd else None
    for columns, steps in zip(plan.kind_columns, hs if fd else ()):
        h[columns] = steps.ravel()
    worst = {}
    for name, g in groups.items():
        kind = FACTOR_KINDS[name]
        if kind.view is None:
            table, status = kind.rows(stacks[kind.roles[0]].rows(g.targets, g.rts), *g.payload)
        else:
            cameras = stacks["pose"].field("inverse_rt")
            if name not in plan.views and len(g.fixed):
                plan.views[name] = kind.view(cameras[g.fixed[:, 0]],
                                             *(a[g.fixed[:, 1]] for a in plan.packed[name]))
            views = [plan.views[name]] if len(g.fixed) else []
            views += [kind.view(cameras[g.cameras], *g.payload)] if len(g.cameras) else []
            view = views[0] if len(views) == 1 else tuple(map(np.concatenate, zip(*views)))
            table, status = kind.seen(stacks["landmark"].field("dual")[g.targets],
                                      *(a[g.pairs] for a in view))
        bad = np.maximum.reduceat(status, g.starts)  # a factor's rows are all evaluable iff 0
        worst.update((int(g.factors[k]), int(bad[k])) for k in np.flatnonzero(bad))
        residual[g.res] = table[g.starts]
        if len(g.plus):
            jacobian[g.jrows, g.jcols] = (table[g.plus] - table[g.minus]) / (2.0 * h[g.jcols])
    failed = {**stacks["pose"].errors, **stacks["landmark"].errors}
    errors = {i: failed[t] for i, f in enumerate(plan.factors if failed else ())  # a box: its landmark's
              for t in f.targets if t in failed}
    errors.update((i, evaluation_error(status)) for i, status in worst.items() if i not in errors)
    return residual, jacobian, errors


def _cost_of(values, factors: list, plan: _Plan | None = None):
    """(total Mahalanobis cost, skipped-factor count, per-factor costs) at
    ``values``: each free kind's stacked value under ``plan``, else every
    variable's value by id, all held fixed. A factor's cost has the bits of
    ``np.dot``; the total sums them in factor-id order."""
    if plan is None:
        plan, values = _Plan(factors, values), []
    residual, _, errors = _evaluate(plan, values, None)
    cost, scaled = np.empty(len(plan.factors)), residual / plan.variance
    for g in plan.layout(False)[0].values():
        cost[g.factors] = np.vecdot(residual[g.res], scaled[g.res])
    kept = np.ones(len(cost), dtype=bool)
    kept[list(errors)] = False
    total = float(np.cumsum(cost[kept])[-1]) if kept.any() else 0.0
    return total, len(errors), dict(zip([plan.factors[i].fid for i in np.flatnonzero(kept)],
                                        cost[kept].tolist()))


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


def _linearize(values, factors: list, free: list, plan: _Plan | None = None) -> Linearization:
    """The linearization in the ``free`` variables at ``values``, as for
    :func:`_cost_of`."""
    if plan is None:
        plan = _Plan(factors, values, free)
        values = plan.stack(values)
    residual, jacobian, errors = _evaluate(plan, values, FD_STEP)
    for i in sorted(errors):
        logger.debug("factor %s (%s) dropped: %s", plan.factors[i].fid, plan.factors[i].kind, errors[i])
    weights, owner = 1.0 / plan.variance, plan.owner
    if errors:
        kept = ~np.isin(owner, list(errors))
        jacobian, residual, weights, owner = jacobian[kept], residual[kept], weights[kept], owner[kept]
    finite = np.isfinite(jacobian).all(axis=1) & np.isfinite(residual)
    if not finite.all():
        bad = plan.factors[owner[np.argmin(finite)]]
        raise LinearizeError(f"non-finite residual or Jacobian in factor {bad.fid}")
    return Linearization(jacobian, residual, weights, plan.columns,
                         [plan.factors[i].fid for i in sorted(errors)])


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
    plan = _Plan(factors, values, free)
    stacked = plan.stack(values)
    cost, nskip, _ = _cost_of(stacked, factors, plan)
    trace = [cost]
    iter_times: list = []
    attempts = 0
    skip_events = 0
    lam = INIT_LAMBDA
    termination = "max_iterations"

    for _ in range(options.max_iterations):
        t0 = time.perf_counter()
        try:
            lin = _linearize(stacked, factors, free, plan)
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
                try:
                    candidate = [retract_value(value, delta[columns].reshape(-1, value.tangent_dim))
                                 for value, columns in zip(stacked, plan.kind_columns)]
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
        stacked = candidate
        values.update(plan.split(stacked))
        prev = cost
        cost, nskip = ccost, cnskip
        trace.append(cost)
        if _settle(values, free):
            # The settled state is the next linearization point, but the
            # acceptance bar stays at the accepted cost so the recorded
            # trace is monotone even when a fixup undoes progress.
            stacked = plan.stack(values)
            _, nskip, _ = _cost_of(stacked, factors, plan)
        lam = max(lam * LAMBDA_DOWN, 1e-15)
        if prev - cost <= REL_COST_TOL * max(prev, 1e-300):
            termination = "cost_converged"
            break

    return SolveReport(cost_trace=trace, variables=values, iterations=len(trace) - 1,
                       attempts=attempts, termination=termination, iter_times=iter_times,
                       lambda_final=lam, skipped_final=nskip, skip_events=skip_events,
                       unconstrained=unconstrained)


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
