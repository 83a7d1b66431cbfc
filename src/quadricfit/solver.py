"""Levenberg-Marquardt over a product manifold of poses and landmarks.

The solver is generic in its variables: poses (:class:`quadricfit.manifold.Pose`)
and the three landmark states (:mod:`quadricfit.quadric`) share one
protocol, ``tangent_dim`` / ``retract`` / ``fd_scales`` / ``settled``, and
the solver asks nothing else of them. It takes Jacobians by central finite
differences through the retraction, assembles the normal equations from
per-factor Jacobian blocks, solves them damped and dense, and replaces
the free variables by their ``settled()`` fixup after every accepted step.
Identical solver settings therefore compare parameterizations fairly; only
the retraction and its fixup differ.

Evaluations are array passes, one per variable kind and one per factor
kind. The free variables are held as one stacked value per kind (their
class: poses, and each parameterization's landmarks) from the plan to the
report, so the LM candidate step is one ``retract`` per kind, as are a
linearization's FD variants and an accepted step's ``settled()``. A
per-solve :class:`_Plan` holds what only the fixed variables and the
payloads decide, and the index arrays by which :func:`_evaluate` gathers
each factor kind's inputs from a :class:`_Stack` per role and scatters
its residual rows and central differences. A factor kind is one row call
through :data:`quadricfit.costs.FACTOR_KINDS`, so the solver has no
per-kind code. The cost sums, in factor-id order, exactly the residual
rows the Jacobian linearizes, and each row has the bits of the batch of
one that :func:`factor_residual` evaluates, so batching changes no result.

No linearization builds the (m, n) Jacobian. A factor reads at most one
pose and one landmark, so each free variable keeps only the rows of the
factors that read it (:class:`Linearization`). JᵀWJ is a batched product
per variable kind on the diagonal and one over the box factors that join
a free pose to a free landmark, each pair's block summed in factor-id
order. A problem with one free variable that every factor reads
gets the bits of the dense product.

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
        """The variables a solve steps: those not fixed that some factor reads."""
        read = {t for f in self.factors for t in f.targets}
        return [v for v in sorted(self.variables, key=str) if v not in self.fixed and v in read]

    def unconstrained(self) -> list:
        """Variables neither fixed nor read by any factor; a solve holds them fixed."""
        read = {t for f in self.factors for t in f.targets}
        return [v for v in sorted(self.variables, key=str) if v not in self.fixed and v not in read]


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

    @cached_property
    def table(self) -> SimpleNamespace:
        """Where a linearization keeps its Jacobian: a flat table of ``size``
        floats holding, per free kind, a (k, R, d) block of its variables'
        rows, each variable's those of the factors reading it in factor-id
        order, then zero rows up to the kind's longest. ``kinds`` gives each
        kind's table offset ``at``, the residual row of each block row,
        ``rows`` (k, R), ``m`` on zero rows, and its ``columns`` (k, d);
        ``first`` maps (factor position, variable) to the table position
        of the factor's block against the variable. ``cross`` holds per
        (pose kind, landmark kind) the box factors on a free pose and a
        free landmark, in factor-id order: the table positions of their
        pose and landmark blocks, their residual rows, ``at``, where each
        factor's product falls among its (pose, landmark) pairs' blocks,
        and the pairs' pose and landmark columns."""
        starts, count, first, both = self.starts.tolist(), dict.fromkeys(self.columns, 0), {}, []
        for i, f in enumerate(self.factors):
            free = [t for t in f.targets if t in count]
            for t in free:
                first[i, t], count[t] = count[t], count[t] + starts[i + 1] - starts[i]
            if len(free) == 2:
                both.append(i)
        where, kinds, size, nrows = {}, [], 0, 0  # per free variable: (kind, table at, d, row at)
        for a, (vids, columns) in enumerate(zip(self.kinds, self.kind_columns)):
            k, r = len(vids), max(count[vid] for vid in vids)
            d = columns.size // k
            kinds.append(SimpleNamespace(at=size, row_at=nrows, shape=(k, r),
                                         columns=columns.reshape(k, d)))
            where.update((vid, (a, size + s * r * d, d, nrows + s * r)) for s, vid in enumerate(vids))
            size, nrows = size + k * r * d, nrows + k * r
        to, src, dims = [], [], []
        for (i, t), row in first.items():
            _, at, d, row_at = where[t]
            to.append(row_at + row)
            src.append(starts[i])
            dims.append(starts[i + 1] - starts[i])
            first[i, t] = at + row * d
        step = np.arange(sum(dims)) - np.repeat(np.cumsum([0] + dims[:-1]), dims)
        rows = np.full(nrows, self.m)
        rows[np.repeat(to, dims) + step] = np.repeat(src, dims) + step
        for kind in kinds:
            kind.rows = rows[kind.row_at:kind.row_at + np.prod(kind.shape)].reshape(kind.shape)
        cross = {}
        for i in both:  # the camera kinds share one residual dimension
            pose, landmark = targets = self.factors[i].targets
            c = cross.setdefault((where[pose][0], where[landmark][0]), SimpleNamespace(
                pose=[], landmark=[], rows=[], at=[], pairs={}, dim=starts[i + 1] - starts[i],
                dp=where[pose][2], dl=where[landmark][2]))
            c.at.append(c.pairs.setdefault(targets, len(c.pairs)))
            c.pose.append(first[i, pose])
            c.landmark.append(first[i, landmark])
            c.rows.append(starts[i])
        for c in cross.values():
            c.pose = np.array(c.pose)[:, None, None] + np.arange(c.dim * c.dp).reshape(c.dim, c.dp)
            c.landmark = np.array(c.landmark)[:, None, None] + np.arange(c.dim * c.dl).reshape(c.dim, c.dl)
            c.rows = np.array(c.rows)[:, None] + np.arange(c.dim)
            c.at = np.array(c.at)[:, None] * (c.dp * c.dl) + np.arange(c.dp * c.dl)
            c.pose_columns, c.landmark_columns = (
                np.array([self.columns[pair[j]].start for pair in c.pairs])[:, None] + np.arange(d)
                for j, d in ((0, c.dp), (1, c.dl)))
        return SimpleNamespace(size=size, kinds=kinds, first=first, cross=list(cross.values()))

    def layout(self, fd: bool):
        """(groups, decomposed rows) of an evaluation, with FD variants if ``fd``.

        A factor kind's group gives its factors' kernel rows, each factor's
        contiguous from ``starts``: value, landmark variants, pose variants,
        each by the :class:`_Stack` row it reads (``targets``) and, for a box
        row, by its camera data (``pairs``: the ``fixed`` poses', a stack row
        and a factor each, then the free poses' ``cameras``). ``payload`` is
        packed per single row or free pair; ``res`` places the value rows in
        the residual; a Jacobian entry is its ``plus`` minus its ``minus``
        row over twice the step of column ``jcols``, at the positions
        ``blocks`` of :attr:`table`.
        """
        if fd in self._layouts:
            return self._layouts[fd]
        block_at = self.table.first if fd else {}
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
                                plus=[], minus=[], jcols=[], blocks=[], stride=[])
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
                    if d:
                        g.jcols += range(self.columns[t].start, self.columns[t].start + d)
                        g.blocks += range(block_at[i, t], block_at[i, t] + d)
                        g.stride += [d] * d
                    at += 2 * d
            vars(g).update({key: np.array(v, dtype=int) for key, v in vars(g).items()})
            g.factors, g.payload = np.array(members), tuple(a[g.owner] for a in self.packed[name])
            g.blocks = g.blocks[:, None] + g.stride[:, None] * np.arange(kind.dim)
            g.jcols = g.jcols[:, None]
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
    factor-id order, the Jacobian's blocks as ``plan``'s :attr:`_Plan.table`
    or None, {factor position: evaluation error} of the factors to skip,
    whose rows mean nothing).
    """
    fd = fd_step is not None
    groups, dec_rows = plan.layout(fd)
    hs = [fd_step * value.fd_scales() if fd else None for value in values]
    stacks = {role: _Stack(plan, role, values, hs, dec_rows) for role in _READS}
    residual, h = np.empty(plan.m), np.empty(plan.n)
    blocks = np.zeros(plan.table.size) if fd else None
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
            blocks[g.blocks] = (table[g.plus] - table[g.minus]) / (2.0 * h[g.jcols])
    failed = {**stacks["pose"].errors, **stacks["landmark"].errors}
    errors = {i: failed[t] for i, f in enumerate(plan.factors if failed else ())  # a box: its landmark's
              for t in f.targets if t in failed}
    errors.update((i, evaluation_error(status)) for i, status in worst.items() if i not in errors)
    return residual, blocks, errors


def _cost_of(plan: _Plan, values: list):
    """(total Mahalanobis cost, skipped-factor count, per-factor costs) at
    ``values``, each free kind's stacked value under ``plan``. A factor's
    cost has the bits of ``np.dot``; the total sums them in factor-id order."""
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
    return _cost_of(_Plan(problem.factors, problem.variables), [])[0]


def cost_breakdown(problem: Problem) -> dict:
    """Total cost per factor kind at the current variables."""
    out = {}
    _, _, per_factor = _cost_of(_Plan(problem.factors, problem.variables), [])
    by_fid = {f.fid: f for f in problem.factors}
    for fid, c in per_factor.items():
        out[by_fid[fid].kind] = out.get(by_fid[fid].kind, 0.0) + c
    return out


# ---------------------------------------------------------------------------
# Linearization


@dataclass
class Linearization:
    """The Jacobian as per-factor blocks; no (m, n) array is built.

    ``blocks`` holds per free kind (``columns`` (k, d), ``rows`` (k, R),
    ``jacobian`` (k, R, d)): each of its k variables' rows of ``residual``,
    those of the kept factors reading it in factor-id order, then
    ``len(residual)`` as padding, and its Jacobian there against its own d
    columns, zero on padding. ``cross`` holds per (pose kind, landmark
    kind) the kept box factors on a free pose and a free landmark, in
    factor-id order: (pose blocks (F, r, dp), their rows' weights (F, r),
    landmark blocks (F, r, dl), ``at`` (F, dp * dl), pose columns (Q, dp),
    landmark columns (Q, dl)), ``at`` placing each factor's product among
    the blocks of the Q (pose, landmark) pairs.
    """

    blocks: list
    cross: list
    residual: np.ndarray  # (m,)
    weights: np.ndarray  # (m,) inverse variances
    columns: dict  # variable id -> slice into the tangent coordinates
    skipped: list  # factor ids dropped this linearization

    def normal_equations(self) -> tuple:
        """(H, g) = (JᵀWJ, JᵀWr), summed in a fixed order from the blocks.

        A variable's diagonal block and gradient are ``C.T @ (w C)`` and
        ``C.T @ (w r)`` over its rows C, one batched matmul per kind, so a
        problem with one free variable gets the bits of the dense product.
        A pose-landmark block sums its box factors' ``P.T @ (w L)``, one
        batched matmul per kind pair, in factor-id order; entries between
        variables that share no factor are 0.
        """
        n = sum(columns.size for columns, _, _ in self.blocks)
        hess, grad = np.zeros((n, n)), np.empty(n)
        weights, weighted = np.append(self.weights, 0.0), np.append(self.weights * self.residual, 0.0)
        for columns, rows, jacobian in self.blocks:
            transposed = jacobian.transpose(0, 2, 1)
            grad[columns] = np.matmul(transposed, weighted[rows][..., None])[..., 0]
            hess[columns[:, :, None], columns[:, None, :]] = np.matmul(
                transposed, weights[rows][..., None] * jacobian)
        for pose, w, landmark, at, pose_columns, landmark_columns in self.cross:
            q, dp, dl = len(pose_columns), pose.shape[2], landmark.shape[2]
            products = np.matmul(pose.transpose(0, 2, 1), w[..., None] * landmark)
            block = np.bincount(at.ravel(), products.ravel(), q * dp * dl).reshape(q, dp, dl)
            hess[pose_columns[:, :, None], landmark_columns[:, None, :]] = block
            hess[landmark_columns[:, :, None], pose_columns[:, None, :]] = block.transpose(0, 2, 1)
        return hess, grad


def _linearize(plan: _Plan, values: list) -> Linearization:
    """The linearization in ``plan``'s free variables at ``values``, each
    free kind's stacked value. A skipped factor's rows leave the residual
    and every block; the later rows close ranks."""
    residual, table, errors = _evaluate(plan, values, FD_STEP)
    for i in sorted(errors):
        logger.debug("factor %s (%s) dropped: %s", plan.factors[i].fid, plan.factors[i].kind, errors[i])
    weights, layout = 1.0 / plan.variance, plan.table
    kept = ~np.isin(plan.owner, list(errors)) if errors else np.ones(plan.m, dtype=bool)
    finite, ok = np.isfinite(residual), np.isfinite(table)
    blocks = []
    for kind in layout.kinds:
        k, r, d = *kind.rows.shape, kind.columns.shape[1]
        span = slice(kind.at, kind.at + k * r * d)
        finite[kind.rows[~ok[span].reshape(k, r, d).all(axis=2)]] = False
        blocks.append((kind.columns, kind.rows, table[span].reshape(k, r, d)))
    if not finite[kept].all():
        bad = plan.factors[plan.owner[np.argmax(kept & ~finite)]]
        raise LinearizeError(f"non-finite residual or Jacobian in factor {bad.fid}")
    cross = []
    for c in layout.cross:
        on = kept[c.rows[:, 0]]
        cross.append((table[c.pose[on]], weights[c.rows[on]], table[c.landmark[on]], c.at[on],
                      c.pose_columns, c.landmark_columns))
    if errors:
        index = np.append(np.cumsum(kept) - 1, kept.sum())  # residual row -> kept row; padding
        blocks = [_compact(columns, index[rows], jacobian, np.append(kept, False)[rows], index[-1])
                  for columns, rows, jacobian in blocks]
        residual, weights = residual[kept], weights[kept]
    return Linearization(blocks, cross, residual, weights, plan.columns,
                         [plan.factors[i].fid for i in sorted(errors)])


def _compact(columns: np.ndarray, rows: np.ndarray, jacobian: np.ndarray, keep: np.ndarray,
             pad: int):
    """A kind's block with only the ``keep`` rows (k, R), in their order,
    padded with row ``pad`` to the longest variable's."""
    slot, row = np.nonzero(keep)
    to = np.cumsum(keep, axis=1)[slot, row] - 1
    out = np.zeros((len(keep), int(keep.sum(axis=1).max()), jacobian.shape[2]))
    index = np.full(out.shape[:2], pad)
    out[slot, to], index[slot, to] = jacobian[slot, row], rows[slot, row]
    return columns, index, out


def linearize(problem: Problem) -> Linearization:
    """Public linearization of a problem at its current variables."""
    plan = _Plan(problem.factors, problem.variables, problem.free_ids())
    return _linearize(plan, plan.stack(problem.variables))


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
    plan = _Plan(problem.factors, problem.variables, problem.free_ids())
    if not plan.kinds:
        raise ProblemError("problem has no free variables")
    stacked = plan.stack(problem.variables)
    cost, nskip, _ = _cost_of(plan, stacked)
    trace = [cost]
    iter_times: list = []
    attempts = 0
    skip_events = 0
    lam = INIT_LAMBDA
    termination = "max_iterations"

    for _ in range(options.max_iterations):
        t0 = time.perf_counter()
        try:
            lin = _linearize(plan, stacked)
        except LinearizeError:
            termination = "diverged"
            break
        skip_events += len(lin.skipped)
        if lin.residual.size == 0:
            termination = "diverged"
            break
        hess, grad = lin.normal_equations()
        if np.max(np.abs(grad)) < GRAD_TOL:
            termination = "gradient"
            iter_times.append(time.perf_counter() - t0)
            break
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
                    ccost, cnskip, _ = _cost_of(plan, candidate)
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
        prev = cost
        cost, nskip = ccost, cnskip
        trace.append(cost)
        stacked = [value.settled() for value in candidate]
        if any(settled is not value for settled, value in zip(stacked, candidate)):
            # The settled state is the next linearization point, but the
            # acceptance bar stays at the accepted cost so the recorded
            # trace is monotone even when a fixup undoes progress.
            _, nskip, _ = _cost_of(plan, stacked)
        lam = max(lam * LAMBDA_DOWN, 1e-15)
        if prev - cost <= REL_COST_TOL * max(prev, 1e-300):
            termination = "cost_converged"
            break

    return SolveReport(cost_trace=trace, variables={**problem.variables, **plan.split(stacked)},
                       iterations=len(trace) - 1, attempts=attempts, termination=termination,
                       iter_times=iter_times, lambda_final=lam, skipped_final=nskip,
                       skip_events=skip_events, unconstrained=unconstrained)


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
