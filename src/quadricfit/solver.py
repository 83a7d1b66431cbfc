"""Levenberg-Marquardt over a product manifold of poses and landmarks.

The solver is generic in its variables: poses (:class:`quadricfit.manifold.Pose`)
and the three landmark states (:mod:`quadricfit.quadric`) share one
protocol, ``tangent_dim`` / ``retract`` / ``fd_scales`` / ``settled``, and
the solver asks nothing else of them. A box factor's Jacobian is the
closed-form derivative of its rows against the dual quadric and the
camera's [R|t] (:attr:`quadricfit.costs.FactorKind.slopes`), chained
through each free variable's differential: the central difference of its
dual or its [R|t] over a step of the retraction. A prior's Jacobian is
central finite differences of its rows through the retraction. The solver
assembles the normal equations from per-factor Jacobian blocks, solves
them damped and dense, and replaces the free variables by their
``settled()`` fixup after every accepted step. Identical solver settings
therefore compare parameterizations fairly; only the retraction and its
fixup differ.

Evaluations are array passes, one per variable kind and one per factor
kind. The free variables are held as one stacked value per kind (their
class: poses, and each parameterization's landmarks) from the plan to the
report, so the LM candidate step is one ``retract`` per kind, as are a
linearization's FD variants and an accepted step's ``settled()``. A
per-solve :class:`_Plan` holds what only the fixed variables and the
payloads decide, and the index arrays by which :func:`_evaluate` gathers
each factor kind's inputs from a :class:`_Stack` per role and scatters
its residual rows and Jacobian. A box kind's kernels see only the value
rows, one per factor. A factor kind is one row call
through :data:`quadricfit.costs.FACTOR_KINDS`, so the solver has no
per-kind code. The cost sums, in factor-id order, exactly the residual
rows the Jacobian linearizes, and each row has the bits of the batch of
one that :func:`factor_residual` evaluates, so batching changes no result.

No linearization builds the (m, n) Jacobian. A factor reads at most one
pose and one landmark, so each free variable kind's Jacobian is one
(m + 1, d) row array: row i against the variable of that kind that
residual row i's factor reads. Each free variable keeps only the rows of
the factors that read it (:class:`Linearization`), gathered by row lists
that a solve builds once and a linearization that skips a factor builds
again from the kept rows. JᵀWJ is a batched product per variable kind on
the diagonal and one over the box factors that join a free pose to a
free landmark, each pair's block summed in factor-id order. A problem
with one free variable that every factor reads gets the bits of the
dense product.

Factors that cannot be evaluated at the current state (landmark behind the
camera, degenerate projection) are dropped for that evaluation with a skip
count. A linearization drops a box factor by its value row alone, as the
cost does, and a prior also when an FD variant of its variable cannot be
evaluated; a factor whose variable's variants cannot be formed at all has
no differential and is dropped too. A candidate step is only accepted when it does not increase the
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
from .manifold import Pose, require_integer
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
    as NaN residuals, whose cost no step can decrease. A factor's "pose"
    targets (its kind's roles) must be poses and its "landmark" targets
    not, so a factor reads at most one variable of each kind.
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
            for t, role in zip(f.targets, FACTOR_KINDS[f.kind].roles):
                if t not in self.variables:
                    raise ProblemError(f"factor {f.fid} references unknown variable {t!r}")
                if isinstance(self.variables[t], Pose) != (role == "pose"):
                    raise ProblemError(f"factor {f.fid} ({f.kind}) needs a {role} for {t!r}")

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
# The (role, stack field) of a box kind's slopes, in their order: a landmark's
# dual, a pose's camera-from-world [R|t].
_SLOPES = (("landmark", "dual"), ("pose", "inverse_rt"))


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
        floats holding, per free kind from its offset ``at``, one (m + 1, d)
        row array. Its row i is residual row i's derivative against the
        kind's variable that row i's factor reads, zero when it reads none,
        and row m is zero. A kind gives also its ``columns`` (k, d), each
        residual row's ``slot`` (m,), the position among the k of the
        variable read there, or k, and ``rows`` (k, R), each variable's
        residual rows in factor-id order padded with m (:func:`_row_lists`).
        ``cross`` holds per (pose kind, landmark kind) the box factors on a
        free pose and a free landmark, in factor-id order: the kinds'
        positions ``pose`` and ``landmark``, the factors' residual ``rows``,
        ``at``, where each factor's product falls among its (pose, landmark)
        pairs' blocks, and the pairs' pose and landmark columns."""
        place = {vid: (a, s) for a, vids in enumerate(self.kinds) for s, vid in enumerate(vids)}
        kinds, cross, size = [], {}, 0
        for vids, columns in zip(self.kinds, self.kind_columns):
            d = columns.size // len(vids)
            kinds.append(SimpleNamespace(at=size, d=d, columns=columns.reshape(-1, d),
                                         slot=np.full(self.m, len(vids))))
            size += (self.m + 1) * d
        for i, f in enumerate(self.factors):
            rows = range(self.starts[i], self.starts[i + 1])
            for t in f.targets:
                if t in place:
                    kinds[place[t][0]].slot[rows] = place[t][1]
            if len(f.targets) == 2 and all(t in place for t in f.targets):
                pose, landmark = (place[t][0] for t in f.targets)
                c = cross.setdefault((pose, landmark), SimpleNamespace(
                    pose=pose, landmark=landmark, rows=[], at=[], pairs={}))
                c.at.append(c.pairs.setdefault(f.targets, len(c.pairs)))
                c.rows.append(rows)
        for kind in kinds:
            kind.rows = _row_lists(kind, np.ones(self.m, dtype=bool))
        for c in cross.values():
            dp, dl = kinds[c.pose].d, kinds[c.landmark].d
            c.rows = np.array(c.rows)  # the camera kinds share one residual dimension
            c.at = np.array(c.at)[:, None] * (dp * dl) + np.arange(dp * dl)
            c.pose_columns, c.landmark_columns = (
                np.array([self.columns[pair[j]].start for pair in c.pairs])[:, None] + np.arange(d)
                for j, d in ((0, dp), (1, dl)))
        return SimpleNamespace(size=size, kinds=kinds, cross=list(cross.values()))

    def layout(self, fd: bool):
        """(groups, decomposed rows, steps) of an evaluation, with FD
        variants if ``fd``.

        A role's :class:`_Stack` rows are every variable's value, then, with
        ``fd``, the variants of each free kind's variables, whose rows
        ``steps`` gives per kind (k, 2, d), plus then minus steps.

        A factor kind's group gives its factors' kernel rows, each factor's
        contiguous from ``starts``, by the stack row each reads
        (``targets``); ``res`` places the value rows in the residual.
        A prior reads its variable's value and, with ``fd``, its variants,
        with its payload per row (``payload``); a Jacobian entry is its
        ``plus`` minus its ``minus`` row over twice the step of column
        ``jcols``, at the positions ``blocks`` of :attr:`table`: its row
        array's ``at + row * d + j``.
        A box factor reads one row, its landmark's value seen from its pose
        value's camera (the pose stack's row ``cameras``). The camera data
        of the factors on ``fixed`` poses come first, then those on ``free``
        poses (whose payloads ``payload`` holds), and ``pairs`` puts them in
        factor order. With ``fd``, ``chains`` gives per target role ``r``
        (an index of :data:`_SLOPES`) and
        free kind ``a`` the factors ``sel`` reading the kind's variables
        ``slot``, and the positions ``index`` (F, dim, d) of their products
        in :attr:`table`.
        """
        if fd in self._layouts:
            return self._layouts[fd]
        place = {vid: (a, s) for a, vids in enumerate(self.kinds) for s, vid in enumerate(vids)}
        value, steps, size = {}, [], dict.fromkeys(_READS, 0)
        for vids in [vids for vids, _ in self.fixed] + self.kinds:
            role, k = self.role[vids[0]], len(vids)
            value.update(zip(vids, range(size[role], size[role] + k)))
            size[role] += k
            if vids[0] in place:  # a free kind: its variants follow its values
                d = len(self.kind_columns[place[vids[0]][0]]) // k if fd else 0
                steps.append(size[role] + np.arange(2 * k * d).reshape(k, 2, d))
                size[role] += 2 * k * d
        groups = {}
        for name, members in self.groups.items():
            group = self._prior_group if FACTOR_KINDS[name].view is None else self._box_group
            groups[name] = group(name, members, value, place, steps if fd else None)
            groups[name].factors = np.array(members)
            groups[name].res = self.starts[members][:, None] + np.arange(FACTOR_KINDS[name].dim)
        decomposed = {name for name in groups if FACTOR_KINDS[name].decomposed}
        read = np.zeros(size["landmark"], dtype=bool)  # np.unique would import numpy.ma
        read[np.concatenate([groups[name].targets for name in decomposed] or [np.zeros(0, int)])] = True
        dec_rows = np.flatnonzero(read)
        for name, g in groups.items():
            g.rts = np.searchsorted(dec_rows, g.targets) if name in decomposed else None
        self._layouts[fd] = groups, dec_rows, steps
        return self._layouts[fd]

    def _prior_group(self, name: str, members: list, value: dict, place: dict, steps: list | None):
        """A single-target kind's group of :meth:`layout`: each factor's
        variable's value row and, given ``steps``, a free one's variants."""
        g = SimpleNamespace(targets=[], starts=[], owner=[], plus=[], minus=[], jcols=[], blocks=[])
        dim = FACTOR_KINDS[name].dim
        for j, i in enumerate(members):
            (t,) = self.factors[i].targets
            g.starts.append(len(g.targets))
            g.targets.append(value[t])
            if steps is not None and t in place:
                a, at = place[t][0], len(g.targets)
                rows = steps[a][place[t][1]]
                d = rows.shape[1]
                g.targets += rows.ravel().tolist()
                g.plus += range(at, at + d)
                g.minus += range(at + d, at + 2 * d)
                g.jcols += range(self.columns[t].start, self.columns[t].start + d)
                block = self.table.kinds[a].at + self.starts[i] * d  # the factor's first row
                g.blocks += [range(c, c + dim * d, d) for c in range(block, block + d)]
            g.owner += [j] * (len(g.targets) - g.starts[-1])
        vars(g).update({key: np.array(v, dtype=int) for key, v in vars(g).items()})
        g.payload, g.jcols = tuple(a[g.owner] for a in self.packed[name]), g.jcols[:, None]
        return g

    def _box_group(self, name: str, members: list, value: dict, place: dict, steps: list | None):
        """A camera kind's group of :meth:`layout`: one row a factor and,
        given ``steps``, the chains of its free targets."""
        poses, landmarks = zip(*(self.factors[i].targets for i in members))
        free = np.array([t in place for t in poses])
        g = SimpleNamespace(targets=np.array([value[t] for t in landmarks]),
                            starts=np.arange(len(members)), cameras=np.array([value[t] for t in poses]),
                            fixed=np.flatnonzero(~free), free=np.flatnonzero(free), chains=[])
        g.pairs = np.argsort(np.concatenate([g.fixed, g.free]))
        g.payload = tuple(a[g.free] for a in self.packed[name])
        rows = self.starts[members][:, None] + np.arange(FACTOR_KINDS[name].dim)
        for r, targets in enumerate((landmarks, poses) if steps is not None else ()):
            read = {}  # free kind -> (factor, variable position) pairs
            for j, t in enumerate(targets):
                if t in place:
                    read.setdefault(place[t][0], []).append((j, place[t][1]))
            for a, pairs in read.items():
                sel, slot = np.array(pairs).T
                kind = self.table.kinds[a]
                g.chains.append((r, a, sel, slot, kind.at + rows[sel][:, :, None] * kind.d + np.arange(kind.d)))
        return g


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

    A prior's Jacobian is the central differences of its rows over its
    variable's FD variants. A box factor's is its closed-form slopes
    (:attr:`~quadricfit.costs.FactorKind.slopes`) against the dual and the
    camera's [R|t], times the central differences of the dual or the [R|t]
    over the same variants (:func:`_differential`), one batched matmul
    per factor kind and free variable kind.
    """
    fd = fd_step is not None
    groups, dec_rows, steps = plan.layout(fd)
    hs = [fd_step * value.fd_scales() if fd else None for value in values]
    stacks = {role: _Stack(plan, role, values, hs, dec_rows) for role in _READS}
    residual, h = np.empty(plan.m), np.empty(plan.n)
    blocks = np.zeros(plan.table.size) if fd else None
    for columns, step in zip(plan.kind_columns, hs if fd else ()):
        h[columns] = step.ravel()
    differentials, worst = {}, {}
    for name, g in groups.items():
        kind = FACTOR_KINDS[name]
        if kind.view is None:
            table, status = kind.rows(stacks[kind.roles[0]].rows(g.targets, g.rts), *g.payload)
            if len(g.plus):
                blocks[g.blocks] = (table[g.plus] - table[g.minus]) / (2.0 * h[g.jcols])
        else:
            cameras = stacks["pose"].field("inverse_rt")
            if name not in plan.views and len(g.fixed):
                plan.views[name] = kind.view(cameras[g.cameras[g.fixed]],
                                             *(a[g.fixed] for a in plan.packed[name]))
            views = [plan.views[name]] if len(g.fixed) else []
            views += [kind.view(cameras[g.cameras[g.free]], *g.payload)] if len(g.free) else []
            view = views[0] if len(views) == 1 else tuple(np.concatenate(v)[g.pairs] for v in zip(*views))
            duals = stacks["landmark"].field("dual")[g.targets]
            table, status = kind.seen(duals, *view)
            slopes = kind.slopes(duals, *view) if g.chains else ()
            for r, a, sel, slot, index in g.chains:
                if a not in differentials:
                    role, against = _SLOPES[r]
                    differentials[a] = _differential(stacks[role].field(against), steps[a], hs[a])
                blocks[index] = np.matmul(slopes[r].reshape(len(duals), kind.dim, -1)[sel],
                                          differentials[a][slot])
        bad = np.maximum.reduceat(status, g.starts)  # a factor's rows are all evaluable iff 0
        worst.update((int(g.factors[k]), int(bad[k])) for k in np.flatnonzero(bad))
        residual[g.res] = table[g.starts]
    failed = {**stacks["pose"].errors, **stacks["landmark"].errors}
    errors = {i: failed[t] for i, f in enumerate(plan.factors if failed else ())  # a box: its landmark's
              for t in f.targets if t in failed}
    errors.update((i, evaluation_error(status)) for i, status in worst.items() if i not in errors)
    return residual, blocks, errors


def _differential(field: np.ndarray, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A free kind's central differences (k, X, d) of ``field``, the stack
    field a box kind reads (X entries a row), over its variables' FD
    variant ``rows`` (k, 2, d), plus then minus, at steps ``h`` (k, d)."""
    k, d = h.shape
    delta = (field[rows[:, 0]] - field[rows[:, 1]]) / (2.0 * h[:, :, None, None])
    return np.ascontiguousarray(delta.reshape(k, d, -1).transpose(0, 2, 1))


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
    columns, zero on padding: one gather of the kind's (m + 1, d) row array
    (:attr:`_Plan.table`), whose last row is zero. ``cross`` holds per
    (pose kind, landmark kind) the kept box factors on a free pose and a
    free landmark, in factor-id order: (pose blocks (F, r, dp), their rows'
    weights (F, r), landmark blocks (F, r, dl), ``at`` (F, dp * dl), pose
    columns (Q, dp), landmark columns (Q, dl)), ``at`` placing each
    factor's product among the blocks of the Q (pose, landmark) pairs; the
    blocks are the row arrays gathered by the factors' residual rows.
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
    weights, layout, m = 1.0 / plan.variance, plan.table, plan.m
    kept = ~np.isin(plan.owner, list(errors)) if errors else np.ones(m, dtype=bool)
    arrays = [table[kind.at:kind.at + (m + 1) * kind.d].reshape(m + 1, kind.d) for kind in layout.kinds]
    finite = np.isfinite(residual)
    for array in arrays:
        finite &= np.isfinite(array[:m]).all(axis=1)
    if not finite[kept].all():
        bad = plan.factors[plan.owner[np.argmax(kept & ~finite)]]
        raise LinearizeError(f"non-finite residual or Jacobian in factor {bad.fid}")
    cross = []
    for c in layout.cross:
        on = kept[c.rows[:, 0]]
        rows = c.rows[on]
        cross.append((arrays[c.pose][rows], weights[rows], arrays[c.landmark][rows], c.at[on],
                      c.pose_columns, c.landmark_columns))
    blocks = []
    for kind, array in zip(layout.kinds, arrays):
        rows = _row_lists(kind, kept) if errors else kind.rows
        blocks.append((kind.columns, rows, array[rows]))
    if errors:
        index = np.append(np.cumsum(kept) - 1, kept.sum())  # residual row -> kept row; padding
        blocks = [(columns, index[rows], jacobian) for columns, rows, jacobian in blocks]
        residual, weights = residual[kept], weights[kept]
    return Linearization(blocks, cross, residual, weights, plan.columns,
                         [plan.factors[i].fid for i in sorted(errors)])


def _row_lists(kind: SimpleNamespace, keep: np.ndarray) -> np.ndarray:
    """Each of a :attr:`_Plan.table` kind's k variables' residual rows among
    ``keep``, those whose ``slot`` is its position, in order and padded with
    m to the longest variable's: (k, R)."""
    slot, k = kind.slot, len(kind.columns)
    rows = np.flatnonzero(keep & (slot < k))
    rows = rows[np.argsort(slot[rows], kind="stable")]
    counts = np.bincount(slot[rows], minlength=k)
    out = np.full((k, counts.max()), len(slot))
    out[slot[rows], np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)] = rows
    return out


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
