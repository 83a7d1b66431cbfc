"""Levenberg-Marquardt over a product manifold of poses and landmarks.

The solver is generic in the landmark parameterization: it only asks each
variable for its tangent dimension and retraction, takes Jacobians by
central finite differences through the retraction, and solves damped dense
normal equations. Identical solver settings therefore compare
parameterizations fairly; only the retraction differs.

Factors that cannot be evaluated at the current state (landmark behind the
camera, degenerate projection) are dropped for that evaluation with a skip
count; a candidate step is only accepted when it does not increase the
skip count and strictly decreases the total cost, so the reported cost
trace is monotone across accepted steps and "all factors dropped" is never
an attractor.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .costs import (
    BehindCameraError,
    CameraFrame,
    DegenerateProjectionError,
    Factor,
    box_edge_planes,
    residual_box_inverse,
    residual_box_semi,
    residual_orientation,
    residual_pose_prior,
    residual_shape,
    residual_size,
    residual_support,
)
from .manifold import InvalidInputError, Pose, orthonormalize, pose_retract
from .quadric import DegenerateLandmarkError, FullState, RtsState, SpdState, regularize_full

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


# ---------------------------------------------------------------------------
# Variable dispatch (poses are plain Pose values; landmarks carry their own
# retraction, see quadricfit.quadric)


def tangent_dim(value) -> int:
    if isinstance(value, Pose):
        return 6
    return value.tangent_dim


def retract_value(value, delta: np.ndarray):
    if isinstance(value, Pose):
        return pose_retract(value, delta)
    return value.retract(delta)


def fd_scales(value) -> np.ndarray:
    if isinstance(value, Pose):
        return np.concatenate([np.ones(3), 1.0 + np.abs(value.translation)])
    return value.fd_scales()


def landmark_dual(value) -> np.ndarray:
    return value.dual


def is_landmark(value) -> bool:
    return isinstance(value, (RtsState, SpdState, FullState))


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
    gauss_newton: bool = False  # damping held at zero
    size_form: str = "sqrt"

    def __post_init__(self):
        for name in ("max_iterations", "init_lambda", "lambda_up", "lambda_down",
                     "rel_cost_tol", "grad_tol", "fd_step", "max_inner_retries"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"solve option {name} must be positive")


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
    success_factor: float = 1.5

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]

    @property
    def diverged(self) -> bool:
        return self.termination == "diverged"


# ---------------------------------------------------------------------------
# Residual evaluation


def _frame_for(factor: Factor, pose: Pose) -> CameraFrame:
    return CameraFrame(factor.payload["intrinsics"], pose)


def factor_residual(factor: Factor, values: dict) -> np.ndarray:
    """Residual vector of one factor at the given variable values.

    Raises the evaluation errors (behind camera, degenerate projection or
    landmark) that the solver treats as per-iteration skips.
    """
    kind = factor.kind
    if kind in ("box-inverse", "box-semi"):
        pose = values[factor.targets[0]]
        q = landmark_dual(values[factor.targets[1]])
        frame = _frame_for(factor, pose)
        box = factor.payload["box"]
        if kind == "box-inverse":
            return residual_box_inverse(frame, q, box)
        return residual_box_semi(frame, q, box)
    value = values[factor.targets[0]]
    if kind == "orientation":
        return residual_orientation(landmark_dual(value), factor.payload["direction"])
    if kind == "shape":
        return residual_shape(landmark_dual(value), factor.payload["prior"])
    if kind == "size":
        return np.array(
            [residual_size(landmark_dual(value), factor.payload["prior"],
                           factor.payload.get("form", "sqrt"))]
        )
    if kind == "support":
        return np.array([residual_support(landmark_dual(value), factor.payload["plane"])])
    if kind == "pose-prior":
        return residual_pose_prior(value, factor.payload["observed"])
    raise InvalidInputError(f"unknown factor kind {kind!r}")


def _try_residual(factor: Factor, values: dict):
    try:
        return factor_residual(factor, values)
    except _EVAL_ERRORS:
        return None


def _cost_of(values: dict, factors: list):
    """(total Mahalanobis cost, skipped-factor count, per-factor costs)."""
    total = 0.0
    skipped = 0
    per_factor = {}
    for f in sorted(factors, key=lambda f: f.fid):
        r = _try_residual(f, values)
        if r is None:
            skipped += 1
            continue
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
    """Center value plus per-coordinate +/- retracted values of one variable."""

    def __init__(self, value, fd_step: float):
        self.value = value
        self.dim = tangent_dim(value)
        self.h = fd_step * fd_scales(value)
        self.plus = []
        self.minus = []
        for j in range(self.dim):
            step = np.zeros(self.dim)
            step[j] = self.h[j]
            self.plus.append(self._safe_retract(value, step))
            self.minus.append(self._safe_retract(value, -step))
        if is_landmark(value):
            rows = [self._safe_dual(value)]
            rows += [self._safe_dual(v) for v in self.plus]
            rows += [self._safe_dual(v) for v in self.minus]
            self.valid = np.array([r is not None for r in rows])
            self.duals = np.stack(
                [r if r is not None else np.zeros((4, 4)) for r in rows]
            )
        else:
            self.valid = np.ones(1 + 2 * self.dim, dtype=bool)
            self.duals = None

    @staticmethod
    def _safe_retract(value, step):
        try:
            return retract_value(value, step)
        except _EVAL_ERRORS:
            return None

    @staticmethod
    def _safe_dual(value):
        if value is None:
            return None
        try:
            return landmark_dual(value)
        except _EVAL_ERRORS:
            return None


def _box_residual_table(factor: Factor, frame: CameraFrame, duals: np.ndarray):
    """Residuals of a box factor for a stack of dual quadrics.

    Returns (residuals (k, 4), ok (k,)); routed through the kernel backend.
    """
    intr = factor.payload["intrinsics"]
    box = factor.payload["box"]
    if factor.kind == "box-inverse":
        boxes, ok = _kernels.boxes_from_duals(
            intr.fx, intr.fy, intr.cx, intr.cy, frame.projection_rt(), duals
        )
        return boxes - box.as_array(), ok
    planes = box_edge_planes(frame, box)
    vals, ok = _kernels.tangency_values(planes, duals)
    return vals, ok


def _linearize(values: dict, factors: list, free: list, options: SolveOptions) -> Linearization:
    variants = {vid: _Variants(values[vid], options.fd_step) for vid in free}
    columns = {}
    offset = 0
    for vid in free:
        d = variants[vid].dim
        columns[vid] = slice(offset, offset + d)
        offset += d
    n = offset

    rows_j, rows_r, rows_w, skipped = [], [], [], []
    for f in sorted(factors, key=lambda f: f.fid):
        block = _factor_block(f, values, variants, columns, n)
        if block is None:
            logger.debug("factor %s (%s) unevaluable at current state; dropped", f.fid, f.kind)
            skipped.append(f.fid)
            continue
        jac, res = block
        if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(res))):
            raise LinearizeError(f"non-finite residual or Jacobian in factor {f.fid}")
        rows_j.append(jac)
        rows_r.append(res)
        rows_w.append(1.0 / f.variance)
    if rows_j:
        jacobian = np.vstack(rows_j)
        residual = np.concatenate(rows_r)
        weights = np.concatenate(rows_w)
    else:
        jacobian = np.zeros((0, n))
        residual = np.zeros(0)
        weights = np.zeros(0)
    return Linearization(jacobian, residual, weights, columns, skipped)


def _factor_block(f: Factor, values: dict, variants: dict, columns: dict, n: int):
    """(jacobian rows, residual) of one factor, or None when skipped."""
    free_targets = [t for t in f.targets if t in variants]

    # Fast path: box factor whose landmark is free -> batched kernel call.
    if f.kind in ("box-inverse", "box-semi"):
        pose_id, lm_id = f.targets
        pose_free = pose_id in variants
        lm_free = lm_id in variants
        frame = _frame_for(f, values[pose_id])
        jac = np.zeros((f.dim, n))
        if lm_free:
            var = variants[lm_id]
            if not var.valid.all():
                return None
            table, ok = _box_residual_table(f, frame, var.duals)
            if not ok.all():
                return None
            res = table[0]
            d = var.dim
            cols = columns[lm_id]
            jac[:, cols] = (table[1 : 1 + d] - table[1 + d :]).T / (2.0 * var.h)
        else:
            q = _Variants._safe_dual(values[lm_id])
            if q is None:
                return None
            table, ok = _box_residual_table(f, frame, q[None])
            if not ok[0]:
                return None
            res = table[0]
        if pose_free:
            var = variants[pose_id]
            cols = columns[pose_id]
            qc = variants[lm_id].duals[0] if lm_free else _Variants._safe_dual(values[lm_id])
            for j in range(var.dim):
                pair = []
                for v in (var.plus[j], var.minus[j]):
                    if v is None:
                        return None
                    t, ok = _box_residual_table(f, _frame_for(f, v), qc[None])
                    if not ok[0]:
                        return None
                    pair.append(t[0])
                jac[:, cols][:, j] = (pair[0] - pair[1]) / (2.0 * var.h[j])
        return jac, res

    # Generic path: plain central differences through the retraction.
    res = _try_residual(f, values)
    if res is None:
        return None
    jac = np.zeros((f.dim, n))
    scratch = dict(values)
    for t in free_targets:
        var = variants[t]
        cols = columns[t]
        for j in range(var.dim):
            pair = []
            for v in (var.plus[j], var.minus[j]):
                if v is None:
                    return None
                scratch[t] = v
                r = _try_residual(f, scratch)
                if r is None:
                    return None
                pair.append(r)
            jac[:, cols.start + j] = (pair[0] - pair[1]) / (2.0 * var.h[j])
        scratch[t] = values[t]
    return jac, res


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


def _renormalize_rotations(values: dict, free: list) -> None:
    for vid in free:
        v = values[vid]
        if isinstance(v, Pose):
            r = v.rotation
            if np.max(np.abs(r @ r.T - np.eye(3))) > _ROT_DRIFT_TOL:
                values[vid] = Pose(orthonormalize(r), v.translation)
        elif isinstance(v, RtsState):
            r = v.rotation
            if np.max(np.abs(r @ r.T - np.eye(3))) > _ROT_DRIFT_TOL:
                values[vid] = RtsState(orthonormalize(r), v.translation, v.scale)


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
    cost, nskip, _ = _cost_of(values, factors)
    trace = [cost]
    iter_times: list = []
    attempts = 0
    skip_events = 0
    lam = 0.0 if options.gauss_newton else options.init_lambda
    termination = "max_iterations"

    for _ in range(options.max_iterations):
        t0 = time.perf_counter()
        try:
            lin = _linearize(values, factors, free, options)
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
        solve_failed = False
        evals = 0
        while True:
            try:
                delta = np.linalg.solve(hess + lam * np.eye(n), -grad)
                if not np.all(np.isfinite(delta)):
                    raise np.linalg.LinAlgError("non-finite step")
                solve_failed = False
            except np.linalg.LinAlgError:
                solve_failed = True
                if options.gauss_newton or lam >= _LAMBDA_MAX:
                    break
                lam = min(lam * options.lambda_up, _LAMBDA_MAX)
                continue
            # Over-long steps are outside the model's trust region: raise the
            # damping without spending a cost evaluation on them.
            if np.max(np.abs(delta)) > options.max_step and not options.gauss_newton:
                if lam >= _LAMBDA_MAX:
                    break
                lam = min(lam * options.lambda_up, _LAMBDA_MAX)
                continue
            attempts += 1
            evals += 1
            candidate = dict(values)
            try:
                for vid in free:
                    candidate[vid] = retract_value(values[vid], delta[lin.columns[vid]])
                ccost, cnskip, _ = _cost_of(candidate, factors)
            except _EVAL_ERRORS:
                ccost, cnskip = np.inf, nskip + 1
            if np.isfinite(ccost) and cnskip <= nskip and ccost < cost:
                accepted = True
                break
            if options.gauss_newton or evals > options.max_inner_retries or lam >= _LAMBDA_MAX:
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
            _, nskip, _ = _cost_of(values, factors)
        if not options.gauss_newton:
            lam = max(lam * options.lambda_down, 1e-15)
        if prev - cost <= options.rel_cost_tol * max(prev, 1e-300):
            termination = "cost_converged"
            break

    _, skipped_final, _ = _cost_of(values, factors)
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
    ``success_factor`` of that floor (plus a small absolute slack for the
    noiseless case), it did not diverge, and no factor had to be dropped at
    the final state.
    """
    if report.diverged or report.skipped_final > 0:
        return False
    return report.final_cost <= report.success_factor * noise_floor_cost + 1e-6
