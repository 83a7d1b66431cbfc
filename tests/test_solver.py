from collections import Counter
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadricfit import _kernels, costs, graphio, solver
from quadricfit.costs import (
    BehindCameraError,
    BoundingBox,
    CameraFrame,
    CameraIntrinsics,
    DegenerateProjectionError,
    Factor,
    conic_bbox,
    project_dual,
)
from quadricfit.manifold import InvalidInputError, Pose, se3_exp, so3_exp
from quadricfit.quadric import (
    DegenerateLandmarkError,
    FullState,
    RtsState,
    SpdState,
    as_parameterization,
    dual_center,
    dual_shape,
    full_from_dual,
)
from quadricfit.sim import (
    NOISE_LEVELS,
    NoiseSpec,
    make_trial,
    run_trial,
    synthetic_graph,
    trial_problem,
)
from quadricfit.solver import (
    Problem,
    ProblemError,
    SolveOptions,
    cost_breakdown,
    factor_residual,
    iterations_to_success,
    linearize,
    solve,
    total_cost,
)
from oracles import (
    dense_jacobian,
    dense_normal_equations,
    scalar_dual,
    scalar_inverse_rt,
    scalar_landmark_retract,
    scalar_pose_retract,
)

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


def tiny_noise():
    return NoiseSpec("T", 0.0, np.radians(2.0), 0.02, 0.02)


def seeded_trial(noise="L", arc=60.0, idx=0, entropy=7):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=(0, int(arc), idx))
    return make_trial(arc, NOISE_LEVELS[noise], seq, idx)


def test_total_cost_zero_at_truth():
    trial = seeded_trial()
    problem = trial_problem(trial, "rts", "inverse")
    problem.variables["obj"] = trial.scene.landmark
    assert total_cost(problem) < 1e-12


def test_total_cost_single_factor():
    pose = Pose.identity()
    landmark = RtsState(np.eye(3), np.array([0.0, 0.0, 5.0]), np.ones(3))
    predicted = conic_bbox(project_dual(landmark.dual, CameraFrame(INTR, pose)))
    shifted = predicted.as_array().copy()
    shifted[0] -= 2.0  # residual (2, 0, 0, 0)
    factor = Factor(0, "box-inverse", ("cam", "obj"),
                    {"intrinsics": INTR, "box": BoundingBox.from_array(shifted)},
                    variance=4.0)
    problem = Problem({"cam": pose, "obj": landmark}, [factor], {"cam"})
    np.testing.assert_allclose(total_cost(problem), 1.0, atol=1e-9)


def test_total_cost_matches_per_factor_sum():
    trial = seeded_trial("M")
    problem = trial_problem(trial, "rts", "semi")
    total = total_cost(problem)
    per = sum(
        float(np.dot(r, r / f.variance))
        for f in problem.factors
        for r in [factor_residual(f, problem.variables)]
    )
    np.testing.assert_allclose(total, per, rtol=1e-12)


def test_linearize_fixed_variables_no_columns():
    trial = seeded_trial()
    problem = trial_problem(trial, "spd", "inverse")
    lin = linearize(problem)
    assert list(lin.columns) == ["obj"]
    assert dense_jacobian(lin).shape == (40, 9)


def test_linearize_pose_prior_identity_jacobian(rng):
    obs = se3_exp(rng.normal(size=6) * 0.3)
    factor = Factor(0, "pose-prior", ("x",), {"observed": obs})
    problem = Problem({"x": obs}, [factor], set())
    lin = linearize(problem)
    np.testing.assert_allclose(dense_jacobian(lin), np.eye(6), atol=1e-5)


def test_linearize_richardson_consistency(monkeypatch):
    # Central differences at step h and h/2 agree to relative 1e-4 across
    # every factor kind.
    trial = seeded_trial("M")
    state = trial.init_rts
    plane = np.array([0.0, 0.0, 1.0, -float(state.translation[2] - 1.0)])
    m = np.array([0.0, 0.0, 1.0])
    prior = (2.0, 1.0, 0.5)
    frame = trial.scene.frames[0]
    factors = [
        Factor(0, "box-inverse", ("cam", "obj"), {"intrinsics": INTR, "box": trial.noisy_boxes[0]}),
        Factor(1, "box-semi", ("cam", "obj"), {"intrinsics": INTR, "box": trial.noisy_boxes[0]}),
        Factor(2, "orientation", ("obj",), {"direction": m}),
        Factor(3, "shape", ("obj",), {"prior": prior}),
        Factor(4, "size", ("obj",), {"prior": prior}),
        Factor(5, "support", ("obj",), {"plane": plane}),
        Factor(6, "pose-prior", ("cam",), {"observed": frame.pose}),
    ]
    problem = Problem({"cam": frame.pose, "obj": state}, factors, set())
    full = dense_jacobian(linearize(problem))
    monkeypatch.setattr(solver, "FD_STEP", 0.5 * solver.FD_STEP)
    half = dense_jacobian(linearize(problem))
    scale = np.maximum(np.abs(full), np.abs(half))
    # mixed criterion: entries far below the block scale are FD noise
    rel = np.abs(full - half) / (scale + 1e-5 * max(scale.max(), 1.0))
    assert rel.max() < 1e-4


@pytest.mark.parametrize("model", ["inverse", "semi"])
def test_linearize_box_residual_matches_factor_residual(model):
    # The batched kernel behind the Jacobian and project_dual/conic_bbox
    # behind the accepted cost must give the same box residuals.
    trial = seeded_trial("M", idx=9)
    problem = trial_problem(trial, "spd", model)
    poses = set(problem.fixed)
    for fixed in (poses, {"obj"}, set()):  # free landmark, free poses, both
        problem.fixed = set(fixed)
        lin = linearize(problem)
        assert not lin.skipped
        assert set(lin.columns) == set(problem.variables) - fixed
        offset = 0
        for f in sorted(problem.factors, key=lambda f: f.fid):
            rows = lin.residual[offset:offset + f.dim]
            np.testing.assert_allclose(rows, factor_residual(f, problem.variables),
                                       rtol=1e-9, atol=1e-9)
            offset += f.dim
        assert offset == lin.residual.size


@pytest.mark.parametrize("param", ["full", "rts", "spd"])
def test_solve_noiseless_recovers_truth(param):
    trial = seeded_trial("L", idx=3)
    # L noise still perturbs the initial estimate; zero the box noise floor
    result = run_trial(trial, param, "inverse")
    assert result.success
    assert result.final_cost < 1e-6
    assert result.iou >= 0.99


def test_solve_at_minimum_terminates_quickly():
    trial = seeded_trial()
    problem = trial_problem(trial, "rts", "inverse")
    problem.variables["obj"] = trial.scene.landmark
    report = solve(problem)
    assert report.iterations <= 2
    assert report.cost_trace[-1] <= report.cost_trace[0] + 1e-15


def test_solve_trace_monotone_and_spd_invariants():
    trial = seeded_trial("M", idx=1)
    problem = trial_problem(trial, "spd", "semi")
    report = solve(problem)
    trace = np.array(report.cost_trace)
    assert np.all(np.diff(trace) <= 0.0)
    shape = report.variables["obj"].shape
    assert np.linalg.eigvalsh(shape)[0] > 0.0
    np.testing.assert_allclose(shape, shape.T, atol=1e-12)


def test_solve_deterministic():
    trial = seeded_trial("M", idx=2)
    problem1 = trial_problem(trial, "rts", "inverse")
    problem2 = trial_problem(trial, "rts", "inverse")
    r1, r2 = solve(problem1), solve(problem2)
    assert r1.cost_trace == r2.cost_trace
    np.testing.assert_array_equal(r1.variables["obj"].scale, r2.variables["obj"].scale)


def test_solve_gauge_invariance():
    # Permuting factor order and shifting variable ids leaves the accepted
    # costs unchanged (well under the 1e-12 contract).
    trial = seeded_trial("M", idx=4)

    def build(shift, reverse):
        kind = "box-semi"
        variables = {100 + shift: trial.init_rts}
        fixed = set()
        factors = []
        for i, (frame, box) in enumerate(zip(trial.scene.frames, trial.noisy_boxes)):
            vid = shift + i
            variables[vid] = frame.pose
            fixed.add(vid)
            factors.append(Factor(i, kind, (vid, 100 + shift),
                                  {"intrinsics": frame.intrinsics, "box": box}, variance=25.0))
        if reverse:
            factors = factors[::-1]
        return Problem(variables, factors, fixed)

    base = solve(build(0, False))
    perm = solve(build(0, True))
    shifted = solve(build(50, False))
    np.testing.assert_allclose(perm.cost_trace, base.cost_trace, rtol=0, atol=1e-12)
    np.testing.assert_allclose(shifted.cost_trace, base.cost_trace, rtol=0, atol=1e-12)


def test_solve_unconstrained_variable_warns():
    trial = seeded_trial()
    problem = trial_problem(trial, "rts", "inverse")
    problem.variables["loose"] = Pose.identity()
    with pytest.warns(UserWarning, match="unconstrained"):
        report = solve(problem)
    assert report.unconstrained == ["loose"]


def test_solve_requires_free_variable():
    trial = seeded_trial()
    problem = trial_problem(trial, "rts", "inverse")
    problem.fixed.add("obj")
    with pytest.raises(ProblemError):
        solve(problem)


def test_problem_rejects_unknown_targets():
    factor = Factor(0, "orientation", ("ghost",), {"direction": np.array([0.0, 0.0, 1.0])})
    with pytest.raises(ProblemError):
        Problem({}, [factor], set())


@pytest.mark.parametrize("kind, targets, payload", [
    ("box-inverse", ("obj", "cam"), {"intrinsics": INTR, "box": BoundingBox(280.0, 360.0, 200.0, 280.0)}),
    ("pose-prior", ("obj",), {"observed": Pose.identity()}),
    ("shape", ("cam",), {"prior": (0.4, 0.3, 0.2)}),
], ids=["box-swapped", "pose-prior-on-landmark", "shape-on-pose"])
def test_problem_rejects_targets_that_do_not_fit_their_roles(kind, targets, payload):
    # A "pose" target must be a pose and a "landmark" target must not be,
    # or the first evaluation would fail with an untyped error.
    variables = {"cam": Pose.identity(),
                 "obj": RtsState(np.eye(3), np.array([0.0, 0.0, 4.0]), np.array([0.4, 0.3, 0.2]))}
    with pytest.raises(ProblemError, match="^factor 7 "):
        Problem(variables, [Factor(7, kind, targets, payload)], set())


def test_behind_camera_factors_skipped_not_fatal():
    trial = seeded_trial("M", idx=6)
    problem = trial_problem(trial, "rts", "inverse")
    # push the initial landmark behind the first camera
    frame = trial.scene.frames[0]
    behind = frame.pose.rotation @ np.array([0.0, 0.0, -3.0]) + frame.pose.translation
    problem.variables["obj"] = RtsState(np.eye(3), behind, np.array([0.5, 0.4, 0.3]))
    report = solve(problem)  # must not raise
    assert report.skip_events >= 1 or report.skipped_final >= 0


@pytest.mark.parametrize("param", ["rts", "spd", "full"])
def test_skipped_final_is_the_skip_count_at_the_final_variables(param):
    trial = seeded_trial("M", idx=3)
    problem = trial_problem(trial, param, "inverse")
    # A camera turned half way round about its y axis sees the landmark
    # behind it at every state, so its factor is skipped to the end.
    frame = trial.scene.frames[0]
    away = Pose(frame.pose.rotation @ np.diag([-1.0, 1.0, -1.0]), frame.pose.translation)
    problem.variables["away"] = away
    problem.fixed.add("away")
    problem.factors.append(Factor(100, "box-inverse", ("away", "obj"),
                                  {"intrinsics": frame.intrinsics, "box": trial.noisy_boxes[0]},
                                  25.0))
    report = solve(problem)
    assert report.iterations > 0
    assert report.skipped_final == 1
    plan = solver._Plan(problem.factors, report.variables)
    assert report.skipped_final == solver._cost_of(plan, [])[1]


def test_declare_success_rules():
    trial = seeded_trial("L", idx=7)
    problem = trial_problem(trial, "rts", "inverse")
    report = solve(problem)
    # Converged noiseless: the floor's slack admits it, from the first
    # accepted step at or below the bar on.
    first = iterations_to_success(report, 0.0)
    assert first is not None and report.cost_trace[first] <= 1e-6
    assert all(c > 1e-6 for c in report.cost_trace[:first])
    assert iterations_to_success(report, report.cost_trace[0]) == 0
    report.termination = "diverged"
    assert iterations_to_success(report, 0.0) is None
    report.termination = "cost_converged"
    report.skipped_final = 1
    assert iterations_to_success(report, 0.0) is None


def test_cost_breakdown_contains_kinds():
    trial = seeded_trial("M", idx=8)
    problem = trial_problem(trial, "rts", "semi")
    problem.factors.append(
        Factor(100, "orientation", ("obj",), {"direction": np.array([0.0, 0.0, 1.0])})
    )
    breakdown = cost_breakdown(problem)
    assert set(breakdown) == {"box-semi", "orientation"}
    np.testing.assert_allclose(sum(breakdown.values()), total_cost(problem), rtol=1e-12)


@pytest.mark.parametrize("name, value", [
    ("lambda_up", 1.0), ("lambda_up", 0.5), ("lambda_up", np.nan),
    ("lambda_down", 1.0), ("lambda_down", 2.0), ("lambda_down", np.nan),
    ("max_step", 0.0), ("max_step", -1.0), ("max_step", np.nan),
])
def test_solve_options_reject_values_that_never_end_a_retry(name, value):
    # With these the damping retries of solve() would never reach their cap.
    # No option sets them: they are solver constants, which keep clear of them.
    with pytest.raises(TypeError, match=name):
        SolveOptions(**{name: value})
    assert solver.LAMBDA_UP > 1.0 > solver.LAMBDA_DOWN > 0.0 and solver.MAX_STEP > 0.0


@pytest.mark.parametrize("value", [0, -1, 2.5, True, np.nan, "8"])
def test_solve_options_require_a_positive_integer_iteration_cap(value):
    with pytest.raises(InvalidInputError, match="max_iterations must be a positive integer"):
        SolveOptions(max_iterations=value)


def test_solve_ends_when_trust_bound_rejects_every_step(monkeypatch):
    trial = seeded_trial("M", idx=2)
    monkeypatch.setattr(solver, "MAX_STEP", 1e-9)
    report = solve(trial_problem(trial, "rts", "inverse"))
    assert report.termination == "stalled"
    assert report.iterations == 0 and report.attempts == 0


def _singular(*args):
    raise np.linalg.LinAlgError("singular matrix")


def _non_finite(a, b=None):
    return np.full(np.shape(a if b is None else b), np.nan)


def _assert_diverges_without_a_step(monkeypatch, problem, failure, name="solve", ndim=None):
    # Every retry raises the damping to its cap without a cost evaluation.
    factor = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name,
                        lambda a, *b: (failure if ndim in (None, np.ndim(a)) else factor)(a, *b))
    report = solve(problem)
    assert report.termination == "diverged"
    assert report.iterations == 0 and report.attempts == 0
    assert report.lambda_final == solver._LAMBDA_MAX


@pytest.mark.parametrize("normal_solve", [_singular, _non_finite])
def test_solve_diverges_when_normal_equations_give_no_step(monkeypatch, normal_solve):
    # A trial's step is its landmark's solve alone.
    trial = seeded_trial("M", idx=2)
    _assert_diverges_without_a_step(monkeypatch, trial_problem(trial, "rts", "inverse"), normal_solve)


@pytest.mark.parametrize("failure", [_singular, _non_finite])
@pytest.mark.parametrize("name, ndim", [("solve", 3), ("cholesky", 3), ("solve", 2)],
                         ids=["landmark-solve", "landmark-cholesky", "pose-solve"])
def test_free_pose_solve_diverges_when_a_step_factorization_fails(monkeypatch, failure, name, ndim):
    # With free poses the step also fails when the landmarks' batched solve
    # or Cholesky factors (a stack of matrices, ndim 3) or the reduced pose
    # system's solve (ndim 2) gives no step.
    _assert_diverges_without_a_step(monkeypatch, _free_pose_problem(), failure, name, ndim)


def test_non_finite_jacobian_row_raises_and_solve_diverges(monkeypatch):
    # A finite value row whose last FD variant row is NaN: the cost is
    # finite, the linearization names the factor, and the solve diverges
    # before its first step.
    trial = seeded_trial("M", idx=2)
    problem = trial_problem(trial, "rts", "inverse")
    problem.factors.append(Factor(57, "size", ("obj",), {"prior": (0.5, 0.4, 0.3)}))
    kind = costs.FACTOR_KINDS["size"]

    def nan_rows(*args):
        table, status = kind.rows(*args)
        if len(table) > 1:  # FD variants: value row then 2 x 9 variant rows
            table = table.copy()
            table[-1] = np.nan
        return table, status

    monkeypatch.setitem(costs.FACTOR_KINDS, "size", replace(kind, rows=nan_rows))
    initial = total_cost(problem)
    assert np.isfinite(initial)
    with pytest.raises(solver.LinearizeError, match="in factor 57$"):
        linearize(problem)
    report = solve(problem)
    assert report.termination == "diverged"
    assert report.cost_trace == [initial]


def test_solve_stalls_after_max_inner_retries_rejected_candidates(monkeypatch):
    trial = seeded_trial("M", idx=2)
    problem = trial_problem(trial, "rts", "inverse")
    true_cost_of = solver._cost_of
    calls = []

    def rejecting_cost_of(plan, values):
        # The initial cost is the true one; every later one is twice that.
        total, skipped, per_factor = true_cost_of(plan, values)
        calls.append(total)
        return (total if len(calls) == 1 else 2.0 * calls[0]), skipped, per_factor

    monkeypatch.setattr(solver, "_cost_of", rejecting_cost_of)
    monkeypatch.setattr(solver, "MAX_INNER_RETRIES", 4)
    report = solve(problem)
    assert report.termination == "stalled"
    assert report.iterations == 0
    assert report.attempts == 4 + 1
    # The initial cost and one evaluation per candidate; the final skip
    # count is the one the loop tracked, not a further evaluation.
    assert len(calls) == 1 + (4 + 1)


# ---------------------------------------------------------------------------
# Camera-grouped linearization and cost against one factor at a time

_EVAL_ERRORS = (BehindCameraError, DegenerateProjectionError, DegenerateLandmarkError,
                np.linalg.LinAlgError)


def _safe_dual(value):
    try:
        return value.dual
    except _EVAL_ERRORS:
        return None


class _OracleVariants:
    """A free variable's value and its plus, then its minus FD variants,
    each made by its own scalar ``retract``."""

    def __init__(self, value):
        self.dim = value.tangent_dim
        self.h = solver.FD_STEP * value.fd_scales()
        steps = np.diag(self.h)
        self.values = [value] + [value.retract(s) for s in (*steps, *-steps)]

    @property
    def duals(self):
        return np.stack([v.dual for v in self.values])

    @property
    def cameras(self):
        return np.stack([v.inverse_rt for v in self.values])


def _stack_read(stack, name):
    """The variants' ``values`` or ``duals``, or None when they cannot be formed."""
    try:
        return getattr(stack, name)
    except _EVAL_ERRORS:
        return None


def _oracle_try(f, values):
    try:
        return factor_residual(f, values)
    except _EVAL_ERRORS:
        return None


def _oracle_block(f, values, variants, columns, n):
    """One factor's (jacobian rows, residual), or None when skipped. A box
    factor is a chain, a batch of one: its value row, then its slopes
    against the dual and the [R|t] times the central differences of its
    free variables' duals or [R|t]s over their variants. A prior is central
    differences of its residual over its variable's variants."""
    free_targets = [t for t in f.targets if t in variants]
    if f.kind in ("box-inverse", "box-semi"):
        pose_id, lm_id = f.targets
        kind = costs.FACTOR_KINDS[f.kind]
        intr = f.payload["intrinsics"]
        fields = {t: _stack_read(variants[t], "duals" if t == lm_id else "cameras") for t in free_targets}
        if any(rows is None for rows in fields.values()):
            return None
        q = _safe_dual(values[lm_id])
        if q is None:
            return None
        view = kind.view(values[pose_id].inverse_rt[None], np.array([[intr.fx, intr.fy, intr.cx, intr.cy]]),
                         f.payload["box"].as_array()[None])
        table, status = kind.seen(q[None], *view)
        if status[0]:
            return None
        jac = np.zeros((f.dim, n))
        for slope, t in zip(kind.slopes(q[None], *view), (lm_id, pose_id)):
            if t in variants:
                var, rows = variants[t], fields[t]
                delta = (rows[1 : 1 + var.dim] - rows[1 + var.dim :]) / (2.0 * var.h[:, None, None])
                differential = np.ascontiguousarray(delta.reshape(var.dim, -1).T)
                jac[:, columns[t]] = np.matmul(slope.reshape(1, f.dim, -1), differential[None])[0]
        return jac, table[0]
    res = _oracle_try(f, values)
    if res is None:
        return None
    jac = np.zeros((f.dim, n))
    scratch = dict(values)
    for t in free_targets:
        var = variants[t]
        cols = columns[t]
        stack = _stack_read(var, "values")
        if stack is None:
            return None
        for j in range(var.dim):
            pair = []
            for v in (stack[1 + j], stack[1 + var.dim + j]):
                scratch[t] = v
                r = _oracle_try(f, scratch)
                if r is None:
                    return None
                pair.append(r)
            jac[:, cols.start + j] = (pair[0] - pair[1]) / (2.0 * var.h[j])
        scratch[t] = values[t]
    return jac, res


def _oracle_linearize(problem):
    free = problem.free_ids()
    variants = {vid: _OracleVariants(problem.variables[vid]) for vid in free}
    columns, offset = {}, 0
    for vid in free:
        columns[vid] = slice(offset, offset + variants[vid].dim)
        offset += variants[vid].dim
    rows_j, rows_r, rows_w, skipped = [], [], [], []
    for f in sorted(problem.factors, key=lambda f: f.fid):
        block = _oracle_block(f, problem.variables, variants, columns, offset)
        if block is None:
            skipped.append(f.fid)
            continue
        rows_j.append(block[0])
        rows_r.append(block[1])
        rows_w.append(1.0 / f.variance)
    if not rows_j:
        return np.zeros((0, offset)), np.zeros(0), np.zeros(0), columns, skipped
    return (np.vstack(rows_j), np.concatenate(rows_r), np.concatenate(rows_w), columns, skipped)


def _oracle_cost(values, factors):
    total, skipped, per_factor = 0.0, 0, {}
    for f in sorted(factors, key=lambda f: f.fid):
        r = _oracle_try(f, values)
        if r is None:
            skipped += 1
            continue
        c = float(np.dot(r, r / f.variance))
        per_factor[f.fid] = c
        total += c
    return total, skipped, per_factor


def _look_at(position, target):
    z = target - position
    z = z / np.linalg.norm(z)
    x = np.cross([0.0, 0.0, 1.0], z)
    x = x / np.linalg.norm(x)
    return Pose(np.column_stack([x, np.cross(z, x), z]), position)


def random_graph_problem(seed, param, landmarks, poses, near_plane=False):
    """Random small graph: every box model and prior kind, free and fixed
    variables, shuffled factor ids. With ``near_plane`` the first camera
    moves along its axis until the first landmark's nearest surface point
    is 5e-7 m in front of it, so FD steps can put the landmark across the
    camera's principal plane."""
    rng = np.random.default_rng(seed)
    variables, fixed, factors = {}, set(), []
    intrinsics = [INTR, CameraIntrinsics(fx=420.0, fy=430.0, cx=300.0, cy=250.0)]
    for i in range(landmarks):
        state = RtsState(so3_exp(rng.normal(size=3)), rng.normal(scale=0.5, size=3),
                         rng.uniform(0.2, 0.6, size=3))
        variables[f"lm{i}"] = as_parameterization(state, param)
    for j in range(poses):
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        position = rng.uniform(4.0, 6.0) * np.array([np.cos(azimuth), np.sin(azimuth), 0.5])
        variables[f"cam{j}"] = _look_at(position, rng.normal(scale=0.3, size=3))
    if near_plane:
        pose, q = variables["cam0"], variables["lm0"].dual
        axis = pose.rotation[:, 2]
        depth = axis @ (dual_center(q) - pose.translation)
        reach = np.sqrt(axis @ dual_shape(q) @ axis)
        variables["cam0"] = Pose(pose.rotation, pose.translation + (depth - reach - 5e-7) * axis)

    def add(kind, targets, payload):
        factors.append(Factor(0, kind, targets, payload, variance=rng.uniform(0.5, 4.0)))

    for j in range(poses):
        pose_id = f"cam{j}"
        intr = intrinsics[j % 2]
        for i in range(landmarks):
            frame = CameraFrame(intr, variables[pose_id])
            try:
                box = conic_bbox(project_dual(variables[f"lm{i}"].dual, frame)).as_array()
            except _EVAL_ERRORS:
                box = np.array([300.0, 340.0, 220.0, 260.0])
            box = np.sort(box.reshape(2, 2) + rng.normal(scale=3.0, size=(2, 2)), axis=1).ravel()
            kind = ("box-inverse", "box-semi")[rng.integers(2)]
            add(kind, (pose_id, f"lm{i}"), {"intrinsics": intr, "box": BoundingBox.from_array(box)})
        if rng.random() < 0.7:
            observed = se3_exp(rng.normal(scale=0.02, size=6)).compose(variables[pose_id])
            add("pose-prior", (pose_id,), {"observed": observed})
    for i in range(landmarks):
        lm = f"lm{i}"
        abc = tuple(np.sort(rng.uniform(0.2, 0.6, size=3))[::-1])
        add("orientation", (lm,), {"direction": rng.normal(size=3)})
        add("shape", (lm,), {"prior": abc})
        add("size", (lm,), {"prior": abc, "form": ("sqrt", "det")[rng.integers(2)]})
        plane = np.append(rng.normal(scale=0.1, size=2), 1.0)
        add("support", (lm,), {"plane": np.append(plane, rng.uniform(-1.0, 1.0))})
    order = rng.permutation(len(factors))
    factors = [Factor(int(k), f.kind, f.targets, f.payload, f.variance)
               for k, f in zip(order, factors)]
    for vid in variables:
        if rng.random() < 0.35:
            fixed.add(vid)
    if not set(variables) - fixed:
        fixed.discard("lm0")
    return Problem(variables, factors, fixed)


def _assert_linearize_matches_oracle(problem):
    lin = linearize(problem)
    jac, res, weights, columns, skipped = _oracle_linearize(problem)
    assert lin.columns == columns
    assert lin.skipped == skipped
    assert np.array_equal(dense_jacobian(lin), jac)
    assert np.array_equal(lin.residual, res)
    assert np.array_equal(lin.weights, weights)
    return lin


def _assert_cost_matches_oracle(problem):
    got = solver._cost_of(solver._Plan(problem.factors, problem.variables), [])
    assert got == _oracle_cost(problem.variables, problem.factors)
    return got


graph_cases = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["rts", "spd", "full"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(graph_cases, st.sampled_from([1e-6, 1e-3]))
def test_linearize_equals_per_factor_oracle(case, fd_step):
    seed, param, landmarks, poses, near_plane = case
    # Patched in the body: hypothesis rejects function-scoped fixtures.
    with mock.patch.object(solver, "FD_STEP", fd_step):
        _assert_linearize_matches_oracle(random_graph_problem(seed, param, landmarks, poses,
                                                              near_plane))


@settings(max_examples=40, deadline=None)
@given(graph_cases)
def test_cost_equals_per_factor_sum(case):
    seed, param, landmarks, poses, near_plane = case
    _assert_cost_matches_oracle(random_graph_problem(seed, param, landmarks, poses, near_plane))


@settings(max_examples=40, deadline=None)
@given(graph_cases)
def test_linearization_residual_is_the_costed_residual(case):
    # The cost minimizes exactly the residual the Jacobian linearizes: each
    # kept factor's rows of the linearization give its cost bitwise.
    seed, param, landmarks, poses, near_plane = case
    problem = random_graph_problem(seed, param, landmarks, poses, near_plane)
    lin = linearize(problem)
    _, _, per_factor = solver._cost_of(solver._Plan(problem.factors, problem.variables), [])
    offset = 0
    for f in sorted(problem.factors, key=lambda f: f.fid):
        if f.fid in lin.skipped:
            continue
        r = lin.residual[offset:offset + f.dim]
        assert float(np.dot(r, r / f.variance)) == per_factor[f.fid]
        offset += f.dim
    assert offset == lin.residual.size


@settings(max_examples=40, deadline=None)
@given(graph_cases)
def test_block_normal_equations_match_dense_products(case):
    # H and g assembled from the blocks are JᵀWJ and JᵀWr of the oracle's
    # dense Jacobian to relative 1e-12 of the sums of the terms' magnitudes
    # (a sum that cancels has no relative accuracy of its own), and H is
    # exactly 0 between variables that share no kept factor.
    problem = random_graph_problem(*case)
    hess, grad = dense_normal_equations(linearize(problem))
    jac, res, weights, columns, skipped = _oracle_linearize(problem)
    size = np.abs(jac)
    assert np.all(np.abs(hess - jac.T @ (weights[:, None] * jac))
                  <= 1e-12 * (size.T @ (weights[:, None] * size)))
    assert np.all(np.abs(grad - jac.T @ (weights * res)) <= 1e-12 * (size.T @ (weights * np.abs(res))))
    share = {(a, b) for f in problem.factors if f.fid not in skipped
             for a in f.targets for b in f.targets}
    for a in columns:
        for b in columns:
            if (a, b) not in share:
                assert not hess[columns[a], columns[b]].any()


@pytest.mark.parametrize("param", ["rts", "spd", "full"])
@pytest.mark.parametrize("source", ["trial", "synthetic_graph"])
def test_block_normal_equations_of_one_free_variable_are_the_dense_products(param, source):
    # With one free variable, read by every factor, its block is the whole
    # Jacobian, so H and g have the bits of the dense products.
    if source == "trial":
        problem = trial_problem(seeded_trial("M", idx=5), param, "semi")
    else:
        problem = graphio.problem_from_graph(synthetic_graph(1), param, "inverse")
    assert len(problem.free_ids()) == 1
    hess, grad = dense_normal_equations(linearize(problem))
    jac, res, weights, _, _ = _oracle_linearize(problem)
    assert np.array_equal(hess, jac.T @ (weights[:, None] * jac))
    assert np.array_equal(grad, jac.T @ (weights * res))


def _central_difference(f, values, t, j, step):
    """Column j of factor f's central difference against variable t, at
    ``step`` times its FD scale, or None when a step cannot be evaluated."""
    value = values[t]
    h = step * value.fd_scales()[j]
    e = np.zeros(value.tangent_dim)
    e[j] = h
    try:
        plus = factor_residual(f, {**values, t: value.retract(e)})
        minus = factor_residual(f, {**values, t: value.retract(-e)})
    except _EVAL_ERRORS:
        return None
    return (plus - minus) / (2.0 * h)


@settings(max_examples=30, deadline=None)
@given(graph_cases)
@example((6, "rts", 2, 3, True))
@example((6, "spd", 2, 3, True))
@example((6, "full", 2, 3, True))
@example((2, "spd", 3, 2, True))
def test_box_blocks_equal_central_differences_of_the_rows(case):
    # Each kept box factor's block against each free variable, its slopes
    # times the variable's differential, equals the central difference of
    # the factor's residual through the retraction to 1e-5 of the block's
    # largest entry, column by column. A central difference errs by its
    # truncation (h^2) plus rounding (eps / h); near the principal plane the
    # derivatives grow like the box over the clearance (5e-7 m in the
    # near-plane cases), so only a small step resolves them. Each column
    # therefore takes the best of the steps 1e-5 to 1e-11 (times the FD
    # scale) at which both variants can be evaluated.
    problem = random_graph_problem(*case)
    lin = linearize(problem)
    jac, offset = dense_jacobian(lin), 0
    for f in sorted(problem.factors, key=lambda f: f.fid):
        if f.fid in lin.skipped:
            continue
        rows, offset = jac[offset:offset + f.dim], offset + f.dim
        if f.kind not in ("box-inverse", "box-semi"):
            continue
        for t in (t for t in f.targets if t in lin.columns):
            block = rows[:, lin.columns[t]]
            tol = 1e-5 * np.abs(block).max()
            for j in range(block.shape[1]):
                errors = [np.inf]
                for step in 10.0 ** -np.arange(5, 12):
                    column = _central_difference(f, problem.variables, t, j, step)
                    if column is not None:
                        errors.append(np.abs(column - block[:, j]).max())
                        if errors[-1] <= tol:
                            break
                assert min(errors) <= tol, (f.fid, t, j, min(errors), tol)


def _scalar_retract(value, delta):
    """One variable moved by the one-value-at-a-time formulas."""
    if isinstance(value, Pose):
        rt = scalar_pose_retract(value.rotation, value.translation, delta)
        return Pose(rt[:, :3], rt[:, 3])
    return scalar_landmark_retract(value, delta)


def _reference_normal_equations(factors, free, jac, weights, res, columns, skipped):
    """JᵀWJ and JᵀWr of the oracle's dense Jacobian, summed by the rule the
    solver assembles its blocks by: a free variable's diagonal block and
    gradient over the rows of the kept factors that read it, in factor-id
    order, and a pose-landmark block as its box factors' products added in
    factor-id order."""
    kept = [f for f in sorted(factors, key=lambda f: f.fid) if f.fid not in skipped]
    starts = np.cumsum([0] + [f.dim for f in kept])
    rows = {f.fid: np.arange(start, start + f.dim) for f, start in zip(kept, starts)}
    hess, grad = np.zeros((jac.shape[1],) * 2), np.zeros(jac.shape[1])
    for vid in free:
        at = np.concatenate([rows[f.fid] for f in kept if vid in f.targets] or [np.zeros(0, int)])
        block = np.ascontiguousarray(jac[at][:, columns[vid]])
        hess[columns[vid], columns[vid]] = block.T @ (weights[at][:, None] * block)
        grad[columns[vid]] = block.T @ (weights * res)[at]
    for f in kept:
        if len(f.targets) == 2 and all(t in free for t in f.targets):
            pose, landmark = (columns[t] for t in f.targets)
            block = jac[rows[f.fid]]
            product = np.ascontiguousarray(block[:, pose]).T @ (
                weights[rows[f.fid]][:, None] * block[:, landmark])
            hess[pose, landmark] += product
            hess[landmark, pose] += product.T
    return hess, grad


@pytest.mark.parametrize("case", [(6, "rts", 2, 3, True), (6, "spd", 2, 3, True),
                                  (6, "full", 2, 3, True), (2, "spd", 3, 2, True)])
def test_normal_equations_of_a_skipping_linearization_equal_the_reference(case):
    # The near-plane examples of test_solve_equals_reference_lm skip factors
    # at their first linearization, with 2-3 free variables: their blocks
    # hold only the kept rows, and give the reference sums bit for bit.
    problem = random_graph_problem(*case)
    lin = linearize(problem)
    assert lin.skipped
    jac, res, weights, columns, skipped = _oracle_linearize(problem)
    hess, grad = _reference_normal_equations(problem.factors, problem.free_ids(), jac, weights, res,
                                             columns, skipped)
    got = dense_normal_equations(lin)
    assert np.array_equal(got[0], hess)
    assert np.array_equal(got[1], grad)


def _eliminated_step(hess, grad, kinds, columns, lam):
    """The damped step -(H + λI)⁻¹ g of a dense H and g, taken as the solver
    takes it: each landmark kind's damped diagonal blocks, sliced from H,
    solved in one batch against -g and, with free poses, the inverses of
    their Cholesky factors applied to their rows of H at the pose columns;
    then the reduced pose system solved dense and the landmark steps
    back-substituted. ``kinds`` maps each free kind (class) to its
    variables' ids, in the solver's order."""
    index = [np.array([np.arange(columns[vid].start, columns[vid].stop) for vid in vids])
             for vids in kinds.values()]
    poses = [issubclass(cls, Pose) for cls in kinds]
    pose = np.concatenate([i.ravel() for i, is_pose in zip(index, poses) if is_pose] or [np.zeros(0, int)])
    p = len(pose)
    reduced, rhs = hess[np.ix_(pose, pose)] + lam * np.eye(p), -grad[pose]
    delta, solved = np.empty(len(grad)), []
    for cols in (i for i, is_pose in zip(index, poses) if not is_pose):
        damped = hess[cols[:, :, None], cols[:, None, :]] + lam * np.eye(cols.shape[1])
        delta[cols] = np.linalg.solve(damped, -grad[cols][..., None])[..., 0]
        if p:
            root = np.linalg.inv(np.linalg.cholesky(damped))
            v = root @ hess[cols[:, :, None], pose]
            flat = v.reshape(-1, p)
            reduced = reduced - flat.T @ flat
            rhs = rhs - hess[pose[:, None], cols.ravel()] @ delta[cols].ravel()
            solved.append((cols, root, v))
    if p:
        delta[pose] = np.linalg.solve(reduced, rhs)
    for cols, root, v in solved:
        delta[cols] = delta[cols] - np.matmul(root.transpose(0, 2, 1), (v @ delta[pose])[..., None])[..., 0]
    return delta


def _reduced_system(problem):
    """The solver's reduced system at the problem's variables, the dense H
    and g its blocks stand for, and each free kind's columns."""
    plan = solver._Plan(problem.factors, problem.variables, problem.free_ids())
    lin = solver._linearize(plan, plan.stack(problem.variables))
    return (solver._ReducedSystem(lin.normal_equations(), plan.poses), *dense_normal_equations(lin),
            plan.kind_columns)


def _flat_step(system, lam, kind_columns):
    """:meth:`_ReducedSystem.step` at ``lam`` as one vector in column order."""
    delta = np.empty(sum(len(columns) for columns in kind_columns))
    for columns, step in zip(kind_columns, system.step(lam)):
        delta[columns] = step.ravel()
    return delta


@settings(max_examples=40, deadline=None)
@given(graph_cases, st.sampled_from([1e-4, 1.0, 1e4]))
@example((0, "rts", 2, 2, True), 1e-4)  # free poses and landmarks, a factor skipped
@example((0, "spd", 2, 2, True), 1.0)
@example((0, "full", 2, 2, True), 1e-4)
@example((0, "full", 2, 2, False), 1e4)
@example((97, "rts", 3, 3, True), 1e-4)  # landmarks alone, a factor skipped
@example((63, "spd", 3, 2, True), 1.0)  # poses alone, a factor skipped
def test_reduced_step_solves_the_dense_damped_system(case, lam):
    # The step with the landmark blocks eliminated solves the damped system
    # that np.linalg.solve solves on the oracle's dense H + λI. With ε the
    # double epsilon and κ the 2-norm condition number of H + λI:
    # - rts and spd: ‖δ - δ_dense‖∞ ≤ 1e3 ε κ ‖δ_dense‖∞, the forward error
    #   bound of a backward-stable solve, with a margin.
    # - full: its landmark blocks are singular up to the damping (the
    #   dual's scale is a null direction, ROADMAP item 9), so κ is about
    #   ‖H‖ / λ and a forward bound says nothing at small λ. Its step must
    #   solve the dense system to the backward error
    #   ‖(H + λI) δ + g‖∞ ≤ 1e3 ε √κ (‖H + λI‖∞ ‖δ‖∞ + ‖g‖∞), the bound of
    #   block LU on a symmetric positive definite matrix (Demmel, Higham and
    #   Schreiber, "Stability of block LU factorization", 1995).
    # Where H + λI is not numerically positive definite (near the principal
    # plane a derivative can reach 1e15, and H entries 1e30), neither solve
    # has any accuracy and the solver's rejection paths decide the step.
    problem = random_graph_problem(*case)
    system, hess, grad, kind_columns = _reduced_system(problem)
    damped = hess + lam * np.eye(len(hess))
    eigenvalues = np.linalg.eigvalsh(damped)
    assume(eigenvalues[0] > 0.0)
    delta, dense = _flat_step(system, lam, kind_columns), np.linalg.solve(damped, -grad)
    kappa, eps = eigenvalues[-1] / eigenvalues[0], np.finfo(float).eps
    if case[1] == "full":
        norm = np.abs(damped).sum(axis=1).max()
        bound = 1e3 * eps * np.sqrt(kappa) * (norm * np.abs(delta).max() + np.abs(grad).max())
        assert np.abs(damped @ delta + grad).max() <= bound
    else:
        assert np.abs(delta - dense).max() <= 1e3 * eps * kappa * np.abs(dense).max()


@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("param", ["rts", "spd", "full"])
@pytest.mark.parametrize("source", ["trial-inverse", "trial-semi", "synthetic_graph"])
def test_reduced_step_of_one_free_variable_is_the_dense_solve(source, param, lam):
    # With one free landmark the step is its batched solve alone, with the
    # bits of np.linalg.solve on the dense damped system.
    if source == "synthetic_graph":
        problem = graphio.problem_from_graph(synthetic_graph(1), param, "inverse")
    else:
        problem = trial_problem(seeded_trial("M", idx=5), param, source.split("-")[1])
    assert len(problem.free_ids()) == 1
    system, hess, grad, kind_columns = _reduced_system(problem)
    dense = np.linalg.solve(hess + lam * np.eye(len(hess)), -grad)
    assert np.array_equal(_flat_step(system, lam, kind_columns), dense)


def _reference_solve(problem, max_iterations):
    """solve()'s LM loop on the oracles: a scalar retract per variable,
    _oracle_linearize and _oracle_cost, the solver's constants, its
    elimination of the landmark blocks from the dense H
    (:func:`_eliminated_step`) and a ``settled()`` per variable. (cost
    trace, attempts, termination, skip events, skips at the final
    variables, final variables)."""
    free = problem.free_ids()
    kinds = {}
    for vid in free:
        kinds.setdefault(type(problem.variables[vid]), []).append(vid)
    values = dict(problem.variables)
    cost, nskip, _ = _oracle_cost(values, problem.factors)
    trace, attempts, skip_events, lam = [cost], 0, 0, solver.INIT_LAMBDA
    termination = "max_iterations"
    for _ in range(max_iterations):
        jac, res, weights, columns, skipped = _oracle_linearize(
            Problem(values, problem.factors, problem.fixed))
        if not (np.isfinite(jac).all() and np.isfinite(res).all()):
            termination = "diverged"
            break
        skip_events += len(skipped)
        if res.size == 0:
            termination = "diverged"
            break
        hess, grad = _reference_normal_equations(problem.factors, free, jac, weights, res, columns,
                                                 skipped)
        if np.max(np.abs(grad)) < solver.GRAD_TOL:
            termination = "gradient"
            break
        accepted, evals = False, 0
        while True:
            try:
                delta = _eliminated_step(hess, grad, kinds, columns, lam)
                solve_failed = not np.all(np.isfinite(delta))
            except np.linalg.LinAlgError:
                solve_failed = True
            if not solve_failed and np.max(np.abs(delta)) <= solver.MAX_STEP:
                attempts += 1
                evals += 1
                candidate = dict(values)
                try:
                    for vid in free:
                        candidate[vid] = _scalar_retract(values[vid], delta[columns[vid]])
                    ccost, cnskip, _ = _oracle_cost(candidate, problem.factors)
                except _EVAL_ERRORS:
                    ccost, cnskip = np.inf, nskip + 1
                accepted = bool(np.isfinite(ccost) and cnskip <= nskip and ccost < cost)
                if accepted or evals > solver.MAX_INNER_RETRIES:
                    break
            if lam >= solver._LAMBDA_MAX:
                break
            lam = min(lam * solver.LAMBDA_UP, solver._LAMBDA_MAX)
        if not accepted:
            termination = "diverged" if solve_failed else "stalled"
            break
        values, prev, cost, nskip = candidate, cost, ccost, cnskip
        trace.append(cost)
        settled = {vid: values[vid].settled() for vid in free}
        changed = any(settled[vid] is not values[vid] for vid in free)
        values.update(settled)
        if changed:
            _, nskip, _ = _oracle_cost(values, problem.factors)
        lam = max(lam * solver.LAMBDA_DOWN, 1e-15)
        if prev - cost <= solver.REL_COST_TOL * max(prev, 1e-300):
            termination = "cost_converged"
            break
    return trace, attempts, termination, skip_events, nskip, values


@settings(max_examples=25, deadline=None)
@given(graph_cases)
@example((6, "rts", 2, 3, True))
@example((6, "spd", 2, 3, True))
@example((6, "full", 2, 3, True))
@example((2, "spd", 3, 2, True))
@example((3, "full", 3, 4, False))
def test_solve_equals_reference_lm(case):
    # The batched solver (one retract per variable kind, plan-gathered
    # blocks) takes bit for bit the steps of the LM loop over the
    # per-factor oracles, skips and fixups included. Both eliminate the
    # landmark blocks by the same arithmetic, the reference from the dense
    # H; test_reduced_step_solves_the_dense_damped_system checks that
    # elimination against the dense solve.
    problem = random_graph_problem(*case)
    report = solve(problem, SolveOptions(max_iterations=5))
    trace, attempts, termination, skip_events, skipped_final, variables = _reference_solve(problem, 5)
    assert [c.hex() for c in report.cost_trace] == [c.hex() for c in trace]
    assert (report.attempts, report.termination) == (attempts, termination)
    assert (report.skip_events, report.skipped_final) == (skip_events, skipped_final)
    assert list(report.variables) == list(variables)
    for vid, value in variables.items():
        got = report.variables[vid]
        assert type(got) is type(value)
        for name in value.__dataclass_fields__:
            assert np.array_equal(getattr(got, name), getattr(value, name))


@pytest.mark.parametrize("param", ["rts", "spd", "full"])
@pytest.mark.parametrize("fixed", [{"side", "obj"}, {"cam", "side"}, {"side"}],
                         ids=["pose-variant", "landmark-variant", "both"])
def test_linearize_keeps_box_factor_whose_variant_is_behind(param, fixed):
    # The landmark's nearest surface point is 5e-7 m in front of "cam":
    # evaluable there, but the FD steps of the camera's and the landmark's
    # translation (about 1e-6 m) each put it across the camera's principal
    # plane. A linearization drops a box factor only where its value row is
    # not evaluable, as the cost does, so factor 0 is kept, and its blocks,
    # its slopes at the value times the variables' differentials, are finite.
    rotation, axes = so3_exp([0.3, 0.2, 0.1]), np.array([0.3, 0.25, 0.2])
    reach = np.sqrt(rotation[2] ** 2 @ axes ** 2)  # support reach along the camera's axis
    state = RtsState(rotation, np.array([0.1, 0.05, reach + 5e-7]), axes)
    side = _look_at(np.array([1.0, -4.0, 0.5]), state.translation)
    variables = {"cam": Pose.identity(), "side": side, "obj": as_parameterization(state, param)}
    box = BoundingBox(280.0, 360.0, 200.0, 280.0)
    factors = [
        Factor(0, "box-inverse", ("cam", "obj"), {"intrinsics": INTR, "box": box}),
        Factor(1, "box-inverse", ("side", "obj"), {"intrinsics": INTR, "box": box}),
        Factor(2, "box-semi", ("side", "obj"), {"intrinsics": INTR, "box": box}),
        Factor(3, "pose-prior", ("cam",), {"observed": Pose.identity()}),
        Factor(4, "size", ("obj",), {"prior": (0.3, 0.25, 0.2)}),
    ]
    problem = Problem(variables, factors, fixed)
    factor_residual(factors[0], variables)  # the center itself is evaluable
    behind = 0
    for t in set(factors[0].targets) - fixed:
        for v in _OracleVariants(variables[t]).values[1:]:
            try:
                factor_residual(factors[0], {**variables, t: v})
            except BehindCameraError:
                behind += 1
    assert behind > 0
    lin = _assert_linearize_matches_oracle(problem)
    assert lin.skipped == []
    assert np.isfinite(dense_jacobian(lin)).all()
    assert solver._cost_of(solver._Plan(factors, variables), [])[1] == 0


def test_zero_width_box_raises_linearize_error_and_solve_diverges():
    # A flat landmark, with no extent along x, in the plane x = 0 through
    # the camera's center: with cx = 0 its box has zero width, and its u
    # discriminant is exactly 0, where the edges' derivative is infinite.
    # The cost keeps the factor; the linearization names it, and the solve
    # ends diverged at its first linearization without taking a step.
    intrinsics = CameraIntrinsics(fx=500.0, fy=500.0, cx=0.0, cy=240.0)
    # center (0, 0, 4), semi-axes (0, 0.5, 0.25): coefficients A..J of the dual
    flat = FullState(np.array([0.0, 0.25, 0.0625 - 16.0, 0.0, 0.0, 0.0, 0.0, 0.0, -4.0, -1.0]))
    box = BoundingBox(0.0, 0.0, 200.0, 280.0)
    factor = Factor(0, "box-inverse", ("cam", "obj"), {"intrinsics": intrinsics, "box": box})
    problem = Problem({"cam": Pose.identity(), "obj": flat}, [factor], {"cam"})
    residual = factor_residual(factor, problem.variables)
    assert residual[0] == residual[1] == 0.0  # a box of zero width at u = cx
    initial = total_cost(problem)
    assert np.isfinite(initial)
    with pytest.raises(solver.LinearizeError, match="in factor 0$"):
        linearize(problem)
    report = solve(problem)
    assert report.termination == "diverged"
    assert report.cost_trace == [initial] and report.attempts == 0


def test_cost_counts_behind_camera_and_degenerate_projection_skips():
    problem = random_graph_problem(5, "full", 3, 2)
    cam = problem.variables["cam0"]
    ahead = lambda d: cam.translation + d * cam.rotation[:, 2]
    # lm0 behind cam0; cam0 inside lm1, whose center is in front of it;
    # lm2 a hyperboloid, which no prior can decompose
    problem.variables["lm0"] = full_from_dual(RtsState(np.eye(3), ahead(-2.0), np.full(3, 0.3)).dual)
    problem.variables["lm1"] = full_from_dual(RtsState(np.eye(3), ahead(0.5), np.full(3, 2.0)).dual)
    hyperboloid = np.diag([0.2, 0.3, -0.1, -1.0])
    hyperboloid[:3, 3] = hyperboloid[3, :3] = -ahead(3.0)
    hyperboloid[:3, :3] += np.outer(ahead(3.0), ahead(3.0))
    problem.variables["lm2"] = full_from_dual(hyperboloid)
    factors = []
    for f in problem.factors:
        if f.targets[0] == "cam0" and f.kind.startswith("box"):
            f = Factor(f.fid, "box-inverse", f.targets, f.payload, f.variance)
        factors.append(f)
    problem.factors = factors
    by_target = {f.targets: f for f in factors if f.kind == "box-inverse"}
    with pytest.raises(BehindCameraError):
        factor_residual(by_target[("cam0", "lm0")], problem.variables)
    with pytest.raises(DegenerateProjectionError):
        factor_residual(by_target[("cam0", "lm1")], problem.variables)
    priors = [f for f in factors if f.targets == ("lm2",) and f.kind != "support"]
    with pytest.raises(DegenerateLandmarkError):
        factor_residual(priors[0], problem.variables)
    total, skipped, per_factor = _assert_cost_matches_oracle(problem)
    for f in [by_target[("cam0", "lm0")], by_target[("cam0", "lm1")]] + priors:
        assert f.fid not in per_factor
    lin = _assert_linearize_matches_oracle(problem)
    assert {f.fid for f in priors} <= set(lin.skipped)


def test_linearize_skips_prior_whose_variant_is_degenerate():
    # A raw-coefficient landmark 2e-6 m thin: its shape block is positive
    # definite, but FD steps of its coefficients make some variants' not.
    state = RtsState(so3_exp([0.3, 0.2, 0.1]), np.array([0.0, 0.0, 4.0]), np.array([0.4, 0.3, 2e-6]))
    factors = [
        Factor(0, "orientation", ("obj",), {"direction": np.array([0.0, 0.0, 1.0])}),
        Factor(1, "shape", ("obj",), {"prior": (0.4, 0.3, 0.1)}),
        Factor(2, "size", ("obj",), {"prior": (0.4, 0.3, 0.1), "form": "det"}),
        Factor(3, "support", ("obj",), {"plane": np.array([0.0, 0.0, 1.0, -3.0])}),
    ]
    problem = Problem({"obj": full_from_dual(state.dual)}, factors, set())
    for f in factors:
        factor_residual(f, problem.variables)  # the center itself is evaluable
    lin = _assert_linearize_matches_oracle(problem)
    assert lin.skipped == [0, 1, 2]


def test_priors_share_one_decomposition_per_landmark_stack(monkeypatch):
    # Every decomposed landmark row of an evaluation, the value and FD
    # variants of each landmark with a prior other than support, shares one
    # decomposition, however many priors read it; a landmark whose only
    # prior is support is never decomposed.
    calls = []
    decompose = solver.rts_from_duals

    def counted(duals):
        calls.append(len(duals))
        return decompose(duals)

    monkeypatch.setattr(solver, "rts_from_duals", counted)
    state = RtsState(so3_exp([0.3, 0.2, 0.1]), np.array([0.0, 0.0, 4.0]), np.array([0.4, 0.3, 0.2]))
    plane = np.array([0.0, 0.0, 1.0, -3.0])
    prior = (0.4, 0.3, 0.2)
    factors = [
        Factor(0, "orientation", ("a",), {"direction": np.array([0.0, 0.0, 1.0])}),
        Factor(1, "shape", ("a",), {"prior": prior}),
        Factor(2, "size", ("a",), {"prior": prior}),
        Factor(3, "support", ("a",), {"plane": plane}),
        Factor(4, "support", ("b",), {"plane": plane}),
        Factor(5, "size", ("c",), {"prior": prior, "form": "det"}),
    ]
    variables = {lm: as_parameterization(state, "spd") for lm in ("a", "b", "c")}
    problem = Problem(variables, factors, set())
    solver._cost_of(solver._Plan(problem.factors, problem.variables), [])
    assert calls == [2]  # the values of "a" and "c"
    calls.clear()
    linearize(problem)
    assert calls == [38]  # the values and their 2 x 9 FD variants, of "a" and "c"


def mixed_box_problem():
    """A random graph whose box factors alternate between the two models,
    with cam0 fixed and cam1-cam3 free."""
    problem = random_graph_problem(11, "spd", 3, 4)
    boxes = [f for f in problem.factors if f.kind in ("box-inverse", "box-semi")]
    kinds = {f.fid: ("box-inverse", "box-semi")[k % 2] for k, f in enumerate(boxes)}
    problem.factors = [Factor(f.fid, kinds.get(f.fid, f.kind), f.targets, f.payload, f.variance)
                       for f in problem.factors]
    problem.fixed = {"cam0"}
    return problem, boxes, kinds


def test_one_kernel_call_per_box_model_and_evaluation(monkeypatch):
    # Every camera's rows share one call per box model, one row per factor,
    # in the cost and in the linearization alike: a linearization sends no
    # FD variant row to a box kernel.
    problem, boxes, kinds = mixed_box_problem()
    calls = {"boxes_from_duals": [], "tangency_values": []}
    for name, rows in calls.items():
        kernel = getattr(_kernels, name)

        def counted(*args, kernel=kernel, rows=rows):
            rows.append(len(args[-1]))
            return kernel(*args)

        monkeypatch.setattr(_kernels, name, counted)
    groups = {name: [f for f in boxes if kinds[f.fid] == kind]
              for kind, name in (("box-inverse", "boxes_from_duals"), ("box-semi", "tangency_values"))}
    assert solver._cost_of(solver._Plan(problem.factors, problem.variables), [])[1] == 0
    assert calls == {name: [len(group)] for name, group in groups.items()}
    for rows in calls.values():
        rows.clear()
    assert not linearize(problem).skipped
    assert calls == {name: [len(group)] for name, group in groups.items()}


def test_no_fd_variant_row_reaches_a_box_kernel(monkeypatch):
    # A linearization's box kernels see the landmark values alone, each
    # through a pose value's [R|t]; the FD variants reach the box factors
    # only as the variables' differentials.
    problem = mixed_box_problem()[0]
    seen = {"boxes_from_duals": [], "tangency_values": []}
    for name, rows in seen.items():
        kernel = getattr(_kernels, name)

        def recorded(*args, kernel=kernel, rows=rows):
            rows.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, name, recorded)
    assert not linearize(problem).skipped
    values = problem.variables.values()
    duals = [v.dual for v in values if not isinstance(v, Pose)]
    cameras = [v.inverse_rt for v in values if isinstance(v, Pose)]
    (inverse,), (semi,) = seen["boxes_from_duals"], seen["tangency_values"]
    for dual in np.concatenate([inverse[-1], semi[-1]]):
        assert any(np.array_equal(dual, q) for q in duals)
    for rt in inverse[4]:
        assert any(np.array_equal(rt, c) for c in cameras)


def test_one_camera_per_pose_value_and_one_plane_call_per_evaluation(monkeypatch):
    # Both box models see a pose through the [R|t] of its value, computed in
    # one stacked inverse per pose kind: the fixed poses once per solve, the
    # free poses' values and their 12 FD variants (whose [R|t]s give the
    # poses' differentials) each once per evaluation. Box-semi builds the
    # edge planes of its factors on fixed poses once per solve, and those of
    # the free poses' values in one call per evaluation, one row a factor.
    problem, boxes, kinds = mixed_box_problem()
    # Pose priors invert their observed pose; only the box factors see cameras.
    problem.factors = [f for f in problem.factors if f.kind != "pose-prior"]
    semi = [f for f in boxes if kinds[f.fid] == "box-semi"]
    on_fixed = sum(f.targets[0] == "cam0" for f in semi)
    assert 0 < on_fixed < len(semi)
    inverted, plane_calls, evaluations = [], [], []
    inverse, edge_planes, evaluate = Pose.inverse, costs.box_edge_planes, solver._evaluate

    def counted_inverse(pose):
        inverted.append(pose)  # kept alive, so no two poses share an id
        return inverse(pose)

    def counted_planes(*args):
        plane_calls.append(len(args[2]))
        return edge_planes(*args)

    def counted_evaluate(*args):
        evaluations.append(None)
        return evaluate(*args)

    monkeypatch.setattr(Pose, "inverse", counted_inverse)
    monkeypatch.setattr(costs, "box_edge_planes", counted_planes)
    monkeypatch.setattr(solver, "_evaluate", counted_evaluate)

    def fresh_poses():
        return {vid: Pose(v.rotation, v.translation) if isinstance(v, Pose) else v
                for vid, v in problem.variables.items()}

    def rows(poses):
        return [len(np.reshape(p.translation, (-1, 3))) for p in poses]

    assert not linearize(Problem(fresh_poses(), problem.factors, problem.fixed)).skipped
    # cam0 alone; then the 3 free poses' values and their 3 x 12 variants
    assert rows(inverted) == [1, 3 + 36]
    assert len({id(p) for p in inverted}) == len(inverted)
    assert plane_calls == [on_fixed, len(semi) - on_fixed]

    inverted.clear()
    plane_calls.clear()
    evaluations.clear()
    fixed = Problem(fresh_poses(), problem.factors, problem.fixed)
    report = solve(fixed, SolveOptions(max_iterations=3))
    assert report.iterations > 0
    assert rows(inverted).count(1) == 1  # cam0, the only fixed pose
    assert len({id(p) for p in inverted}) == len(inverted)
    assert plane_calls.count(on_fixed) == 1
    assert len(plane_calls) == len(evaluations) + 1


def _stack_value(kind, seed, fd_step, edge):
    """A pose or landmark value; with ``edge``, an RtsState whose third
    semi-axis minus its FD step is about zero, or an SpdState whose
    smallest eigenvalue sits at the retraction's relative floor
    (1e-15 x 1e3), which some of its variants then take."""
    rng = np.random.default_rng(seed)
    rotation, translation = so3_exp(rng.normal(size=3)), rng.normal(scale=2.0, size=3)
    if kind == "pose":
        return Pose(rotation, translation)
    if kind == "spd" and edge:
        return SpdState(np.diag([1e3, 1e-2, 1.0001e-12]), translation)
    scale = rng.uniform(0.2, 2.0, size=3)
    if kind == "rts" and edge:
        scale[2] = fd_step / (1.0 - fd_step)  # equals its FD step, fd_step * (1 + scale)
    return as_parameterization(RtsState(rotation, translation, scale), kind)


def _outcome(make):
    """``make()``, or the repr of the DegenerateLandmarkError it raises."""
    try:
        return make()
    except DegenerateLandmarkError as exc:
        return repr(exc)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["pose", "rts", "spd", "full"]), st.integers(0, 2**31 - 1),
       st.sampled_from([1e-9, 1e-7, 1e-6, 1e-3, 0.5]), st.booleans())
@example("pose", 0, 1e-9, False)
@example("pose", 0, 1e-7, False)
@example("rts", 0, 1e-9, False)
@example("rts", 0, 1e-6, True)
@example("spd", 0, 1e-3, True)
@example("spd", 0, 0.5, True)
def test_fd_stack_rows_equal_scalar_retractions(kind, seed, fd_step, edge):
    # Each row of a kind's batched FD stack has the bits of its own scalar
    # retract (a batch of one) and of the one-value-at-a-time formulas: the
    # values first, then each variable's plus and minus steps. Steps of
    # 1e-9 and 1e-7 rad fall below the small-angle thresholds. The stack
    # holds several values with steps of mixed sizes, the edge value among
    # them; a variable with an underivable row gets that row's error, as
    # the scalar raises it, and the others keep their rows. A batched
    # retract over random steps of mixed sizes, rotation and translation
    # together, matches the formulas too.
    value = _stack_value(kind, seed, fd_step, edge)
    with mock.patch.object(solver, "FD_STEP", fd_step):
        variants = _OracleVariants(value)
    steps = np.diag(variants.h)
    mixed = np.random.default_rng(seed).normal(size=(6, value.tangent_dim))
    steps = np.concatenate([steps, -steps, mixed * np.array([0, 1e-9, 1e-7, 1e-5, 1e-2, 1])[:, None]])
    batch = value.retract(steps)
    if kind == "pose":
        oracle = np.stack([scalar_pose_retract(value.rotation, value.translation, s) for s in steps])
        assert np.array_equal(batch.rotation, oracle[:, :, :3])
        assert np.array_equal(batch.translation, oracle[:, :, 3])
    else:
        oracle = [scalar_landmark_retract(value, s) for s in steps]
        for name in batch.__dataclass_fields__:
            assert np.array_equal(getattr(batch, name), np.stack([getattr(o, name) for o in oracle]))

    values = [_stack_value(kind, seed + 1, fd_step, False), value, _stack_value(kind, seed + 2, 0.0, False)]
    hs = np.stack([step * v.fd_scales() for step, v in zip((1e-7, fd_step, 0.5), values)])
    stack, ids = _kind_stack(values, hs)
    k, d = hs.shape
    for i, (v, h, vid) in enumerate(zip(values, hs, ids)):
        rows = np.r_[i, k + 2 * d * i : k + 2 * d * (i + 1)]
        steps = np.diag(h)
        if kind == "pose":
            rt = np.stack([np.column_stack([v.rotation, v.translation])]
                          + [scalar_pose_retract(v.rotation, v.translation, s) for s in (*steps, *-steps)])
            assert np.array_equal(stack.field("rotation")[rows], rt[:, :, :3])
            assert np.array_equal(stack.field("translation")[rows], rt[:, :, 3])
            cameras = np.stack([scalar_inverse_rt(m[:, :3], m[:, 3]) for m in rt])
            assert np.array_equal(stack.field("inverse_rt")[rows], cameras)
            if v is value:
                assert np.array_equal(np.stack([u.inverse_rt for u in variants.values]), cameras)
            continue
        duals = stack.field("dual")[rows]
        got = repr(stack.errors[vid]) if vid in stack.errors else duals
        expected = _outcome(lambda: np.stack([scalar_dual(u) for u in [v] + [
            scalar_landmark_retract(v, s) for s in (*steps, *-steps)]]))
        assert _same(got, expected)
        if v is value:
            assert _same(expected, _outcome(lambda: variants.duals))
    if kind == "rts" and edge:
        assert repr(stack.errors.pop("v1")) == repr(DegenerateLandmarkError("semi-axis length is (near) zero"))
        assert not stack.errors


def _kind_stack(values, hs):
    """The stack of one kind's free values, ids v0, v1, ..., with FD steps
    ``hs`` (k, dim), and their ids."""
    ids = [f"v{i}" for i in range(len(values))]
    pose = isinstance(values[0], Pose)
    payload = {"observed": values[0]} if pose else {"plane": np.array([0.0, 0.0, 1.0, 0.0])}
    factors = [Factor(i, "pose-prior" if pose else "support", (vid,), payload)
               for i, vid in enumerate(ids)]
    variables = dict(zip(ids, values))
    plan = solver._Plan(factors, variables, ids)
    return solver._Stack(plan, "pose" if pose else "landmark", plan.stack(variables), [hs], None), ids


def _free_pose_problem():
    """A random graph with every pose free and a pose prior on each."""
    problem = random_graph_problem(4, "rts", 2, 3)
    problem.fixed = set()
    assert {f.targets[0] for f in problem.factors if f.kind == "pose-prior"} == {"cam0", "cam1", "cam2"}
    return problem


class _RecordingNumpy:
    """numpy as a module sees it through this stand-in: every array that
    one of its functions (not its ufuncs) returns has its shape recorded."""

    def __init__(self, shapes: list):
        self._shapes = shapes

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, (type, np.ufunc)):
            return attr

        def recorded(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._shapes.append(getattr(out, "shape", ()))
            return out

        return recorded


def test_solve_factors_only_landmark_blocks_and_the_pose_system(monkeypatch):
    # A count, not a timing: on a graph with free poses and free landmarks,
    # each damped step factors one batch of landmark blocks and one reduced
    # pose system, no matrix larger than 6 x the free poses, and no numpy
    # function in the solver module returns an array with two axes as long
    # as the n tangent coordinates: no dense H is built.
    problem = random_graph_problem(0, "rts", 6, 2)
    problem.fixed = set()
    n = sum(problem.variables[vid].tangent_dim for vid in problem.free_ids())
    p = 6 * sum(isinstance(problem.variables[vid], Pose) for vid in problem.free_ids())
    assert n == 9 * 6 + p and p == 12
    shapes, factored = [], []
    for name in ("solve", "cholesky", "inv"):
        def recorded(a, *args, factor=getattr(np.linalg, name)):
            factored.append(a.shape)
            return factor(a, *args)

        monkeypatch.setattr(np.linalg, name, recorded)
    monkeypatch.setattr(solver, "np", _RecordingNumpy(shapes))
    report = solve(problem, SolveOptions(max_iterations=3))
    assert report.iterations == 3
    # Per step: the landmark blocks' solve, Cholesky factors and the
    # factors' inverses, then the reduced system's solve.
    steps = len(factored) // 4
    assert factored == [(6, 9, 9), (6, 9, 9), (6, 9, 9), (p, p)] * steps
    assert steps >= report.attempts
    assert shapes and not [shape for shape in shapes if sum(size >= n for size in shape) >= 2]


def test_linearize_makes_no_scalar_retractions(monkeypatch):
    # The FD variants come from one batched retract per variable kind; only
    # the LM candidate step retracts through retract_value, once per kind of
    # free variable per attempt.
    calls = []
    retract = solver.retract_value

    def counted(value, delta):
        calls.append(value)
        return retract(value, delta)

    monkeypatch.setattr(solver, "retract_value", counted)
    for problem in (mixed_box_problem()[0], _free_pose_problem()):
        assert not linearize(problem).skipped
        assert calls == []
        report = solve(problem, SolveOptions(max_iterations=3))
        assert report.attempts > 0
        kinds = {type(problem.variables[vid]) for vid in problem.free_ids()}
        assert len(kinds) == 2
        assert len(calls) == report.attempts * len(kinds)
        calls.clear()


def test_solve_settles_each_free_kind_once_per_step_and_splits_once(monkeypatch):
    # The free variables stay stacked from the plan to the report: each
    # accepted step settles every free kind in one call on its stack, and
    # only the report splits the stacks into per-variable values.
    settles, splits = [], []
    for cls in (Pose, RtsState, SpdState, FullState):
        def counted(value, settled=cls.settled):
            settles.append((type(value), len(getattr(value, fields(value)[0].name))))
            return settled(value)

        monkeypatch.setattr(cls, "settled", counted)
    split = solver._Plan.split
    monkeypatch.setattr(solver._Plan, "split",
                        lambda plan, stacked: splits.append(1) or split(plan, stacked))
    for problem in (mixed_box_problem()[0], _free_pose_problem(), random_graph_problem(3, "full", 3, 4)):
        report = solve(problem, SolveOptions(max_iterations=3))
        assert report.iterations > 0
        kinds = Counter(type(problem.variables[vid]) for vid in problem.free_ids())  # kind: its rows
        assert len(kinds) == 2
        assert settles == list(kinds.items()) * report.iterations
        assert splits == [1]
        settles.clear()
        splits.clear()


def test_problem_rejects_non_finite_values():
    # A NaN landmark under a shape and a support prior would otherwise solve
    # to "diverged" with a cost trace of [nan].
    state = RtsState(np.eye(3), np.array([np.nan, 0.0, 4.0]), np.array([0.4, 0.3, 0.2]))
    factors = [Factor(0, "shape", ("lm",), {"prior": (0.4, 0.3, 0.2)}),
               Factor(1, "support", ("lm",), {"plane": np.array([0.0, 0.0, 1.0, -3.0])})]
    with pytest.raises(ProblemError, match="'lm'"):
        Problem({"lm": state}, factors, set())
    problem = trial_problem(seeded_trial(), "rts", "inverse")
    cam = next(vid for vid, v in problem.variables.items() if isinstance(v, Pose))
    rotation = problem.variables[cam].rotation.copy()
    rotation[0, 1] = np.nan
    with pytest.raises(ProblemError, match=repr(cam)):
        Problem({**problem.variables, cam: Pose(rotation, problem.variables[cam].translation)},
                problem.factors, problem.fixed)
