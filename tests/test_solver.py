from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadricfit import _kernels, costs, solver
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
    frame_edge_planes,
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
    assert lin.jacobian.shape == (40, 9)


def test_linearize_pose_prior_identity_jacobian(rng):
    obs = se3_exp(rng.normal(size=6) * 0.3)
    factor = Factor(0, "pose-prior", ("x",), {"observed": obs})
    problem = Problem({"x": obs}, [factor], set())
    lin = linearize(problem)
    np.testing.assert_allclose(lin.jacobian, np.eye(6), atol=1e-5)


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
    full = linearize(problem)
    monkeypatch.setattr(solver, "FD_STEP", 0.5 * solver.FD_STEP)
    half = linearize(problem)
    scale = np.maximum(np.abs(full.jacobian), np.abs(half.jacobian))
    # mixed criterion: entries far below the block scale are FD noise
    rel = np.abs(full.jacobian - half.jacobian) / (scale + 1e-5 * max(scale.max(), 1.0))
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
    assert report.skipped_final == solver._cost_of(report.variables, problem.factors)[1]


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


def _non_finite(a, b):
    return np.full(len(b), np.nan)


@pytest.mark.parametrize("normal_solve", [_singular, _non_finite])
def test_solve_diverges_when_normal_equations_give_no_step(monkeypatch, normal_solve):
    # Every retry raises the damping to its cap without a cost evaluation.
    trial = seeded_trial("M", idx=2)
    problem = trial_problem(trial, "rts", "inverse")
    monkeypatch.setattr(np.linalg, "solve", normal_solve)
    report = solve(problem)
    assert report.termination == "diverged"
    assert report.iterations == 0 and report.attempts == 0
    assert report.lambda_final == solver._LAMBDA_MAX


def test_solve_stalls_after_max_inner_retries_rejected_candidates(monkeypatch):
    trial = seeded_trial("M", idx=2)
    problem = trial_problem(trial, "rts", "inverse")
    true_cost_of = solver._cost_of
    calls = []

    def rejecting_cost_of(values, factors, plan=None):
        # The initial cost is the true one; every later one is twice that.
        total, skipped, per_factor = true_cost_of(values, factors, plan)
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


def _oracle_box_table(factor, frame, duals):
    intr = factor.payload["intrinsics"]
    box = factor.payload["box"]
    if factor.kind == "box-inverse":
        boxes, status = _kernels.boxes_from_duals(
            intr.fx, intr.fy, intr.cx, intr.cy, np.stack([frame.projection_rt()] * len(duals)), duals
        )
        return boxes - box.as_array(), status == 0
    vals = _kernels.tangency_values(np.stack([frame_edge_planes(frame, box)] * len(duals)), duals)
    return vals, np.ones(len(vals), dtype=bool)


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
    """One factor's (jacobian rows, residual), or None when skipped: one
    kernel call per landmark stack and per pose variant, as before the
    solver grouped factors by camera."""
    free_targets = [t for t in f.targets if t in variants]
    if f.kind in ("box-inverse", "box-semi"):
        pose_id, lm_id = f.targets
        pose_free = pose_id in variants
        lm_free = lm_id in variants
        frame = CameraFrame(f.payload["intrinsics"], values[pose_id])
        jac = np.zeros((f.dim, n))
        if lm_free:
            var = variants[lm_id]
            duals = _stack_read(var, "duals")
            if duals is None:
                return None
            table, ok = _oracle_box_table(f, frame, duals)
            if not ok.all():
                return None
            res = table[0]
            d = var.dim
            jac[:, columns[lm_id]] = (table[1 : 1 + d] - table[1 + d :]).T / (2.0 * var.h)
        else:
            q = _safe_dual(values[lm_id])
            if q is None:
                return None
            table, ok = _oracle_box_table(f, frame, q[None])
            if not ok[0]:
                return None
            res = table[0]
        if pose_free:
            var = variants[pose_id]
            cols = columns[pose_id]
            qc = variants[lm_id].duals[0] if lm_free else _safe_dual(values[lm_id])
            poses = _stack_read(var, "values")
            if poses is None:
                return None
            for j in range(var.dim):
                pair = []
                for v in (poses[1 + j], poses[1 + var.dim + j]):
                    t, ok = _oracle_box_table(f, CameraFrame(f.payload["intrinsics"], v), qc[None])
                    if not ok[0]:
                        return None
                    pair.append(t[0])
                jac[:, cols][:, j] = (pair[0] - pair[1]) / (2.0 * var.h[j])
        return jac, res
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
    unconstrained = set(problem.unconstrained())
    free = [v for v in problem.free_ids() if v not in unconstrained]
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
    assert np.array_equal(lin.jacobian, jac)
    assert np.array_equal(lin.residual, res)
    assert np.array_equal(lin.weights, weights)
    return lin


def _assert_cost_matches_oracle(problem):
    got = solver._cost_of(problem.variables, problem.factors)
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
    _, _, per_factor = solver._cost_of(problem.variables, problem.factors)
    offset = 0
    for f in sorted(problem.factors, key=lambda f: f.fid):
        if f.fid in lin.skipped:
            continue
        r = lin.residual[offset:offset + f.dim]
        assert float(np.dot(r, r / f.variance)) == per_factor[f.fid]
        offset += f.dim
    assert offset == lin.residual.size


def _scalar_retract(value, delta):
    """One variable moved by the one-value-at-a-time formulas."""
    if isinstance(value, Pose):
        rt = scalar_pose_retract(value.rotation, value.translation, delta)
        return Pose(rt[:, :3], rt[:, 3])
    return scalar_landmark_retract(value, delta)


def _reference_solve(problem, max_iterations):
    """solve()'s LM loop on the oracles: a scalar retract per variable,
    _oracle_linearize and _oracle_cost, with the solver's constants and
    _settle. (cost trace, attempts, termination, skip events, skips at
    the final variables, final variables)."""
    unconstrained = set(problem.unconstrained())
    free = [v for v in problem.free_ids() if v not in unconstrained]
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
        grad = jac.T @ (weights * res)
        if np.max(np.abs(grad)) < solver.GRAD_TOL:
            termination = "gradient"
            break
        hess = jac.T @ (weights[:, None] * jac)
        accepted, evals = False, 0
        while True:
            try:
                delta = np.linalg.solve(hess + lam * np.eye(len(hess)), -grad)
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
        if solver._settle(values, free):
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
    # per-factor oracles, skips and fixups included.
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
def test_linearize_skips_factor_whose_variant_falls_behind_camera(param, fixed):
    # The landmark's nearest surface point is 5e-7 m in front of "cam":
    # evaluable there, but the FD steps of the camera's and the landmark's
    # translation (about 1e-6 m) each put it across the camera's principal
    # plane. The landmark sits near the camera's axis: farther out, the
    # projected conic's entries grow and g[2, 2] = -2e-7 m^2 would be too
    # small to normalize by.
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
    lin = _assert_linearize_matches_oracle(problem)
    assert lin.skipped == [0]


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
    solver._cost_of(problem.variables, problem.factors)
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
    # Every camera's rows, landmark variants and pose variants share one
    # call per box model, in the cost and in the linearization alike.
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
    assert solver._cost_of(problem.variables, problem.factors)[1] == 0
    assert calls == {name: [len(group)] for name, group in groups.items()}
    for rows in calls.values():
        rows.clear()
    assert not linearize(problem).skipped
    # each factor: its landmark's 19 variant rows, and 12 pose-variant rows unless on cam0
    assert calls == {name: [sum(19 + 12 * (f.targets[0] != "cam0") for f in group)]
                     for name, group in groups.items()}


def test_one_camera_per_pose_value_and_one_plane_call_per_evaluation(monkeypatch):
    # Both box models see a pose through the [R|t] of its value, computed in
    # one stacked inverse per pose kind: the fixed poses once per solve, the
    # free poses' values and their 12 FD variants each once per evaluation.
    # Box-semi builds the edge planes of its factors on fixed poses once per
    # solve, and those of the free poses' values in one call per evaluation.
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
    assert plane_calls == [on_fixed, 13 * (len(semi) - on_fixed)]

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
