import numpy as np
import pytest

from quadricfit.costs import (
    BoundingBox,
    CameraFrame,
    CameraIntrinsics,
    Factor,
    conic_bbox,
    project_dual,
)
from quadricfit.manifold import Pose, se3_exp
from quadricfit.quadric import RtsState
from quadricfit.sim import (
    NOISE_LEVELS,
    NoiseSpec,
    SceneSpec,
    make_trial,
    run_trial,
    trial_problem,
)
from quadricfit.solver import (
    Problem,
    ProblemError,
    SolveOptions,
    cost_breakdown,
    declare_success,
    factor_residual,
    linearize,
    solve,
    total_cost,
)

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


def tiny_noise():
    return NoiseSpec("T", 0.0, np.radians(2.0), 0.02, 0.02)


def seeded_trial(noise="L", arc=60.0, idx=0, entropy=7):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=(0, int(arc), idx))
    return make_trial(SceneSpec(arc_deg=arc), NOISE_LEVELS[noise], seq, idx)


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


def test_linearize_richardson_consistency():
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
    full = linearize(problem, SolveOptions(fd_step=1e-6))
    half = linearize(problem, SolveOptions(fd_step=5e-7))
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


def test_solve_gauss_newton_mode():
    trial = seeded_trial("L", idx=5)
    problem = trial_problem(trial, "rts", "inverse")
    report = solve(problem, SolveOptions(gauss_newton=True))
    assert report.cost_trace[-1] < report.cost_trace[0]


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
    behind = frame.pose.apply(np.array([0.0, 0.0, -3.0]))
    problem.variables["obj"] = RtsState(np.eye(3), behind, np.array([0.5, 0.4, 0.3]))
    report = solve(problem)  # must not raise
    assert report.skip_events >= 1 or report.skipped_final >= 0


def test_declare_success_rules():
    trial = seeded_trial("L", idx=7)
    problem = trial_problem(trial, "rts", "inverse")
    report = solve(problem)
    assert declare_success(report, 0.0)  # converged noiseless: floor slack
    report.termination = "diverged"
    assert not declare_success(report, 0.0)
    report.termination = "cost_converged"
    report.skipped_final = 1
    assert not declare_success(report, 0.0)


def test_cost_breakdown_contains_kinds():
    trial = seeded_trial("M", idx=8)
    problem = trial_problem(trial, "rts", "semi")
    problem.factors.append(
        Factor(100, "orientation", ("obj",), {"direction": np.array([0.0, 0.0, 1.0])})
    )
    breakdown = cost_breakdown(problem)
    assert set(breakdown) == {"box-semi", "orientation"}
    np.testing.assert_allclose(sum(breakdown.values()), total_cost(problem), rtol=1e-12)
