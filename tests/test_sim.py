import os

import numpy as np
import pytest

from quadricfit import sim
from quadricfit.manifold import se3_log, Pose
from quadricfit.sim import (
    NOISE_LEVELS,
    CampaignSpec,
    NoiseSpec,
    generate_scene,
    initial_state,
    make_trial,
    perturb_boxes,
    perturb_initial,
    run_campaign,
    run_trial,
    synthetic_graph,
    trial_problem,
)
from oracles import residual


def test_noise_level_table():
    # the three named levels, exactly
    L, M, H = NOISE_LEVELS["L"], NOISE_LEVELS["M"], NOISE_LEVELS["H"]
    assert (L.sigma_box_px, L.sigma_trans_m, L.sigma_scale_rel) == (0.0, 0.1, 0.10)
    assert (M.sigma_box_px, M.sigma_trans_m, M.sigma_scale_rel) == (5.0, 1.0, 0.30)
    assert (H.sigma_box_px, H.sigma_trans_m, H.sigma_scale_rel) == (10.0, 3.0, 0.50)
    np.testing.assert_allclose(
        [L.sigma_rot_rad, M.sigma_rot_rad, H.sigma_rot_rad],
        np.radians([10.0, 20.0, 40.0]),
    )


@pytest.mark.parametrize("sigma", [-1.0, float("nan")])
def test_noise_spec_rejects_negative_and_nan_sigmas(sigma):
    for i in range(4):
        sigmas = [1.0, 0.1, 0.1, 0.1]
        sigmas[i] = sigma
        with pytest.raises(ValueError, match="non-negative"):
            NoiseSpec("X", *sigmas)


def test_generate_scene_deterministic():
    a = generate_scene(60.0, np.random.default_rng(5))
    b = generate_scene(60.0, np.random.default_rng(5))
    np.testing.assert_array_equal(a.landmark.scale, b.landmark.scale)
    np.testing.assert_array_equal(a.frames[3].pose.translation, b.frames[3].pose.translation)
    np.testing.assert_array_equal(a.boxes[7].as_array(), b.boxes[7].as_array())


def test_generate_scene_boxes_self_consistent():
    scene = generate_scene(60.0, np.random.default_rng(11))
    for frame, box in zip(scene.frames, scene.boxes):
        r = residual("box-inverse", scene.landmark.dual, {"box": box}, frame)
        np.testing.assert_allclose(r, np.zeros(4), atol=1e-9)
        arr = box.as_array()
        assert 0 <= arr[0] <= arr[1] <= 640 and 0 <= arr[2] <= arr[3] <= 480


def test_generate_scene_samples_within_bounds():
    low, high = sim.AXIS_RANGE
    for seed in range(20):
        scene = generate_scene(60.0, np.random.default_rng(seed))
        assert np.all(np.abs(scene.landmark.translation) <= np.array(sim.REGION) / 2 + 1e-12)
        assert np.all((low <= scene.landmark.scale) & (scene.landmark.scale <= high))


def _azimuth_spread(scene):
    center = scene.landmark.translation
    az = []
    for f in scene.frames:
        d = f.pose.translation - center
        az.append(np.arctan2(d[1], d[0]))
    az = np.unwrap(np.sort(az))
    return az.max() - az.min()


def test_arc_spread_statistic():
    wide, narrow = [], []
    for seed in range(100):
        narrow.append(_azimuth_spread(generate_scene(60.0, np.random.default_rng(seed))))
        wide.append(_azimuth_spread(generate_scene(120.0, np.random.default_rng(seed))))
    assert np.mean(wide) > np.mean(narrow) * 1.4


@pytest.mark.parametrize("arc", [0.0, -10.0, 360.5, float("nan")])
def test_generate_scene_rejects_arcs_outside_0_360(arc):
    with pytest.raises(ValueError, match="viewing arc"):
        generate_scene(arc, np.random.default_rng(0))


def test_perturb_initial_zero_noise_identity():
    scene = generate_scene(60.0, np.random.default_rng(3))
    zero = NOISE_LEVELS["L"].__class__("Z", 0.0, 0.0, 0.0, 0.0)
    out = perturb_initial(scene.landmark, zero, np.random.default_rng(0))
    np.testing.assert_allclose(out.rotation, scene.landmark.rotation, atol=1e-12)
    np.testing.assert_allclose(out.translation, scene.landmark.translation, atol=1e-12)
    np.testing.assert_allclose(out.scale, scene.landmark.scale, atol=1e-12)


def test_perturb_initial_rotation_statistics():
    # per-axis std of the recovered left-perturbation matches sigma_rot
    scene = generate_scene(60.0, np.random.default_rng(4))
    level = NOISE_LEVELS["L"]
    rng = np.random.default_rng(99)
    truth_pose = Pose(scene.landmark.rotation, scene.landmark.translation)
    samples = []
    for _ in range(1000):
        out = perturb_initial(scene.landmark, level, rng)
        rel = Pose(out.rotation, out.translation).compose(truth_pose.inverse())
        samples.append(se3_log(rel)[:3])
    std = np.asarray(samples).std(axis=0)
    np.testing.assert_allclose(std, np.full(3, level.sigma_rot_rad), rtol=0.15)


def test_perturb_initial_clamps_axes():
    scene = generate_scene(60.0, np.random.default_rng(6))
    level = NOISE_LEVELS["H"]
    rng = np.random.default_rng(1)
    for _ in range(500):
        out = perturb_initial(scene.landmark, level, rng)
        assert np.all(out.scale >= 0.05)
        # always convertible to a valid SPD state
        shape = initial_state(out, "spd").shape
        assert np.linalg.eigvalsh(shape)[0] > 0


def test_perturb_boxes_zero_sigma_identity():
    scene = generate_scene(60.0, np.random.default_rng(7))
    out = perturb_boxes(scene.boxes, 0.0, np.random.default_rng(0))
    for a, b in zip(out, scene.boxes):
        np.testing.assert_array_equal(a.as_array(), b.as_array())


def test_perturb_boxes_statistics_and_ordering():
    scene = generate_scene(60.0, np.random.default_rng(8))
    rng = np.random.default_rng(2)
    diffs = []
    for _ in range(2500):
        noisy = perturb_boxes(scene.boxes, 5.0, rng)
        for a, b in zip(noisy, scene.boxes):
            arr = a.as_array()
            assert arr[0] <= arr[1] and arr[2] <= arr[3]
            diffs.append(arr - b.as_array())
    # pool non-reordered edges; std approx 5 within 10%
    d = np.asarray(diffs).ravel()
    assert abs(d.std() - 5.0) / 5.0 < 0.10


def test_box_noise_variance_chi_square():
    # sample variance of 1e4 draws within the 1% chi-square band
    # (normal approximation: |s^2/sigma^2 - 1| <= 2.576 * sqrt(2/n))
    rng = np.random.default_rng(14)
    box = generate_scene(60.0, np.random.default_rng(9)).boxes[:1]
    n = 10_000
    draws = np.array([perturb_boxes(box, 5.0, rng)[0].as_array() for _ in range(n)])
    # use an interior edge difference immune to re-ordering: box center shift
    centers_u = 0.5 * (draws[:, 0] + draws[:, 1])
    var_ratio = centers_u.var() / (0.5 * 5.0**2)  # var of mean of two edges
    assert abs(var_ratio - 1.0) <= 2.576 * np.sqrt(2.0 / n)


def test_initial_state_conversions_share_quadric():
    trial = make_trial(60.0, NOISE_LEVELS["M"], np.random.SeedSequence(42))
    duals = [initial_state(trial.init_rts, p).dual for p in ("full", "rts", "spd")]
    np.testing.assert_allclose(duals[0], duals[1], atol=1e-12)
    np.testing.assert_allclose(duals[1], duals[2], atol=1e-12)


def test_run_trial_deterministic_and_low_noise_success():
    trial = make_trial(60.0, NOISE_LEVELS["L"], np.random.SeedSequence(21))
    a = run_trial(trial, "spd", "semi")
    b = run_trial(trial, "spd", "semi")
    assert a.cost_trace == b.cost_trace
    assert a.success and a.iou >= 0.95


def test_run_campaign_parallel_serial_identical():
    spec = CampaignSpec(
        master_seed=13, noise_levels=("L",), arcs=(60.0,), trials_per_cell=3,
        parameterizations=("rts", "spd"), models=("semi",),
    )
    serial = run_campaign(spec, jobs=1)
    parallel = run_campaign(spec, jobs=4)
    assert len(serial) == 6
    for a, b in zip(serial, parallel):
        assert a.key() == b.key()
        assert a.cost_trace == b.cost_trace
        assert a.iou == b.iou


def test_default_campaign_grid_arithmetic():
    from quadricfit.sim import campaign_tasks

    spec = CampaignSpec()
    tasks = campaign_tasks(spec)
    # 3 noise x 2 arcs x 24 scenes, each solved under 3 x 2 configurations
    assert len(tasks) == 144
    assert len(tasks) * len(spec.parameterizations) * len(spec.models) == 864


def test_medium_noise_semi_success_rate():
    # manifold parameterizations essentially always converge on the
    # medium-noise semi-inverse cell
    spec = CampaignSpec(
        master_seed=0, noise_levels=("M",), arcs=(60.0,), trials_per_cell=24,
        parameterizations=("rts", "spd"), models=("semi",),
    )
    results = run_campaign(spec, jobs=4)
    for param in ("rts", "spd"):
        wins = sum(r.success for r in results if r.parameterization == param)
        assert wins >= 23, f"{param}: {wins}/24"


def test_synthetic_graph_valid_and_priors_hold_at_truth():
    from quadricfit import graphio

    g = synthetic_graph(3)
    graphio.validate_graph(g)
    truth = graphio.truth_landmarks(g)["obj"]
    q = truth.dual
    pri = g["priors"]
    np.testing.assert_allclose(
        residual("orientation", q, {"direction": np.asarray(pri["orientation"][0]["direction"])}),
        np.zeros(9), atol=1e-8
    )
    np.testing.assert_allclose(residual("shape", q, {"prior": pri["scale"][0]["abc"]}),
                               np.zeros(2), atol=1e-8)
    assert abs(residual("size", q, {"prior": pri["scale"][0]["abc"]})) < 1e-8
    assert abs(residual("support", q, {"plane": np.asarray(pri["support"][0]["plane"])})) < 1e-8


def test_default_jobs_follow_the_affinity_set(monkeypatch):
    # On an affinity-limited host the CPU count overstates the usable CPUs.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert sim.usable_cpus() == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a single usable CPU must not start a worker pool")

    monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
    spec = CampaignSpec(master_seed=3, noise_levels=("L",), arcs=(60.0,), trials_per_cell=1,
                        parameterizations=("rts",), models=("semi",))
    assert len(run_campaign(spec)) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    assert sim.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sim.usable_cpus() == 64


def test_run_campaign_starts_no_more_workers_than_tasks(monkeypatch):
    pools = []

    class RecordingPool:
        """Records the worker count asked for and runs the tasks in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    one = CampaignSpec(master_seed=1, noise_levels=("L",), arcs=(60.0,), trials_per_cell=1,
                       parameterizations=("rts",), models=("inverse",))
    assert len(run_campaign(one, jobs=4)) == 1
    assert pools == []
    two = CampaignSpec(master_seed=1, noise_levels=("L",), arcs=(60.0,), trials_per_cell=2,
                       parameterizations=("rts",), models=("inverse",))
    assert len(run_campaign(two, jobs=8)) == 2
    assert pools == [2]


def test_trial_problem_rejects_unknown_model():
    trial = make_trial(60.0, NOISE_LEVELS["L"], np.random.SeedSequence(5))
    with pytest.raises(ValueError, match="unknown model 'foo'"):
        trial_problem(trial, "rts", "foo")


@pytest.mark.parametrize("field, value, message", [
    ("models", ("semi", "foo"), "unknown models"),
    ("parameterizations", ("bar",), "unknown parameterizations"),
    ("noise_levels", ("X",), "unknown noise_levels"),
    ("arcs", (0.0,), "arcs must be in"),
    ("arcs", (360.5,), "arcs must be in"),
    ("arcs", (float("nan"),), "arcs must be in"),
    ("noise_levels", "LM", "noise_levels must be a list"),
    ("parameterizations", "rts", "parameterizations must be a list"),
    ("arcs", 60.0, "arcs must be a list"),
    ("arcs", (True,), "arcs must be numbers"),
    ("arcs", ("60",), "arcs must be numbers"),
    ("noise_levels", ("L", "L"), "noise_levels must be distinct"),
    ("models", ["semi", "semi"], "models must be distinct"),
    ("arcs", (60, 60.4), "arcs must be distinct in whole degrees"),
    ("trials_per_cell", 0, "trials_per_cell must be a positive integer"),
    ("trials_per_cell", -2, "trials_per_cell must be a positive integer"),
    ("trials_per_cell", 1.5, "trials_per_cell must be a positive integer"),
    ("master_seed", -1, "master_seed must be a non-negative integer"),
    ("master_seed", 1.5, "master_seed must be a non-negative integer"),
    ("master_seed", "abc", "master_seed must be a non-negative integer"),
    ("master_seed", True, "master_seed must be a non-negative integer"),
])
def test_campaign_spec_rejects_unknown_grid_names(field, value, message):
    with pytest.raises(ValueError, match=message):
        CampaignSpec(**{field: value})


def test_campaign_spec_holds_grid_lists_as_tuples_of_float_arcs():
    spec = CampaignSpec(noise_levels=["L"], arcs=[60, 120.5], models=["semi"])
    assert spec.noise_levels == ("L",) and spec.models == ("semi",)
    assert spec.arcs == (60.0, 120.5) and all(type(a) is float for a in spec.arcs)
