"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured values. Campaign-based criteria share module-scoped
fixtures so the grid is solved once.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from quadricfit import graphio
from quadricfit.cli import main as cli_main
from quadricfit.costs import conic_bbox, project_dual
from quadricfit.evaluation import (
    OrientedBox,
    iou_boxes,
    orientation_error,
    score_estimate,
)
from quadricfit.manifold import so3_exp, spd_metric, spd_retract, spd_sqrt
from quadricfit.quadric import (
    RtsState,
    proper_axis_permutations,
)
from quadricfit.sim import CampaignSpec, run_campaign, synthetic_graph
from quadricfit.solver import SolveOptions, solve
from conftest import random_rts, random_spd, random_sym
from oracles import iou_aabb_analytic, permuted_rts, spd_log

JOBS = 4
MASTER_SEEDS = (0, 1, 2, 3, 4)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Campaign fixtures (shared by criteria 4-7)


@pytest.fixture(scope="module")
def campaign_low():
    spec = CampaignSpec(master_seed=MASTER_SEEDS[0], noise_levels=("L",), arcs=(60.0, 120.0),
                        trials_per_cell=24)
    t0 = time.perf_counter()
    results = run_campaign(spec, jobs=JOBS)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def campaigns_mh():
    out = {}
    for seed in MASTER_SEEDS:
        spec = CampaignSpec(master_seed=seed, noise_levels=("M", "H"), arcs=(60.0, 120.0),
                            trials_per_cell=24)
        out[seed] = run_campaign(spec, jobs=JOBS)
    return out


def _successes(results, noise, model, arc, param):
    return sum(
        r.success
        for r in results
        if r.noise == noise and r.model == model and r.arc_deg == arc and r.parameterization == param
    )


# ---------------------------------------------------------------------------
# 1. Manifold property suite


def test_criterion_1_manifold_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    min_eig = np.inf
    max_pair = 0.0
    max_sqrt = 0.0
    max_metric = 0.0
    for _ in range(1000):
        p = random_spd(rng)
        xi = random_sym(rng, scale=3.0)
        norm = np.linalg.norm(xi, "fro")
        xi *= rng.uniform(0.1, 10.0) / max(norm, 1e-12)
        q = spd_retract(p, xi)
        min_eig = min(min_eig, np.linalg.eigvalsh(q)[0])
        xi_small = xi * (2.0 / max(np.linalg.norm(xi, "fro"), 2.0))
        back = spd_log(p, spd_retract(p, xi_small))
        max_pair = max(max_pair, np.max(np.abs(back - xi_small)))
        s = spd_sqrt(p)
        max_sqrt = max(max_sqrt, np.max(np.abs(s @ s - p)))
        a, b = random_sym(rng), random_sym(rng)
        # invertible g with bounded conditioning (singular values in [0.5, 2])
        g = so3_exp(rng.normal(size=3)) @ np.diag(rng.uniform(0.5, 2.0, 3)) @ so3_exp(rng.normal(size=3))
        base = spd_metric(p, a, b)
        max_metric = max(
            max_metric,
            abs(spd_metric(g @ p @ g.T, g @ a @ g.T, g @ b @ g.T) - base) / max(1.0, abs(base)),
        )
    elapsed = time.perf_counter() - t0
    ok = min_eig > 0 and max_pair < 1e-8 and max_sqrt < 1e-10 and max_metric < 1e-9 and elapsed < 5.0
    report("1", ok,
           f"min eig {min_eig:.2e}, log-retract {max_pair:.2e}, sqrt^2 {max_sqrt:.2e}, "
           f"metric invariance {max_metric:.2e}, runtime {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. Singularity elimination


def test_criterion_2_singularity_elimination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    perms = proper_axis_permutations()
    worst = 0.0
    for _ in range(100):
        state = random_rts(rng)
        q = state.dual
        for perm in perms:
            worst = max(worst, np.max(np.abs(permuted_rts(state, perm).dual - q)))
    a = RtsState(np.eye(3), np.zeros(3), np.array([3.0, 2.0, 1.0]))
    b = RtsState(so3_exp(np.array([0.0, 0.0, np.pi / 2])), np.zeros(3), np.array([2.0, 3.0, 1.0]))
    fig1 = np.max(np.abs(a.dual - b.dual))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and fig1 < 1e-12 and elapsed < 1.0
    report("2", ok, f"24-permutation worst {worst:.2e}, axis-swap instance {fig1:.2e}, "
                    f"runtime {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 3. Closed-form box vs sampling oracle


def test_criterion_3_box_sampling_oracle():
    from quadricfit.costs import CameraFrame, CameraIntrinsics
    from quadricfit.manifold import Pose

    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
    worst = 0.0
    for _ in range(100):
        state = random_rts(rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        position = np.asarray(state.translation) - direction * rng.uniform(6.0, 12.0)
        z = direction
        up = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x = np.cross(up, z)
        x /= np.linalg.norm(x)
        frame = CameraFrame(intr, Pose(np.column_stack([x, np.cross(z, x), z]), position))
        box = conic_bbox(project_dual(state.dual, frame)).as_array()

        u = rng.normal(size=(100_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = (u * np.asarray(state.scale)) @ state.rotation.T + np.asarray(state.translation)
        ph = np.hstack([pts, np.ones((len(pts), 1))]) @ (intr.k @ frame.projection_rt()).T
        px = ph[:, :2] / ph[:, 2:3]
        oracle = np.array([px[:, 0].min(), px[:, 0].max(), px[:, 1].min(), px[:, 1].max()])
        worst = max(worst, np.max(np.abs(box - oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.5 and elapsed < 30.0
    report("3", ok, f"max edge discrepancy {worst:.3f}px (< 0.5), runtime {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 4. Table II low-noise row


def test_criterion_4_low_noise_row(campaign_low):
    results, elapsed = campaign_low
    counts = {}
    ious = {}
    for arc in (60.0, 120.0):
        for model in ("inverse", "semi"):
            for param in ("full", "rts", "spd"):
                cell = [r for r in results
                        if r.arc_deg == arc and r.model == model and r.parameterization == param]
                counts[(arc, model, param)] = sum(r.success for r in cell)
                ious[(arc, model, param)] = float(np.mean([r.iou for r in cell]))
    all_counts_ok = all(v == 24 for v in counts.values())
    all_iou_ok = all(v >= 0.95 for v in ious.values())
    ok = all_counts_ok and all_iou_ok and elapsed < 120.0
    report("4", ok,
           f"success {sorted(counts.values())}, min avg IoU {min(ious.values()):.3f} (>= 0.95), "
           f"runtime {elapsed:.1f}s on {JOBS} workers (< 120s)")


# ---------------------------------------------------------------------------
# 5. Table II high-noise, semi-inverse trend


def test_criterion_5_high_noise_trends(campaigns_mh):
    passes = 0
    details = []
    for seed, results in campaigns_mh.items():
        semi_ok = all(
            _successes(results, "H", "semi", arc, p) >= 22
            for arc in (60.0, 120.0)
            for p in ("rts", "spd")
        )
        f = _successes(results, "H", "inverse", 60.0, "full")
        s = _successes(results, "H", "inverse", 60.0, "rts")
        o = _successes(results, "H", "inverse", 60.0, "spd")
        full_ok = f < s and f < o
        passes += semi_ok and full_ok
        details.append(f"seed{seed}: semi>=22 {semi_ok}, inv-60 F{f}<S{s}/O{o} {full_ok}")
    ok = passes >= 4
    report("5", ok, f"{passes}/5 seeds pass; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Accuracy-when-successful ordering


def test_criterion_6_success_iou_ordering(campaigns_mh):
    passes = 0
    details = []
    for seed, results in campaigns_mh.items():
        seed_ok = True
        parts = []
        for noise in ("M", "H"):
            inv = [r.iou for r in results if r.noise == noise and r.model == "inverse" and r.success]
            sem = [r.iou for r in results if r.noise == noise and r.model == "semi" and r.success]
            inv_m, sem_m = float(np.mean(inv)), float(np.mean(sem))
            seed_ok &= inv_m >= sem_m
            parts.append(f"{noise}: {inv_m:.3f} vs {sem_m:.3f}")
        passes += seed_ok
        details.append(f"seed{seed} ({', '.join(parts)}) {'ok' if seed_ok else 'FAIL'}")
    ok = passes >= 4
    report("6", ok, f"{passes}/5 seeds pass; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Convergence-rate claim


def test_criterion_7_convergence_rate(campaigns_mh):
    passes = 0
    details = []
    for seed, results in campaigns_mh.items():
        spd = [r.iterations_to_success for r in results
               if r.model == "semi" and r.parameterization == "spd" and r.success]
        rts = [r.iterations_to_success for r in results
               if r.model == "semi" and r.parameterization == "rts" and r.success]
        m_spd, m_rts = float(np.median(spd)), float(np.median(rts))
        seed_ok = m_spd <= 0.9 * m_rts
        passes += seed_ok
        details.append(f"seed{seed}: spd med {m_spd:.1f} vs 0.9*rts {0.9 * m_rts:.1f}")
    ok = passes >= 4
    report("7", ok, f"{passes}/5 seeds pass; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Multi-constraint paired check


def test_criterion_8_multi_constraint_paired():
    rts_iou, spd_iou, rts_oe, spd_oe = [], [], [], []
    for seed in range(20):
        graph = synthetic_graph(seed, noise="M", arc_deg=120.0)
        truth = graphio.truth_landmarks(graph)["obj"]
        for param, ious, oes in (("rts", rts_iou, rts_oe), ("spd", spd_iou, spd_oe)):
            problem = graphio.problem_from_graph(graph, param, model="semi")
            rep = solve(problem, SolveOptions())
            iou, oe = score_estimate(rep.variables["obj"], truth)
            ious.append(iou)
            oes.append(oe)
    iou_ok = np.mean(spd_iou) >= np.mean(rts_iou)
    oe_ok = np.mean(spd_oe) <= np.mean(rts_oe)
    ok = iou_ok and oe_ok
    report("8", ok,
           f"mean IoU spd {np.mean(spd_iou):.3f} >= rts {np.mean(rts_iou):.3f}: {iou_ok}; "
           f"mean orient err spd {np.mean(spd_oe):.2f} <= rts {np.mean(rts_oe):.2f} deg: {oe_ok}")


# ---------------------------------------------------------------------------
# 9. Evaluation oracles


def test_criterion_9_evaluation_oracles():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        a = OrientedBox(rng.normal(size=3) * 0.5, np.eye(3), rng.uniform(0.2, 1.2, 3))
        b = OrientedBox(rng.normal(size=3) * 0.5, np.eye(3), rng.uniform(0.2, 1.2, 3))
        worst = max(worst, abs(iou_boxes(a, b) - iou_aabb_analytic(a, b)))
    r = so3_exp(rng.normal(size=3))
    perm_err = max(orientation_error(r @ p, r) for p in proper_axis_permutations())
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ten_err = abs(orientation_error(r @ so3_exp(axis * np.radians(10.0)), r) - 10.0)
    ok = worst < 0.01 and perm_err < 1e-9 and ten_err < 1e-6
    report("9", ok, f"exact-vs-analytic IoU max err {worst:.4f} (< 0.01), "
                    f"permuted rotations -> {perm_err:.2e} deg, 10-degree offset err {ten_err:.2e}")


# ---------------------------------------------------------------------------
# 10. Determinism across parallelism


def test_criterion_10_determinism(tmp_path):
    config = {
        "master_seed": 0,
        "noise_levels": ["L", "M"],
        "arcs": [60.0],
        "trials_per_cell": 3,
        "parameterizations": ["rts", "spd"],
        "models": ["inverse", "semi"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    docs = []
    for jobs, name in ((1, "a"), (8, "b")):
        out = tmp_path / name
        code = cli_main(["simulate", "--config", str(cfg), "--seed", "7",
                         "--jobs", str(jobs), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        doc.pop("created")
        doc.pop("timing")
        docs.append(doc)
    ok = docs[0] == docs[1]
    report("10", ok, f"jobs=1 vs jobs=8 result records identical: {ok} "
                     f"({len(docs[0]['records'])} records)")
