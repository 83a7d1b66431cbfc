"""Self-tests of the benchmark, at smoke size.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import graphgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quadricfit import graphio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace=0, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalogue = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in catalogue}
    for m in catalogue:
        assert any(l.startswith(f"metric {m['name']} ") and l.endswith(f" {m['unit']}")
                   for l in lines), m["name"]
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    assert {"python", "numpy", "blas", "nproc", "kernel_backend", "git_revision"} <= set(env)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "campaign")
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())


def test_traced_and_untraced_records_identical(tmp_path):
    campaign = workloads.CampaignWorkload(5, tmp_path, 1, 1, workloads.SMOKE_GRID)
    graph = workloads.GraphWorkload(5, landmarks=3, poses=5)
    original = workloads.solver._linearize
    for wl in (campaign, graph):
        wl.setup()
        plain = wl.check(0, *wl.run(0))
        with tracing.Tracer() as tracer:
            traced = wl.check(0, *wl.run(0))
        assert tracer.spans and tracer.reports
        assert plain.records == traced.records
        assert not any(o.problems for o in plain.outcomes + traced.outcomes)
    assert workloads.solver._linearize is original


def test_campaign_records_identical_across_jobs(tmp_path):
    wl = workloads.CampaignWorkload(7, tmp_path, 2, 1, workloads.SMOKE_GRID)
    _, one = wl.run(0, jobs=1)
    _, two = wl.run(0, jobs=2)
    assert len(one["records"]) == wl.expected
    assert one["records"] == two["records"]


def test_child_memory_counts_live_workers():
    import run

    allocate = "import time; b = b'x' * (40 << 20); time.sleep(0.6)"
    with run.ChildMemory() as mem:
        workers = [subprocess.Popen([sys.executable, "-c", allocate]) for _ in range(2)]
        for w in workers:
            w.wait()
    assert mem.peak_kib >= 2 * (40 << 10)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)]
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_reinstalling_keeps_one_name_per_span():
    tracer = tracing.Tracer()
    q = graphgen.make_graph(2, landmarks=1, poses=2)[0]["truth"][0]
    dual = graphio.truth_landmarks({"truth": [q]})[q["landmark"]].dual
    for _ in range(2):
        with tracer:
            workloads.graphio.rts_from_dual(dual)
    assert len(tracer.names) == len(set(tracer.names))
    assert tracer.totals()["quadric.rts_from_dual"]["calls"] == 2


@pytest.mark.parametrize("rec, problem", [
    ({"cost_trace": [3.0, 4.0], "termination": "stalled", "iterations": 1}, "increases"),
    ({"cost_trace": [3.0, float("nan")], "termination": "stalled", "iterations": 1}, "non-finite"),
    ({"cost_trace": [3.0, 2.0], "termination": "tired", "iterations": 1}, "termination"),
    ({"cost_trace": [3.0, 2.0], "termination": "stalled", "iterations": 200}, "iterations"),
])
def test_solve_record_checks(rec, problem):
    problems = workloads.check_solve_record(rec, 100)
    assert len(problems) == 1 and problem in problems[0]


def test_campaign_check_flags_bad_iou(tmp_path):
    wl = workloads.CampaignWorkload(5, tmp_path, 1, 1, workloads.SMOKE_GRID)
    wl.setup()
    _, doc = wl.run(0)
    doc["records"][0]["iou"] = 1.5
    flagged = [o for o in wl.check(0, 0.0, doc).outcomes if o.problems]
    assert len(flagged) >= 1 and any("IoU" in p for o in flagged for p in o.problems)


def test_graph_generator():
    graph, poses = graphgen.make_graph(11)
    again, _ = graphgen.make_graph(11)
    assert graph == again
    graphio.validate_graph(graph)
    assert len(graph["initial"]) == 16 and len(graph["frames"]) == 20 and len(poses) == 20
    assert len(graph["truth"]) == 16 and graph["fixed"] == ["cam00"]
    assert len(graph["priors"]["pose"]) == 19
    for kind in ("orientation", "scale", "support"):
        assert len(graph["priors"][kind]) == 16
    intr = graph["intrinsics"]
    for det in graph["detections"]:
        ul, ur, vu, vd = det["box"]
        assert 0.0 <= ul <= ur <= intr["width"] and 0.0 <= vu <= vd <= intr["height"]
    graphio.validate_graph(graphgen.truth_graph(graph, poses))


@pytest.mark.parametrize("base, new, better, bound, mark", [
    ([10.0] * 10, [8.0] * 10, "lower", 0.1, "improved"),
    ([10.0] * 10, [12.0] * 10, "lower", 0.1, "worse"),
    ([10.0] * 10, [10.5] * 10, "lower", 0.1, "unchanged"),
    ([5.0, 8.0, 10.0, 12.0, 15.0] * 2, [9.0, 8.0, 10.0, 11.0, 10.0] * 2, "lower", 0.1, "unresolved"),
    ([1.0] * 10, [2.0] * 10, "higher", None, "improved"),
])
def test_compare_verdicts(base, new, better, bound, mark):
    assert compare.verdict(base, new, better, bound) == mark


def test_traced_and_untraced_runs_kept_apart(tmp_path):
    for trace, name in ((0, "wall_s"), (1, "solver.linearize.s")):
        result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": {name: {"value": 1.0, "unit": "s"}}})
        (tmp_path / f"graph_k16-1-t{trace}.log").write_text(result + "\n")
    runs = compare.load_runs(tmp_path)
    assert set(runs) == {"graph_k16 t0", "graph_k16 t1"}
    assert set(runs["graph_k16 t0"][1][1]["metrics"]) == {"wall_s"}


def test_compare_refuses_mixed_backends(tmp_path):
    for name, backend in (("a", "python"), ("b", "compiled")):
        (tmp_path / name).mkdir()
        env = json.dumps({"kernel_backend": backend})
        result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}})
        (tmp_path / name / "graph_k16-1-t0.log").write_text(f"env {env}\n{result}\n")
    assert compare.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
