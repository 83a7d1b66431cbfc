#!/usr/bin/env python3
"""quadricfit benchmark: campaign throughput and multi-landmark solve time.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the repository root. Workloads (see BENCHMARK.json for why each
was chosen):

- ``campaign``: ``quadricfit simulate`` over the full grid, one scene per
  cell, at ``--jobs 1``, run in-process through ``cli.main``;
- ``campaign_jobs2``: the same grid with three scenes per cell at
  ``--jobs 2`` (never more than the usable CPUs);
- ``graph_k16``: one graph of 16 landmarks and 20 poses, generated from
  the seed and solved through ``graphio.problem_from_graph`` and
  ``solver.solve`` under each parameterization.

A run sets up its inputs, then repeats measured units (one campaign, or
the graph's three solves) until ``--seconds`` is spent, ending at the unit
boundary nearest to it. Every unit's outputs are checked. With
``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s`` from set-ups timed before and after the units); with
``--trace 1`` each unit runs twice at ``--jobs 1``, untraced and then
traced, and the last line carries the per-layer metrics of the traced
units (per unit; set-up spans per set-up) plus the tracing overhead.
Spans are saved to ``.bench_out/spans-<workload>-<seed>.npz``.

Exit status: 0 when every output check passes, 1 when one fails (the
result line is still printed, with ``"correct": false``), 2 when the
benchmark cannot start, for instance without ``src/quadricfit``.
"""

import os

# One BLAS thread, set before numpy is first imported: the campaign's
# worker processes already take the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_PROBE = "import numpy, quadricfit"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


QUALITY_UNITS = {"campaign": 3, "campaign_jobs2": 2, "graph_k16": 1}


def _workload(name: str, seed: int, size: str, trace: bool):
    """The named workload.

    Its first quality units are the run's fixed sample for success rate and
    IoU; traced runs report neither, so they score nothing.
    """
    import workloads

    if name not in QUALITY_UNITS:
        raise SystemExit(f"unknown workload {name!r}")
    smoke = size == "smoke"
    quality = 0 if trace else 1 if smoke else QUALITY_UNITS[name]
    if name == "graph_k16":
        landmarks, poses = (3, 5) if smoke else (16, 20)
        return workloads.GraphWorkload(seed, landmarks, poses, quality)
    jobs = min(2, len(os.sched_getaffinity(0))) if name == "campaign_jobs2" else 1
    trials = 2 if smoke else 1 if name == "campaign" else 3
    grid = workloads.SMOKE_GRID if smoke else None
    return workloads.CampaignWorkload(seed, OUT / "campaign", trials, jobs, grid, quality)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quadricfit").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    return lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else "unknown"


def environment() -> dict:
    import numpy

    import quadricfit

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "kernel_backend": quadricfit.kernel_backend(),
            "git_revision": _git_revision(), "source_digest": _source_digest()}


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and quadricfit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child and rounds the wait up to 50 ms.
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
    return time.perf_counter() - start


def sample_setup(workload, imports: list, builds: list) -> None:
    """Append ``SETUP_REPEATS`` samples of process start and import, and of input generation.

    A run samples before and after its measured units, so a drift in the
    machine's speed during the run moves the median less.
    """
    imports += [_import_seconds() for _ in range(SETUP_REPEATS)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - start)


def measure(workload, seconds: float, trace: bool):
    """Run units until ``seconds`` is spent, and at least the workload's quality units.

    Stops at the unit boundary nearest to ``seconds``. Returns (units,
    traced units, untraced walls of the traced units, tracer).
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    units, traced, plain_walls = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        if trace:
            wall, raw = workload.run(index, jobs=1)
            units.append(workload.check(index, wall, raw))
            plain_walls.append(wall)
            with tracer:
                wall, raw = workload.run(index, jobs=1)
            traced.append(workload.check(index, wall, raw))
        else:
            wall, raw = workload.run(index)
            units.append(workload.check(index, wall, raw))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= workload.quality_units and elapsed + 0.5 * elapsed / index > seconds:
            return units, traced, plain_walls, tracer


def _child_pids() -> set:
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(p) for p in path.read_text().split())
        except OSError:
            pass
    return pids


def _private_kib(pid: int) -> int:
    """Resident memory a process does not share: a forked worker's pages
    that are still shared with the benchmark process count only there."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    return sum(int(line.split()[1]) for line in text.splitlines()
               if line.startswith(("Private_Clean:", "Private_Dirty:")))


class ChildMemory:
    """Peak private memory of this process's live children, summed.

    Every ``INTERVAL_S`` it reads the live children, updates each one's
    largest sample and keeps the largest sum over the children alive
    together. Only the campaign's pool workers are children while it runs,
    and one campaign's pool ends before the next starts, so the figure is
    the memory of one pool, however many campaigns a run fits.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        peaks: dict = {}
        while not self._stop.wait(self.INTERVAL_S):
            live = _child_pids()
            for pid in live:
                peaks[pid] = max(peaks.get(pid, 0), _private_kib(pid))
            self.peak_kib = max(self.peak_kib, sum(peaks[pid] for pid in live))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def peak_rss_mb(children: ChildMemory) -> float:
    """Peak resident memory of this process plus the peak private memory of its workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children.peak_kib
    return kib / 1024.0


def end_to_end(setup_s: float, units: list, quality_units: int, children: ChildMemory) -> dict:
    """Times are medians over all units; quality comes from the first ``quality_units``."""
    outcomes = [o for u in units[:quality_units] for o in u.outcomes]
    ious = [o.iou for o in outcomes if o.iou is not None]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(u.wall_s for u in units),
        "trials_per_s": statistics.median(len(u.outcomes) / u.wall_s for u in units),
        "peak_rss_mb": peak_rss_mb(children),
        "success_rate": sum(o.success for o in outcomes) / len(outcomes),
        "mean_iou": statistics.fmean(ious) if ious else 0.0,
        "ok_frac": sum(not o.problems for u in units for o in u.outcomes)
        / sum(len(u.outcomes) for u in units),
    }


def per_layer(tracer, setup_tracer, traced: list, plain_walls: list) -> dict:
    n = len(traced)
    totals = tracer.totals()
    setup_totals = setup_tracer.totals()

    def span(name, key):
        return totals[name][key] / n + setup_totals[name][key]

    def count(name):
        return tracer.counts[name] / n + setup_tracer.counts[name]

    reports = tracer.reports
    iterations = sum(r.iterations for r in reports)
    attempts = sum(r.attempts for r in reports)
    iter_times = [t for r in reports for t in r.iter_times]
    out = {}
    for layer in ("kernels.voxel_box_overlap", "kernels.boxes_from_duals", "kernels.tangency_values"):
        name = "_" + layer
        out[layer + ".calls"] = span(name, "calls")
        out[layer + ".s"] = span(name, "s")
    out["kernels.voxel_box_overlap.cells"] = count("_kernels.voxel_box_overlap.cells")
    out["kernels.boxes_from_duals.rows"] = count("_kernels.boxes_from_duals.rows")
    out["kernels.tangency_values.rows"] = count("_kernels.tangency_values.rows")
    for name in ("evaluation.iou_duals", "costs.factor_residual", "solver.cost_eval",
                 "quadric.rts_from_dual", "manifold.retract", "solver.solve"):
        out[name + ".calls"] = span(name, "calls")
        out[name + ".s"] = span(name, "s")
    out["evaluation.iou_duals.errors"] = count("evaluation.iou_duals.errors")
    for name in ("evaluation.orientation_error", "solver.linearize", "sim.make_trial",
                 "sim.run_trial", "graphio.problem_from_graph", "graphio.write_result"):
        out[name + ".s"] = span(name, "s")
    out["graphio.write_result.bytes"] = count("graphio.write_result.bytes")
    out["costs.projection_rt.calls"] = span("costs.projection_rt", "calls")
    out["costs.box_edge_planes.calls"] = span("costs.box_edge_planes", "calls")
    out["solver.solve_self.s"] = span("solver.solve", "self_s")
    out["cli.main.self_s"] = span("cli.main", "self_s")
    out["solver.iter_s_p50"] = statistics.median(iter_times) if iter_times else 0.0
    out["solver.iterations"] = iterations / n
    out["solver.attempts"] = attempts / n
    out["solver.accept_ratio"] = iterations / attempts if attempts else 0.0
    out["solver.skip_events"] = sum(r.skip_events for r in reports) / n
    for term in ("gradient", "cost_converged", "stalled", "diverged", "max_iterations"):
        out["solver.term." + term] = sum(r.termination == term for r in reports) / n
    out["evaluation.score_fallbacks"] = sum(o.score_fallback for u in traced for o in u.outcomes) / n
    out["trace.overhead_frac"] = sum(u.wall_s for u in traced) / sum(plain_walls) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "quadricfit" / "__init__.py").is_file():
        print(f"error: no quadricfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    spec = _spec()
    OUT.mkdir(exist_ok=True)
    warnings.simplefilter("ignore")  # solver warnings would flood stdout, not change results

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = _workload(args.workload, args.seed, args.size, bool(args.trace))
    imports, builds = [], []
    sample_setup(workload, imports, builds)
    setup_tracer = None
    if args.trace:
        from tracing import Tracer

        with Tracer() as setup_tracer:
            workload.setup()
    with ChildMemory() as children:
        units, traced, plain_walls, tracer = measure(workload, args.seconds, bool(args.trace))

    checked = units + traced
    outcomes = [o for u in checked for o in u.outcomes]
    problems = [p for o in outcomes for p in o.problems]
    failed = sum(bool(o.problems) for o in outcomes)
    if args.trace and any(a.records != b.records for a, b in zip(units, traced)):
        problems.append("traced and untraced units wrote different records")
        failed += 1
    for p in sorted(set(problems)):
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        values = per_layer(tracer, setup_tracer, traced, plain_walls)
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
        catalogue = spec["per_layer"]
    else:
        sample_setup(workload, imports, builds)
        setup_s = statistics.median(imports) + statistics.median(builds)
        values = end_to_end(setup_s, units, workload.quality_units, children)
        catalogue = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalogue}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} units {len(units)} "
          f"attempted {len(outcomes)} failed {failed} "
          f"score_fallbacks {sum(o.score_fallback for o in outcomes)} "
          f"unit_walls {[round(u.wall_s, 3) for u in units]}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
