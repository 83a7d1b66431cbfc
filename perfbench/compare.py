#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect --out runs/base [--root ../base --out runs/base
                                          --root . --out runs/new] [--seeds 1-10] [--trace 0]
    python3 perfbench/compare.py spread runs/base
    python3 perfbench/compare.py compare runs/base runs/new

``collect`` runs ``perfbench/run.py`` in each ``--root`` checkout once per
workload of BENCHMARK.json and seed, for its ``run_seconds``, and keeps
each run's stdout as ``<out>/<workload>-<seed>-t<trace>.log``; with two
roots it alternates which one runs first. Traced and untraced runs of a
workload are kept apart. ``spread`` prints, per workload and metric, the
median and quartiles and the quartile spread as a share of the median,
against the metric's bound. ``compare`` pairs the runs of two sets by
workload and seed and marks each metric:

- improved: the new set wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base set's quartile
  spread;
- worse: the new median is worse than the base median by more than the
  metric's bound (for a per-layer metric, which has no bound: the base
  wins at least 9 of 10 pairs by more than its quartile spread);
- unresolved: the base set's own spread is wider than the bound, and not
  every new run beats every base run;
- unchanged: otherwise.

``compare`` refuses to compare sets whose runs used different kernel
backends, since results depend on the backend, and exits 1 when an
end-to-end metric got worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    roots = [Path(r).resolve() for r in args.root] or [ROOT]
    outs = [Path(o) for o in args.out]
    if len(roots) != len(outs):
        raise SystemExit("give one --out per --root")
    spec = _spec(roots[0])
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    for out in outs:
        out.mkdir(parents=True, exist_ok=True)
    status = 0
    for i, seed in enumerate(_seeds(args.seeds)):
        order = list(zip(roots, outs))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for root, out in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)]
                log = out / f"{workload}-{seed}-t{args.trace}.log"
                with open(log, "w", encoding="utf-8") as fh:
                    rc = subprocess.run(cmd, cwd=root, stdout=fh, check=False).returncode
                print(f"{root.name or root}: {workload} seed {seed}: exit {rc}", flush=True)
                status = status or rc
    return status


def load_runs(directory) -> dict:
    """{"<workload> t<trace>": {seed: (env, result)}} from the logs of one set."""
    runs: dict = {}
    for log in sorted(Path(directory).glob("*.log")):
        workload, seed, trace = log.stem.rsplit("-", 2)
        lines = log.read_text(encoding="utf-8").splitlines()
        env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"skipping {log}: no result line", file=sys.stderr)
            continue
        runs.setdefault(f"{workload} {trace}", {})[int(seed)] = (env, result)
    return runs


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _metric_table(spec: dict) -> dict:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def spread(args) -> int:
    metrics = _metric_table(_spec())
    for workload, by_seed in load_runs(args.dir).items():
        results = [r for _, r in by_seed.values()]
        print(f"{workload}: {len(results)} runs, {sum(not r['correct'] for r in results)} incorrect")
        for name in results[0]["metrics"]:
            q1, med, q3 = _quartiles([r["metrics"][name]["value"] for r in results])
            rel = (q3 - q1) / abs(med) if med else float("inf") if q3 > q1 else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = "" if bound is None else (
                "steady" if rel <= bound / 3 else "within bound" if rel <= bound else "TOO WIDE")
            print(f"  {name:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:7.2%} {'' if bound is None else f'bound {bound:.0%}'} {flag}")
    return 0


def verdict(base: list, new: list, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, med_a, q3 = _quartiles(base)
    _, med_b, _ = _quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    beyond_spread = abs(med_b - med_a) > q3 - q1
    if wins >= 0.9 * len(pairs) and beyond_spread and sign * (med_b - med_a) > 0:
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * len(pairs) and beyond_spread else "unchanged"
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse"
    if med_a and (q3 - q1) / abs(med_a) > bound and not min(sign * b for b in new) > max(sign * a for a in base):
        return "unresolved"
    return "unchanged"


def compare(args) -> int:
    base, new = load_runs(args.base), load_runs(args.new)
    backends = {env.get("kernel_backend") for runs in (base, new)
                for by_seed in runs.values() for env, _ in by_seed.values()}
    if len(backends) > 1:
        print(f"refusing to compare runs made with different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    metrics = _metric_table(_spec())
    status = 0
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        print(f"{workload}: {len(seeds)} paired runs")
        names = base[workload][seeds[0]][1]["metrics"] if seeds else {}
        for name in names:
            a = [base[workload][s][1]["metrics"][name]["value"] for s in seeds]
            b = [new[workload][s][1]["metrics"][name]["value"] for s in seeds]
            meta = metrics.get(name, {"better": "lower"})
            mark = verdict(a, b, meta["better"], meta.get("bound"))
            if mark == "worse" and "bound" in meta:
                status = 1
            qa, qb = _quartiles(a), _quartiles(b)
            print(f"  {name:40s} base {qa[1]:<12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"new {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {mark}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds and keep the logs")
    p.add_argument("--root", action="append", default=[], help="checkout to run (repeatable)")
    p.add_argument("--out", action="append", required=True, help="log directory, one per --root")
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("spread", help="quartile spread of each metric in one set")
    p.add_argument("dir")
    p.set_defaults(func=spread)
    p = sub.add_parser("compare", help="compare a new set of runs against a base set")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
