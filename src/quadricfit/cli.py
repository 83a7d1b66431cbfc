"""Command-line entry points: simulate, solve, eval, validate.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import graphio
from .costs import MODELS
from .evaluation import render_report, score_estimate
from .quadric import PARAMETERIZATIONS
from .sim import CampaignSpec, run_campaign
from .solver import cost_breakdown, solve

OUT_ENV = "QUADRICFIT_OUT"
# The keys --config accepts: CampaignSpec's fields, each defaulting to the spec's.
CONFIG_KEYS = [f.name for f in dataclasses.fields(CampaignSpec)]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _jobs(text: str) -> int:
    """A --jobs value: a worker-process count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return jobs


def _out_dir(arg) -> Path:
    out = Path(arg or os.environ.get(OUT_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_campaign_spec(args) -> CampaignSpec:
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("invalid config: expected a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise UsageError(f"invalid config: unknown key {unknown[0]!r}")
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    try:
        spec = CampaignSpec(**cfg)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from exc
    if args.cells:
        spec = _apply_cells_filter(spec, args.cells)
    return spec


def _apply_cells_filter(spec: CampaignSpec, filt: str) -> CampaignSpec:
    """Restrict the grid, e.g. --cells noise=H,arc=60 or noise=L|M."""
    updates = {}
    for item in filt.split(","):
        if "=" not in item:
            raise UsageError(f"bad --cells entry {item!r}, expected key=value")
        key, _, value = item.partition("=")
        values = value.split("|")
        if key == "noise":
            updates["noise_levels"] = tuple(values)
        elif key == "arc":
            try:
                updates["arcs"] = tuple(float(v) for v in values)
            except ValueError as exc:
                raise UsageError(f"bad --cells arc {value!r}: {exc}") from exc
        elif key == "param":
            updates["parameterizations"] = tuple(values)
        elif key == "model":
            updates["models"] = tuple(values)
        else:
            raise UsageError(f"unknown --cells key {key!r}")
    try:
        return dataclasses.replace(spec, **updates)
    except ValueError as exc:
        raise UsageError(f"invalid --cells {filt!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    spec = _build_campaign_spec(args)
    out = _out_dir(args.out)
    t0 = time.perf_counter()
    results = run_campaign(spec, jobs=args.jobs)
    wall = time.perf_counter() - t0
    table = render_report(results)
    timing = {
        "total_wall_s": wall,
        "mean_iter_time_s_by_parameterization": {
            p: float(np.mean([r.mean_iter_time_s for r in results if r.parameterization == p]))
            for p in spec.parameterizations
        },
    }
    graphio.write_result(out / "result.json", graphio.config_echo(spec), results, timing, table)
    csvs = graphio.write_traces(out, results)
    graphio.write_plot_script(out, csvs)
    print(table)
    print(f"\n{len(results)} solves in {wall:.1f}s -> {out / 'result.json'}")
    return 0


def cmd_solve(args) -> int:
    graph = graphio.load_graph(args.graph)
    size_form = {"sqrt": "sqrt", "paper": "det"}[args.size_form]
    problem = graphio.problem_from_graph(graph, args.param, args.model, size_form)
    unconstrained = problem.unconstrained()
    for vid in unconstrained:
        problem.fixed.add(vid)
        print(f"warning: variable {vid!r} is unconstrained; holding fixed", file=sys.stderr)
    report = solve(problem)

    out = _out_dir(args.out)
    landmark_ids = [lm["landmark"] for lm in graph.get("initial", [])]
    estimates = [graphio.estimate_entry(vid, report.variables[vid]) for vid in landmark_ids]
    solved = dict(graph)
    solved["estimates"] = estimates
    graphio.save_graph(solved, out / "solved.json")

    final_problem = dataclasses.replace(problem)
    final_problem.variables = report.variables
    breakdown = cost_breakdown(final_problem)
    summary = {
        "parameterization": args.param,
        "model": args.model,
        "size_form": args.size_form,
        "final_cost": report.final_cost,
        "initial_cost": report.cost_trace[0],
        "iterations": report.iterations,
        "termination": report.termination,
        "cost_breakdown": breakdown,
        "cost_trace": report.cost_trace,
    }
    truth = graphio.truth_landmarks(graph)
    if truth:
        per_landmark = {}
        for vid, truth_state in truth.items():
            iou, orient = score_estimate(report.variables[vid], truth_state)
            per_landmark[vid] = {"iou": iou, "orientation_error_deg": orient}
        summary["against_truth"] = per_landmark
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "cost_trace"}, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    doc = graphio.load_result(args.result)
    results = graphio.records_to_results(doc["records"])
    recomputed = graphio.cell_summaries(results)
    if recomputed != doc["summaries"]:
        print("stored summaries do not match recomputation from records", file=sys.stderr)
        return 2
    if args.format == "table":
        print(render_report(results))
    elif args.format == "json":
        print(json.dumps(recomputed, indent=2, sort_keys=True))
    else:
        cols = list(recomputed[0].keys()) if recomputed else []
        print(",".join(cols))
        for row in recomputed:
            print(",".join("" if row[c] is None else str(row[c]) for c in cols))
    return 0


def cmd_validate(args) -> int:
    try:
        graphio.load_graph(args.graph)
    except graphio.GraphError as exc:
        print(f"invalid graph: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="quadricfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the Monte-Carlo campaign grid")
    p.add_argument("--config", help="JSON object of campaign settings, any of: " + ", ".join(CONFIG_KEYS))
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="worker processes (default: the CPUs this process may use)")
    p.add_argument("--cells", help="grid filter, e.g. noise=H,arc=60")
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or .)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="solve a factor-graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--param", required=True, choices=PARAMETERIZATIONS)
    p.add_argument("--model", default="inverse", choices=MODELS)
    p.add_argument("--size-form", default="sqrt", choices=("sqrt", "paper"))
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or .)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="re-summarize a result file")
    p.add_argument("--result", required=True)
    p.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="schema-check a graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except graphio.GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
