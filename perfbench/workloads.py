"""The benchmark's workloads and the checks on their outputs.

A workload prepares its inputs in :meth:`setup` and then runs measured
units: one ``quadricfit simulate`` campaign through ``cli.main``, or one
generated graph solved once per parameterization. Every unit's outputs
are checked; each attempted record or solve becomes one :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quadricfit import cli, evaluation, graphio, solver
from quadricfit.solver import SolveOptions

import graphgen

TERMINATIONS = frozenset({"gradient", "cost_converged", "stalled", "diverged", "max_iterations"})
PARAMETERIZATIONS = ("rts", "spd", "full")
SUCCESS_FACTOR = 1.5
# LM iterations per graph solve. Free convergence takes 7-23 iterations
# depending on the seed, which spread a graph's solve time by +/-15%; the
# cap fixes the work per solve, so the workload measures per-iteration cost.
GRAPH_OPTIONS = SolveOptions(max_iterations=8)


@dataclass
class Outcome:
    """One attempted campaign record or graph solve."""

    problems: list
    success: bool = False
    iou: float | None = None
    score_fallback: bool = False


@dataclass
class UnitResult:
    wall_s: float
    outcomes: list
    records: list = field(default_factory=list)  # deterministic content, for identity checks


def unit_seed(seed: int, index: int) -> int:
    """Seed of the index-th unit of a run; the same run seed gives the same sequence."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def check_solve_record(rec: dict, max_iterations: int) -> list:
    """Invariants every solve must meet, whatever the parameterization."""
    problems = []
    trace = rec["cost_trace"]
    if not trace or not all(math.isfinite(c) for c in trace):
        problems.append("non-finite or empty cost trace")
    elif any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("cost trace increases")
    if rec["termination"] not in TERMINATIONS:
        problems.append(f"unknown termination {rec['termination']!r}")
    if not 0 <= rec["iterations"] <= max_iterations:
        problems.append(f"iterations {rec['iterations']} outside [0, {max_iterations}]")
    elif rec["iterations"] != len(trace) - 1:
        problems.append("iterations disagree with the cost trace")
    return problems


SMOKE_GRID = {"noise_levels": ["L"], "arcs": [60.0],
              "parameterizations": ["full", "rts", "spd"], "models": ["inverse"]}


class CampaignWorkload:
    """``quadricfit simulate`` over the full grid, run in-process through ``cli.main``.

    The grid is every noise level, arc, parameterization and model, with
    ``trials_per_cell`` scenes per cell; each unit uses its own master seed.
    The first ``quality_units`` units are the run's fixed sample for
    success rate and IoU, so those do not depend on how many units fit.
    """

    GRID = {"noise_levels": ["L", "M", "H"], "arcs": [60.0, 120.0],
            "parameterizations": ["full", "rts", "spd"], "models": ["inverse", "semi"]}

    def __init__(self, seed: int, workdir: Path, trials_per_cell: int, jobs: int,
                 grid: dict | None = None, quality_units: int = 1):
        self.seed = seed
        self.quality_units = quality_units
        self.workdir = workdir
        self.trials_per_cell = trials_per_cell
        self.jobs = jobs
        self.grid = grid or self.GRID
        self.expected = trials_per_cell * math.prod(len(v) for v in self.grid.values())

    def setup(self) -> None:
        """Campaign inputs are made by the program from the master seed."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run(self, index: int, jobs: int | None = None):
        """(wall seconds, result document or exit code) of unit ``index``."""
        config = {**self.grid, "trials_per_cell": self.trials_per_cell,
                  "master_seed": unit_seed(self.seed, index)}
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            out = Path(tmp)
            (out / "config.json").write_text(json.dumps(config))
            argv = ["simulate", "--config", str(out / "config.json"),
                    "--jobs", str(jobs or self.jobs), "--out", str(out / "result")]
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                rc = cli.main(argv)
                wall = time.perf_counter() - start
            return wall, (graphio.load_result(out / "result" / "result.json") if rc == 0 else rc)

    def check(self, index: int, wall: float, doc) -> UnitResult:
        if not isinstance(doc, dict):
            return UnitResult(wall, [Outcome([f"simulate exited {doc}"])] * self.expected)
        return UnitResult(wall, self._check(doc), doc["records"])

    def _check(self, doc: dict) -> list:
        records = doc["records"]
        unit_problems = []
        if graphio.cell_summaries(graphio.records_to_results(records)) != doc["summaries"]:
            unit_problems.append("stored summaries disagree with the records")
        outcomes = []
        for rec in records:
            problems = unit_problems + check_solve_record(rec, SolveOptions().max_iterations)
            iou = rec["iou"]
            if not 0.0 <= iou <= 1.0:
                problems.append(f"IoU {iou!r} outside [0, 1]")
            outcomes.append(Outcome(
                problems, success=bool(rec["success"]), iou=iou,
                score_fallback=iou == 0.0 and rec["orientation_error_deg"] == 180.0))
        if len(records) != self.expected:
            problem = f"{self.expected} records expected, {len(records)} written"
            outcomes += [Outcome([problem])] * max(self.expected - len(records), 1)
        return outcomes


class GraphWorkload:
    """One generated multi-landmark graph, solved under each parameterization.

    Set-up generates the run's graph and builds its problems through
    ``graphio.problem_from_graph``; every unit solves it once per
    parameterization with the inverse box model. Nothing is scored inside
    the measured region; after it, the first ``quality_units`` units score
    their first landmarks' IoU.
    """

    SCORED_LANDMARKS = 8  # IoU per solve costs ~0.3 s with the voxel method

    def __init__(self, seed: int, landmarks: int = 16, poses: int = 20, quality_units: int = 1):
        self.seed = seed
        self.quality_units = quality_units
        self.landmarks = landmarks
        self.poses = poses

    def setup(self) -> None:
        graph, poses = graphgen.make_graph(self.seed, self.landmarks, self.poses)
        self.graph = graph
        self.problems = {p: graphio.problem_from_graph(graph, p, "inverse") for p in PARAMETERIZATIONS}
        truth = graphgen.truth_graph(graph, poses)
        self.truth_cost = {p: solver.total_cost(graphio.problem_from_graph(truth, p, "inverse"))
                           for p in PARAMETERIZATIONS}

    def run(self, index: int, jobs: int | None = None):
        """(wall seconds, SolveReports) of unit ``index``."""
        start = time.perf_counter()
        reports = [solver.solve(self.problems[p], GRAPH_OPTIONS) for p in PARAMETERIZATIONS]
        return time.perf_counter() - start, reports

    def check(self, index: int, wall: float, reports) -> UnitResult:
        truth = graphio.truth_landmarks(self.graph)
        outcomes, records = [], []
        for param, report in zip(PARAMETERIZATIONS, reports):
            rec = {"parameterization": param, "cost_trace": [float(c) for c in report.cost_trace],
                   "termination": report.termination, "iterations": report.iterations}
            records.append(rec)
            success = (not report.diverged and report.skipped_final == 0
                       and report.final_cost <= SUCCESS_FACTOR * self.truth_cost[param] + 1e-6)
            iou = None
            if index < self.quality_units:
                ids = sorted(truth)[: self.SCORED_LANDMARKS]
                iou = float(np.mean([evaluation.iou_duals(report.variables[i].dual, truth[i].dual)
                                     for i in ids]))
            outcomes.append(Outcome(check_solve_record(rec, GRAPH_OPTIONS.max_iterations),
                                    success=success, iou=iou))
        return UnitResult(wall, outcomes, records)
