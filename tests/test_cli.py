import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadricfit
from quadricfit import graphio
from quadricfit.cli import _build_campaign_spec, main, make_parser
from quadricfit.sim import CampaignSpec, synthetic_graph


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "graph.json"
    graphio.save_graph(synthetic_graph(seed=4, noise="L"), path)
    return path


SMALL_CONFIG = {
    "master_seed": 7,
    "noise_levels": ["L"],
    "arcs": [60.0],
    "trials_per_cell": 2,
    "parameterizations": ["rts", "spd"],
    "models": ["semi"],
}


def write_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    return cfg


def test_validate_ok(graph_path, capsys):
    assert main(["validate", "--graph", str(graph_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_dangling_id(tmp_path, graph_path, capsys):
    graph = json.loads(graph_path.read_text())
    graph["detections"][0]["frame"] = "ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(graph))
    assert main(["validate", "--graph", str(bad)]) == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["box", "sigma_px"])
def test_validate_malformed_detection_exits_1(tmp_path, graph_path, capsys, field):
    # A missing key and a non-finite number are schema errors, not runtime errors.
    graph = json.loads(graph_path.read_text())
    if field == "box":
        del graph["detections"][0]["box"]
    else:
        graph["detections"][0]["sigma_px"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(graph))
    assert main(["validate", "--graph", str(bad)]) == 1
    assert "invalid graph: detection 0: " in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{"version": "1", ', "corrupt graph file at byte 17: Expecting property name"),
    (b'{"version": "\xff"}', "corrupt graph file at byte 13: invalid start byte"),
    (b'{"name": "caf\xc3\xa9\xc3\xa9\xc3\xa9",\r\n', "corrupt graph file at byte 23: Expecting"),
], ids=["truncated", "not-utf8", "multibyte"])
def test_corrupt_graph_file_exits_1(tmp_path, capsys, content, message):
    bad = tmp_path / "corrupt.json"
    bad.write_bytes(content)
    assert main(["validate", "--graph", str(bad)]) == 1
    assert f"invalid graph: {message}" in capsys.readouterr().err
    assert main(["solve", "--graph", str(bad), "--param", "rts", "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_solve_writes_outputs(tmp_path, graph_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--graph", str(graph_path), "--param", "spd",
                 "--model", "semi", "--out", str(out)])
    assert code == 0
    solved = json.loads((out / "solved.json").read_text())
    assert solved["estimates"][0]["param"] == "spd"
    report = json.loads((out / "report.json").read_text())
    kinds = set(report["cost_breakdown"])
    assert kinds == {"box-semi", "orientation", "shape", "size", "support"}
    assert "against_truth" in report
    assert report["against_truth"]["obj"]["iou"] > 0.5


def test_solve_holds_unconstrained_landmark_and_warns_once(tmp_path, graph_path):
    # A landmark that no factor reads is left to solve(), which holds it at
    # its initial value and warns once; run as a program, so the warning
    # reaches stderr as Python's warnings module prints it.
    graph = json.loads(graph_path.read_text())
    graph["initial"].append(dict(graph["initial"][0], landmark="extra"))
    path, out = tmp_path / "extra.json", tmp_path / "out"
    path.write_text(json.dumps(graph))
    src = str(Path(quadricfit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "quadricfit.cli", "solve", "--graph", str(path),
                          "--param", "rts", "--out", str(out)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    warned = [line for line in run.stderr.splitlines() if "Warning" in line]
    assert len(warned) == 1
    assert "UserWarning: unconstrained variables held fixed: ['extra']" in warned[0]
    initial = graphio.problem_from_graph(graph, "rts", "inverse").variables["extra"]
    estimates = {e["landmark"]: e for e in json.loads((out / "solved.json").read_text())["estimates"]}
    assert estimates["extra"] == json.loads(json.dumps(graphio.estimate_entry("extra", initial)))


def test_solve_size_form_flag(tmp_path, graph_path):
    out = tmp_path / "out2"
    code = main(["solve", "--graph", str(graph_path), "--param", "rts",
                 "--size-form", "paper", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["size_form"] == "paper"


def test_simulate_and_eval(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "success F+S+O" in text
    result = out / "result.json"
    assert result.exists()
    assert (out / "plot_traces.py").exists()
    assert list(out.glob("trace_*.csv"))

    assert main(["eval", "--result", str(result), "--format", "table"]) == 0
    assert "success F+S+O" in capsys.readouterr().out

    assert main(["eval", "--result", str(result), "--format", "json"]) == 0
    summaries = json.loads(capsys.readouterr().out)
    assert main(["eval", "--result", str(result), "--format", "csv"]) == 0
    csv_lines = capsys.readouterr().out.strip().splitlines()
    assert len(csv_lines) == 1 + len(summaries)  # header + one row per cell
    header = csv_lines[0].split(",")
    row = dict(zip(header, csv_lines[1].split(",")))
    assert float(row["mean_iou"]) == summaries[0]["mean_iou"]


def test_simulate_determinism_across_jobs(tmp_path):
    cfg = write_config(tmp_path)
    docs = []
    for jobs, name in ((1, "a"), (4, "b")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--seed", "7",
                     "--jobs", str(jobs), "--out", str(out)]) == 0
        docs.append(json.loads((out / "result.json").read_text()))
    for doc in docs:
        doc.pop("created")
        doc.pop("timing")
    assert docs[0] == docs[1]


def test_cells_filter(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "filtered"
    assert main(["simulate", "--config", str(cfg), "--cells", "param=rts",
                 "--jobs", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert {r["parameterization"] for r in doc["records"]} == {"rts"}


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["simulate", "--cells", "nonsense"]) == 1
    assert main(["simulate", "--cells", "bogus=1"]) == 1
    # Unknown grid names are rejected before any trial runs.
    for cells in ("model=foo", "param=foo", "noise=X", "arc=0", "arc=abc", "noise=L|L", "arc=60|60.4"):
        assert main(["simulate", "--cells", cells, "--out", str(tmp_path / "cells")]) == 1
    assert main(["nope"]) == 1
    assert main(["solve", "--graph", "/does/not/exist.json", "--param", "rts"]) == 1
    cfg = tmp_path / "gauss_newton.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "options": {"gauss_newton": True}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "gn")]) == 1
    # An empty campaign and a misspelt top-level key are rejected before any trial runs.
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"trials_per_cell": 0, "noise_levels": ["L"], "arcs": [60]}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 1
    # So is a master seed that is not a non-negative integer.
    for seed in (-1, 1.5, "abc", True):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"master_seed": seed, "noise_levels": ["L"], "arcs": [60]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "seed")]) == 1
    assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "seed")]) == 1
    assert "master_seed must be a non-negative integer" in capsys.readouterr().err
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"trial_per_cell": 1, "noise_levels": ["L"], "arcs": [60]}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "typo")]) == 1
    assert "unknown key 'trial_per_cell'" in capsys.readouterr().err
    cfg.write_text(json.dumps([SMALL_CONFIG]))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "list")]) == 1
    # Grid fields are lists of distinct values and arcs differ in whole
    # degrees; the scene and the iteration cap are constants, so neither is
    # a key. Each is named before any trial runs.
    for field, bad in (("noise_levels", {"noise_levels": "LM"}),
                       ("parameterizations", {"parameterizations": "rts"}),
                       ("arcs", {"arcs": [True]}),
                       ("noise_levels", {"noise_levels": ["L", "L"]}),
                       ("arcs", {"arcs": [60, 60.4]}),
                       ("unknown key 'scene'", {"scene": {"n_frames": 5}}),
                       ("unknown key 'scene'", {"scene": {"arc_deg": 5}}),
                       ("unknown key 'options'", {"options": {"max_iterations": 5}}),
                       ("unknown key 'options'", {"options": {"max_step": 1e6}})):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "trials_per_cell": 1, **bad}))
        out = tmp_path / "grid"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()
    # A worker count below 1 is rejected before any trial runs.
    cfg = write_config(tmp_path)
    for jobs in ("0", "-2"):
        assert main(["simulate", "--config", str(cfg), "--jobs", jobs,
                     "--out", str(tmp_path / "jobs")]) == 1
        assert "--jobs: must be a positive integer" in capsys.readouterr().err


def test_eval_detects_tampered_summaries(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim2"
    assert main(["simulate", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    doc["summaries"][0]["mean_iou"] = 0.123
    (out / "result.json").write_text(json.dumps(doc))
    assert main(["eval", "--result", str(out / "result.json")]) == 2
    assert "do not match" in capsys.readouterr().err


def _first_record_with(field, value):
    return lambda doc: {**doc, "records": [{**doc["records"][0], field: value}, *doc["records"][1:]]}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "must be an object"),
    (lambda doc: {k: v for k, v in doc.items() if k != "records"}, "missing records"),
    (lambda doc: {**doc, "summaries": {}}, "summaries must be a list"),
    (lambda doc: {**doc, "version": "1"}, "unsupported result version '1'"),
    (lambda doc: {**doc, "records": [{"noise": "L"}]}, "record 0: missing or unknown fields"),
    (lambda doc: {**doc, "records": [{**doc["records"][0], "extra": 1}]}, "'extra'"),
    # Each value must have its TrialResult field's type.
    (_first_record_with("iou", "high"), "record 0: iou must be float, got 'high'"),
    (_first_record_with("success", "yes"), "record 0: success must be bool"),
    (_first_record_with("iterations", None), "record 0: iterations must be int"),
    (_first_record_with("cost_trace", "x"), "record 0: cost_trace must be list[float]"),
])
def test_eval_rejects_malformed_result_files(tmp_path, capsys, edit, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim3"
    assert main(["simulate", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    (out / "result.json").write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    assert main(["eval", "--result", str(out / "result.json")]) == 1
    assert message in capsys.readouterr().err


def test_config_echo_round_trips_through_config(tmp_path):
    # The campaign fields of a result file's config, given back as
    # --config, build the campaign that wrote it.
    spec = CampaignSpec(master_seed=3, noise_levels=("H", "L"), arcs=(45.0, 90.5), trials_per_cell=2,
                        parameterizations=("spd",), models=("semi",))
    names = {f.name for f in dataclasses.fields(CampaignSpec)}
    echo = json.loads(json.dumps(graphio.config_echo(spec)))
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps({k: v for k, v in echo.items() if k in names}))
    assert _build_campaign_spec(make_parser().parse_args(["simulate", "--config", str(cfg)])) == spec


def test_env_var_out_dir(tmp_path, graph_path, monkeypatch):
    env_out = tmp_path / "envout"
    monkeypatch.setenv("QUADRICFIT_OUT", str(env_out))
    assert main(["solve", "--graph", str(graph_path), "--param", "rts"]) == 0
    assert (env_out / "solved.json").exists()
