import dataclasses
import json

import numpy as np
import pytest

from quadricfit import graphio
from quadricfit.quadric import RtsState, SpdState, rts_from_dual
from quadricfit.sim import CampaignSpec, TrialResult, run_campaign, synthetic_graph
from quadricfit.solver import solve


@pytest.fixture
def graph():
    return synthetic_graph(seed=1)


def test_graph_roundtrip_exact(tmp_path, graph):
    path = tmp_path / "g.json"
    graphio.save_graph(graph, path)
    loaded = graphio.load_graph(path)
    assert loaded == json.loads(json.dumps(graph, sort_keys=True))
    # full float precision: values identical after the round trip
    assert loaded["frames"][0]["t_xyz"] == graph["frames"][0]["t_xyz"]


def test_validate_dangling_frame(graph):
    bad = json.loads(json.dumps(graph))
    bad["detections"][0]["frame"] = "ghost"
    with pytest.raises(graphio.GraphError, match="ghost"):
        graphio.validate_graph(bad)


def test_validate_denormalized_quaternion(graph):
    bad = json.loads(json.dumps(graph))
    bad["frames"][0]["q_wxyz"] = [1.0, 0.2, 0.0, 0.0]
    with pytest.raises(graphio.GraphError, match="quaternion"):
        graphio.validate_graph(bad)


def test_validate_unsorted_scale_prior(graph):
    bad = json.loads(json.dumps(graph))
    bad["priors"]["scale"][0]["abc"] = [1.0, 2.0, 3.0]
    with pytest.raises(graphio.GraphError, match="scale prior"):
        graphio.validate_graph(bad)


def _edit(path, value=None):
    """Set the field at ``path`` to ``value``, or delete it when no value is given."""
    def edit(graph):
        *keys, last = path
        for k in keys:
            graph = graph[k]
        if value is None:
            del graph[last]
        else:
            graph[last] = value
    return edit


@pytest.mark.parametrize("edit, entity", [
    (_edit(("detections", 0, "box", 0), -np.inf), "detection 0: box must be finite"),
    (_edit(("frames", 0, "t_xyz", 1), np.nan), "frame 'cam00': translation must be finite"),
    (_edit(("initial", 0, "t_xyz", 0), np.inf), "initial estimate for 'obj': translation must be finite"),
    (_edit(("priors", "support", 0, "plane", 3), np.nan), "support prior for 'obj': plane must be finite"),
    (_edit(("detections", 0, "sigma_px"), -2.0), "detection 0: sigma_px must be positive"),
    (_edit(("detections", 0, "sigma_px"), np.inf), "detection 0: sigma_px must be finite"),
    (_edit(("priors", "scale", 0, "sigma_size"), 0.0), "scale prior for 'obj': sigma_size must be positive"),
    (_edit(("intrinsics", "fx"), np.nan), "intrinsics: fx must be finite"),
    (_edit(("truth", 0, "scale", 2), np.nan), "truth for 'obj': scale must be finite"),
    (_edit(("detections", 0, "box", 1), "wide"), "detection 0: box must be numeric"),
    (_edit(("detections", 0, "box", 1), "397.5"), "detection 0: box must be numeric"),
    (_edit(("initial", 0, "scale"), ["0.5", "0.4", "0.3"]),
     "initial estimate for 'obj': scale must be numeric"),
    (_edit(("intrinsics", "fx"), "500"), "intrinsics: fx must be numeric"),
    (_edit(("intrinsics", "cx"), True), "intrinsics: cx must be numeric"),
    (_edit(("detections", 0, "sigma_px"), True), "detection 0: sigma_px must be numeric"),
    (_edit(("detections", 0, "box")), "detection 0: missing box"),
    (_edit(("frames", 0, "q_wxyz")), "frame 'cam00': missing q_wxyz"),
    (_edit(("detections",), {"0": {}}), "detections: expected a list"),
    (_edit(("initial", 0), {"landmark": "obj", "param": "spd", "t_xyz": [0.0, 0.0, 0.0],
                            "shape": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -0.5]]}),
     "initial estimate for 'obj': shape must be positive definite"),
    (_edit(("initial", 0), {"landmark": "obj", "param": "full",
                            "coefficients": [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]}),
     "initial estimate for 'obj': coefficients do not describe an ellipsoid"),
    (_edit(("priors", "scale", 0, "abc"), [0.2, 0.3, 0.1]),
     "scale prior for 'obj': abc must be sorted descending, positive"),
    (_edit(("initial", 0, "landmark"), "cam03"), "landmark id 'cam03' is also a frame id"),
    (_edit(("detections", 2, "frame"), ["cam00"]), "detection 2: frame must be a string"),
    (_edit(("fixed", 1), "ghost"), "fixed list: unknown id 'ghost'"),
    (_edit(("truth", 0, "landmark"), "ghost"), "truth: unknown landmark 'ghost'"),
], ids=["box-inf", "frame-t-nan", "initial-t-inf", "support-nan", "sigma-negative",
        "sigma-inf", "sigma-zero", "intrinsics-nan", "truth-scale-nan", "box-string",
        "box-numeric-string", "scale-strings", "fx-string", "cx-bool", "sigma-bool",
        "box-missing", "quaternion-missing", "detections-not-a-list", "spd-not-definite",
        "full-not-ellipsoid", "abc-unsorted", "landmark-id-of-a-frame", "id-not-a-string",
        "fixed-unknown", "truth-unknown"])
def test_validate_rejects_malformed_fields(graph, edit, entity):
    # Validation and problem building share one reader, so both reject a
    # malformed graph with the same message.
    bad = json.loads(json.dumps(graph))
    edit(bad)
    with pytest.raises(graphio.GraphError) as info:
        graphio.validate_graph(bad)
    assert str(info.value) == entity
    for param in ("full", "rts", "spd"):
        with pytest.raises(graphio.GraphError) as info:
            graphio.problem_from_graph(bad, param)
        assert str(info.value) == entity
    if entity.startswith("truth for"):
        with pytest.raises(graphio.GraphError) as info:
            graphio.truth_landmarks(bad)
        assert str(info.value) == entity


def test_problem_from_graph_inventory(graph):
    problem = graphio.problem_from_graph(graph, "spd", model="semi")
    kinds = sorted({f.kind for f in problem.factors})
    assert kinds == ["box-semi", "orientation", "shape", "size", "support"]
    assert isinstance(problem.variables["obj"], SpdState)
    assert len([f for f in problem.factors if f.kind == "box-semi"]) == 10
    assert set(graph["fixed"]) <= set(problem.fixed)


def test_problem_from_graph_rejects_unknown_model(graph):
    with pytest.raises(ValueError, match="unknown model 'foo'"):
        graphio.problem_from_graph(graph, "rts", model="foo")


@pytest.mark.parametrize("param", ["full", "rts", "spd"])
def test_problem_from_graph_conversion_preserves_quadric(graph, param):
    problem = graphio.problem_from_graph(graph, param)
    rts = graphio.problem_from_graph(graph, "rts")
    np.testing.assert_allclose(
        problem.variables["obj"].dual, rts.variables["obj"].dual, atol=1e-10
    )


def test_estimate_entry_roundtrip(rng):
    state = RtsState(np.eye(3), np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.6, 0.3]))
    entry = graphio.estimate_entry("obj", state)
    assert entry["param"] == "rts"
    back = rts_from_dual(state.dual)
    np.testing.assert_allclose(entry["rts_equivalent"]["scale"], back.scale, atol=1e-12)


def _small_results():
    spec = CampaignSpec(
        master_seed=5, noise_levels=("L",), arcs=(60.0,), trials_per_cell=2,
        parameterizations=("rts",), models=("semi",),
    )
    return spec, run_campaign(spec, jobs=1)


def test_result_file_roundtrip(tmp_path):
    spec, results = _small_results()
    path = tmp_path / "result.json"
    graphio.write_result(path, graphio.config_echo(spec), results, {"total_wall_s": 0.0}, "table")
    doc = graphio.load_result(path)
    assert doc["version"] == "2"
    back = graphio.records_to_results(doc["records"])
    assert len(back) == len(results)
    for a, b in zip(back, sorted(results, key=lambda r: r.key())):
        assert a.key() == b.key()
        assert a.cost_trace == b.cost_trace
        assert a.iou == b.iou  # exact float round trip


def test_summaries_recompute_bit_identical(tmp_path):
    spec, results = _small_results()
    path = tmp_path / "result.json"
    graphio.write_result(path, graphio.config_echo(spec), results, {}, "")
    doc = graphio.load_result(path)
    recomputed = graphio.cell_summaries(graphio.records_to_results(doc["records"]))
    assert recomputed == doc["summaries"]


def test_config_echo_lists_defaults():
    spec, _ = _small_results()
    cfg = graphio.config_echo(spec)
    for key in ("default_variances", "success_factor", "iou_protocol", "camera_placement"):
        assert key in cfg



def test_config_echo_and_records_follow_the_dataclasses():
    # A field added to CampaignSpec is echoed, and one added to TrialResult
    # recorded, with no edit to graphio; only the timing telemetry is left out.
    spec, results = _small_results()
    cfg = graphio.config_echo(spec)
    assert {f.name for f in dataclasses.fields(CampaignSpec)} <= set(cfg)
    records = graphio.result_records(results)
    recorded = {f.name for f in dataclasses.fields(TrialResult)} - {"mean_iter_time_s"}
    assert all(set(rec) == recorded for rec in records)

def test_traces_and_plot_script(tmp_path):
    _, results = _small_results()
    csvs = graphio.write_traces(tmp_path, results)
    assert len(csvs) == 1
    lines = csvs[0].read_text().strip().splitlines()
    assert lines[0] == "scene_index,iteration,cost"
    assert len(lines) == 1 + sum(len(r.cost_trace) for r in results)
    script = graphio.write_plot_script(tmp_path, csvs)
    assert script.exists()
    assert csvs[0].name in script.read_text()


def test_load_result_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"records": [1, 2')
    with pytest.raises(graphio.GraphError, match="byte"):
        graphio.load_result(path)


def test_solve_through_graph_roundtrip(tmp_path):
    graph = synthetic_graph(seed=2, noise="L")
    problem = graphio.problem_from_graph(graph, "spd", model="inverse")
    report = solve(problem)
    truth = graphio.truth_landmarks(graph)["obj"]
    from quadricfit.evaluation import iou_duals

    assert iou_duals(report.variables["obj"].dual, truth.dual) >= 0.95
