"""The benchmark's tracer finds every quadricfit name it wraps.

``perfbench/tracing.py`` wraps functions by module and attribute name, so a
rename inside the package would break ``perfbench/run.py --trace 1``
without failing any test of the package itself.
"""

import importlib.util
from pathlib import Path

import numpy as np

from quadricfit import _kernels
from quadricfit.costs import FACTOR_KINDS
from quadricfit.manifold import Pose
from quadricfit.quadric import RtsState

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    tracing = load_tracing()
    originals = [getattr(tracing._owner(path), attr) for path, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.names == [name for _, _, name, _ in tracing.TARGETS]
        for (path, attr, _, _), original in zip(tracing.TARGETS, originals):
            assert getattr(tracing._owner(path), attr).__wrapped__ is original
        # The row hook reads the duals from the sixth positional argument.
        rts = np.stack([Pose.identity().inverse_rt] * 3)
        duals = np.stack([RtsState(np.eye(3), np.array([0.0, 0.0, z]), np.ones(3)).dual
                          for z in (4.0, 5.0, 6.0)])
        _, status = _kernels.boxes_from_duals(500.0, 500.0, 320.0, 240.0, rts, duals)
        assert not status.any()
        assert tracer.counts["_kernels.boxes_from_duals.rows"] == 3
        # The tangency row hook reads the duals from the second argument:
        # three rows of four planes each.
        planes = np.tile([0.0, 0.0, 1.0, -4.0], (3, 4, 1))
        assert _kernels.tangency_values(planes, duals).shape == (3, 4)
        assert tracer.counts["_kernels.tangency_values.rows"] == 3
        # The box-semi rows reach the wrapped box_edge_planes, once per call.
        intrinsics = np.tile([500.0, 500.0, 320.0, 240.0], (3, 1))
        observed = np.tile([300.0, 340.0, 220.0, 260.0], (3, 1))
        FACTOR_KINDS["box-semi"].rows(rts, duals, intrinsics, observed)
        edge_planes = tracer.names.index("costs.box_edge_planes")
        assert sum(span[0] == edge_planes for span in tracer.spans) == 1
    finally:
        tracer.uninstall()
    for (path, attr, _, _), original in zip(tracing.TARGETS, originals):
        assert getattr(tracing._owner(path), attr) is original
