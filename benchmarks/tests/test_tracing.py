import json

import pytest

import dyadlab
import dyadlab.cli
import run
import tracing
from dyadlab import best_approx, cli, dyadic, walsh


class TickClock:
    """Advances by one second on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_arithmetic():
    tracer = tracing.Tracer(clock=TickClock())
    leaf = tracer.wrap("dyadic", "gray", lambda k: k)  # scalar: no span
    inner = tracer.wrap("walsh", "sequency", lambda: leaf(1) + leaf(2))
    outer = tracer.wrap("cli", "main", lambda argv: inner() * 0)

    # clock readings: op 1..10, outer 2..9, inner 3..8, leaves 4..5 and 6..7
    tracer.begin_op(0, "op")
    outer([])
    tracer.end_op()
    layers = tracer.layer_self_s()
    assert tracer.self_s[("dyadic", "gray")] == 2.0  # 1 + 1
    assert tracer.self_s[("walsh", "sequency")] == 3.0  # 5 - 2
    assert tracer.self_s[("cli", "main")] == 2.0  # 7 - 5
    assert tracer.counters["bench.op_s"] == 9.0
    assert layers["bench"] == 2.0
    assert sum(layers.values()) == tracer.counters["bench.op_s"]
    assert tracer.calls[("dyadic", "gray")] == 2
    spans = [s for s in tracer.spans if s is not None]
    assert [s[0] for s in spans] == ["op", "main", "sequency"]
    op_span = tracer.spans.index(spans[0])
    main_span = tracer.spans.index(spans[1])
    assert spans[1][4] == op_span and spans[2][4] == main_span


def test_errors_counted_per_layer():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("operators", "hs_norm", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.metrics()["operators.errors"] == 1.0


def test_install_catches_direct_imports_and_restores(tmp_path):
    originals = (cli.sequency_counts, cli.gray, walsh.sequency_counts,
                 dyadlab.sequency_counts, best_approx.OPTIMAL.rule, best_approx.FAMILIES["onneweer"].rule)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.sequency_counts is walsh.sequency_counts is dyadlab.sequency_counts
        assert cli.sequency_counts is not originals[0]
        tracer.begin_op(0, "gamma")
        assert dyadlab.cli.main(["gamma", "-n", "3", "--out", str(tmp_path / "out")]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["walsh.sequency_counts.calls"] == 1
    assert metrics["walsh.sequency_counts.pairs"] == 64
    assert metrics["best_approx.gamma_rule.calls"] == 3 * 8
    assert metrics["cli.main.calls"] == 1
    assert metrics["dyadic.calls"] > 0
    total = sum(tracer.layer_self_s().values())
    assert total == pytest.approx(metrics["bench.op_s"], rel=1e-12)
    assert (cli.sequency_counts, cli.gray, walsh.sequency_counts, dyadlab.sequency_counts,
            best_approx.OPTIMAL.rule, best_approx.FAMILIES["onneweer"].rule) == originals
    assert not hasattr(dyadic.gray, "__wrapped__")


def test_tracer_computes_every_listed_metric():
    names = [m["name"] for m in json.loads(run.SPEC.read_text())["per_layer"]]
    supplied_by_run = {"bench.trace_overhead", "bench.own_rss_mb"}
    assert set(names) - supplied_by_run <= set(tracing.Tracer().metrics())


def test_percentile_rule():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 0.9) == 90.0  # ten samples lie beyond it
    assert run.percentile(list(reversed(samples)), 0.9) == 90.0
    assert run.percentile([float(i) for i in range(1, 111)], 0.9) == 99.0
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.9)  # only nine beyond
    with pytest.raises(ValueError):
        run.percentile(samples, 0.95)
