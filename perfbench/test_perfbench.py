"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

They run every workload at a tiny size, check the span arithmetic on a
hand-built tree, check that a traced run puts every wrapped function back,
and check that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from hostclock import REF_NOMINAL_S, HostClock, Timed  # noqa: E402
from spans import (  # noqa: E402
    PROBES,
    Span,
    Tracer,
    covered_time,
    layer_metrics,
    probe_sites,
    self_times,
    traced,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_GENERATOR = {
    "n_sellers": 200, "n_products": 300, "n_communities": 4, "n_categories": 4,
    "d_s": 6, "d_p": 5, "d_o": 4, "offers_per_seller": 3.0,
}
TINY_MODEL = {
    "hidden": 8, "gnn_layers": 2, "edge_hidden": 8, "cls_hidden": 8,
    "epochs": 1, "batch_size": 256, "mlp_hidden": 8, "mlp_epochs": 1,
    "expanded_hidden": 8, "expanded_layers": 2, "expanded_epochs": 2,
}


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("configs")
    blob = {"version": 1, "seed": 0, "generator": TINY_GENERATOR, "model": TINY_MODEL}
    for name in ("default.json", "small.json"):
        (d / name).write_text(json.dumps(blob))
    return d


def test_self_times_on_hand_built_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert covered_time([(1, 4), (2, 3), (3.5, 6), (8, 12)], 0, 10) == 7.0


def test_tracer_records_nesting_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return "x"

    def outer():
        tracer.call("inner", inner, (), {})  # ticks 1..2
        return tracer.call("inner", inner, (), {})  # ticks 3..4

    assert tracer.call("outer", outer, (), {}) == "x"  # ticks 0..5
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0),
    ]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def _all_sites() -> dict:
    sites = {}
    for probe in PROBES:
        for owner, attr, original in probe_sites(probe):
            sites[(id(owner), attr)] = (owner, attr, original)
    return sites


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("name", ["train", "serve", "repro"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tiny_configs, tmp_path):
    before = _all_sites()
    result = workloads.run(name, 3, 0.0, trace, tiny_configs, tmp_path / "out")
    assert result.correct, [c for c in result.checks if not c[1]]

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: u for k, (_, u) in result.metrics.items()} == {
        m["name"]: m["unit"] for m in listed
    }
    lines = bench.report_lines(result, bench.machine_block(3, result.config_hash))
    for metric in listed:
        assert any(
            line.startswith(f"metric {metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]
    assert any(line.startswith("as     failed_share ") for line in lines)

    after = _all_sites()
    assert after.keys() == before.keys()
    for owner, attr, original in before.values():
        assert _current(owner, attr) is original, f"{owner!r}.{attr} not restored"
    if trace:
        assert (tmp_path / "out" / "spans.jsonl").stat().st_size > 0


def test_traced_wraps_inside_and_restores_after_error():
    sites = _all_sites()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            for owner, attr, original in sites.values():
                assert _current(owner, attr) is not original
            raise RuntimeError("boom")
    for owner, attr, original in sites.values():
        assert _current(owner, attr) is original


def test_host_factor_is_the_median_sample_near_an_operation():
    clock = HostClock()
    # the loop ran at nominal speed until t=10, then at half speed
    clock.sample_at = [float(t) for t in range(20)]
    clock.sample_s = [REF_NOMINAL_S * (1 if t < 10 else 2) for t in range(20)]
    assert clock.factor(3.0, 4.0) == 1.0  # two samples within 0.5 s; widened to 2..5
    assert clock.factor(14.2, 14.3) == 2.0  # no sample inside; widened until three are near
    assert clock.nominal_s(Timed(15.0, 16.0, 0.9)) == pytest.approx(0.45)


def test_end_to_end_takes_each_operations_median_at_nominal_speed():
    phase = workloads.Phase(work_per_round=4.0)
    phase.clock.sample_at = [0.0, 0.1, 0.2, 200.0, 200.1, 200.2]
    phase.clock.sample_s = [REF_NOMINAL_S] * 3 + [2 * REF_NOMINAL_S] * 3
    phase.setups = [Timed(0, 3, 3.0), Timed(0, 1, 1.0), Timed(0, 2, 2.0)]  # factor 1
    # round 1 at factor 1, rounds 2 and 3 at factor 2 (twice the wall time)
    times = [[0.2, 0.1, 0.3, 0.2], [0.4, 0.6, 0.2, 0.8], [0.8, 0.2, 0.2, 0.4]]
    phase.rounds = [[Timed(at, at, t) for t in row] for at, row in zip((0, 200, 200), times)]
    e2e = phase.end_to_end()  # medians at nominal speed: 0.2 0.1 0.1 0.2
    assert e2e["setup_s"] == 2.0
    assert e2e["throughput_per_s"] == pytest.approx(4.0 / 0.6)
    assert e2e["latency_p50_ms"] == pytest.approx(150.0)
    assert e2e["latency_p90_ms"] == pytest.approx(200.0)
    assert list(phase.op_s(at_nominal=False)) == pytest.approx([0.4, 0.2, 0.2, 0.4])


def test_host_clock_samples_and_subtracts_its_own_time():
    clock = HostClock()
    with clock.running():
        _, op = clock.call(time.sleep, 0.35)
    assert len(clock.sample_s) >= 4  # entry, exit and about three periods
    assert op.own_s < op.end - op.start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rounds_run_at_least_min_rounds_and_stop_on_failure():
    rows = iter([[0.1], [0.2], [0.3]])
    phase = workloads.Phase()
    workloads.run_rounds(phase, 0.0, lambda: next(rows))
    assert phase.rounds == [[0.1], [0.2]] and workloads.MIN_ROUNDS == 2

    phase = workloads.Phase()
    workloads.run_rounds(phase, 60.0, lambda: None)
    assert phase.rounds == []


def test_layer_metrics_of_an_empty_trace_are_zero():
    metrics = layer_metrics(Tracer(), (0.0, 1.0))
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]
                            if not m["name"].startswith("overhead.")}
    assert all(v == 0 for v in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing" in proc.stderr
