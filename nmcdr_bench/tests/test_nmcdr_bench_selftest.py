"""Self-tests of the NMCDR benchmark's own machinery.

Run from the repository root: ``PYTHONPATH=src python -m pytest nmcdr_bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from nmcdr_bench import openloop  # noqa: E402
from nmcdr_bench.tracing import Span, Tracer, self_times  # noqa: E402


class FakeClock:
    """Deterministic time: advances when work is simulated, plus a
    microsecond per reading so the pacer's spin-wait terminates."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 1e-6
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_latency_counts_a_stall_on_later_requests():
    clock = FakeClock()
    service, stall, stalled = 0.001, 0.050, 3

    def serve(lines):
        for index, line in enumerate(lines):
            clock.sleep(service + (stall if index == stalled else 0.0))
            yield json.dumps({"domain": "a", "line": line})

    lines = [str(i) for i in range(12)]
    # Unit gaps at 500 requests/s: one request due every 2 ms.
    result = openloop.run_phase(serve, lines, [1.0] * 12, 500.0, clock=clock)
    latency = result.latency_s
    assert latency[stalled - 1] == pytest.approx(service, abs=1e-4)
    assert latency[stalled] == pytest.approx(service + stall, abs=1e-4)
    # The next request was due 2 ms after the stalled one and waited for it:
    # its own service time is 1 ms, its latency from the schedule is ~50 ms.
    assert result.service_s[stalled + 1] == pytest.approx(service, abs=1e-4)
    assert latency[stalled + 1] == pytest.approx(stall, abs=1e-4)
    assert result.queue_wait_s[stalled + 1] == pytest.approx(stall - 0.001, abs=1e-4)
    # Every request queued behind the stall is late, by 1 ms less each time
    # (arrivals every 2 ms, served back to back in 1 ms).
    later = latency[stalled + 1:]
    assert all(value > 0.040 for value in later)
    assert all(a - b == pytest.approx(0.001, abs=1e-4) for a, b in zip(later, later[1:]))


def test_failed_request_misses_every_limit():
    clock = FakeClock()

    def serve(lines):
        for line in lines:
            clock.sleep(0.001)
            yield '{"error": "overload"}' if line == "1" else '{"domain": "a"}'

    result = openloop.run_phase(serve, ["0", "1", "2"], [1.0] * 3, 100.0, clock=clock)
    assert result.failed == 1
    assert result.latency_s[1] == float("inf")


def test_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    p99 = openloop.percentile(values, 0.99)
    assert sum(1 for value in values if value > p99) == 10
    with pytest.raises(ValueError):
        openloop.percentile(values[:-1], 0.99)
    assert openloop.percentile(list(range(20)), 0.5) == 9


def test_self_time_is_duration_minus_children_cover():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: the cover is [1, 5]
        Span("leaf", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 3.0, 1.0])

    clock = FakeClock()
    tracer = Tracer(clock=lambda: clock.now)
    with tracer.span("fit"):
        clock.sleep(1.0)
        with tracer.span("encoder"):
            clock.sleep(2.0)
        with tracer.span("optim"):
            clock.sleep(0.5)
    own = tracer.self_by_name()
    assert own == pytest.approx({"fit": 1.0, "encoder": 2.0, "optim": 0.5})


def _probe_with_capacity(capacity, limit_s):
    """A probe whose p99 is ``limit_s`` at half of ``capacity`` and grows with the rate."""
    rates = []

    def probe(rate):
        rates.append(rate)
        p99 = limit_s * 0.5 / (1.0 - rate / capacity) if rate < capacity else 1e9
        latency = [p99 * 0.5] * 980 + [p99] * 20
        return openloop.PhaseResult(rate, latency, latency, [0.0] * 1000, [0.0] * 1000, 0)

    return probe, rates


def test_highest_rate_stops_on_a_passing_first_probe():
    probe, rates = _probe_with_capacity(600.0, 0.2)
    best, results = openloop.highest_rate(probe, 240.0, 0.2, 3)
    assert rates == [240.0] and best == 240.0
    assert openloop.passes(results[0], 0.2)


def test_highest_rate_halves_on_failure_and_interpolates():
    probe, rates = _probe_with_capacity(300.0, 0.2)
    best, results = openloop.highest_rate(probe, 240.0, 0.2, 3)
    assert rates == [240.0, 120.0]
    # Between the passing and the failing probe, not on either of them.
    assert not openloop.passes(results[0], 0.2) and openloop.passes(results[1], 0.2)
    assert 120.0 < best < 240.0
    # Linear in p99: 0.2 lies a tenth of the way from 0.167 (120/s) to 0.5 (240/s).
    assert best == pytest.approx(132.0, abs=0.5)

    # When every probe fails, the answer is 0, not some other measured rate.
    probe, rates = _probe_with_capacity(100.0, 0.2)
    best, _ = openloop.highest_rate(probe, 240.0, 0.2, 1)
    assert rates == [240.0, 120.0]
    assert best == 0.0


def test_request_mix_follows_training_activity():
    import numpy as np

    activity = {"a": np.array([0, 3, 1]), "b": np.array([6, 0])}
    lines = openloop.request_lines(np.random.default_rng(0), activity, 5000)
    drawn = [(req["domain"], req["user"]) for req in map(json.loads, lines)]
    assert ("a", 0) not in drawn and ("b", 1) not in drawn
    assert drawn.count(("b", 0)) / len(drawn) == pytest.approx(0.6, abs=0.03)
    assert drawn.count(("a", 1)) / len(drawn) == pytest.approx(0.3, abs=0.03)
    again = openloop.request_lines(np.random.default_rng(0), activity, 5000)
    assert again == lines


def test_tracing_off_installs_no_shims_and_on_restores_everything(tmp_path, monkeypatch):
    import repro.core.engine as engine_module
    import repro.serve.service as service_module
    from nmcdr_bench import workloads
    from nmcdr_bench.worker import declared_metrics
    from repro.tensor import Tensor, ops

    created = []

    class RecordingShims(workloads.Shims):
        def __init__(self, tracer):
            super().__init__(tracer)
            created.append(self)

    monkeypatch.setattr(workloads, "Shims", RecordingShims)
    tiny = dataclasses.replace(
        workloads.WORKLOADS["serve_open"], name="tiny", scale=0.3, steps=4,
        checkpoint_every_steps=2,
    )
    monkeypatch.setattr(workloads, "SERVE_RATE", 2000.0)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    before = (Tensor.backward, ops.binary_cross_entropy_probs, service_module.json,
              engine_module.build_pipeline)

    plain = workloads.run_workload("tiny", 3, 0.1, False, tmp_path / "plain")
    assert created == []
    assert all(plain.checks.values()), plain.checks

    traced = workloads.run_workload("tiny", 3, 0.1, True, tmp_path / "traced")
    assert created and all(shims.installed == 0 for shims in created)
    assert (Tensor.backward, ops.binary_cross_entropy_probs, service_module.json,
            engine_module.build_pipeline) == before
    assert all(traced.checks.values()), traced.checks
    assert set(declared_metrics(True)) <= set(traced.layers)
    # peak_rss_mb is measured by the worker process, not by the workload.
    assert set(declared_metrics(False)) - {"peak_rss_mb"} <= set(plain.e2e)
    assert traced.layers["encoder.calls"] > 0
    assert any(span.request is not None for span in traced.tracer.spans)
