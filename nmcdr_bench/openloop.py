"""Open-loop load generator, percentile rule and highest-rate search.

One process, no threads: a pacing generator hands each request line to
``ServeSession.serve_lines`` no earlier than its scheduled send time, and
the loop reading the responses stamps the moment each one is yielded.  Latency runs
from the *scheduled* send time, so a stall in the server shows on every
request queued behind it, not only on the one that stalled.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile; refuses when fewer than 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(quantile * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - rank} beyond "
            f"p{quantile * 100:g}; need {MIN_BEYOND}"
        )
    return ordered[max(rank - 1, 0)]


def request_lines(rng: np.random.Generator, activity: Dict[str, np.ndarray],
                  count: int) -> List[str]:
    """Seeded JSONL requests for full-catalogue top-10.

    ``activity[domain][user]`` is the user's number of training
    interactions.  Each request's (domain, user) is drawn in proportion to
    it, so traffic follows the task's own activity skew: heavy users ask
    more often, and each domain gets its share of the interactions.
    """
    domains = sorted(activity)
    counts = np.concatenate([np.asarray(activity[key], dtype=np.float64) for key in domains])
    sizes = [len(activity[key]) for key in domains]
    owners = np.repeat(np.arange(len(domains)), sizes)
    users = np.concatenate([np.arange(size) for size in sizes])
    picks = rng.choice(len(counts), size=count, p=counts / counts.sum())
    return [
        json.dumps({"domain": domains[int(owners[pick])], "user": int(users[pick]), "k": 10})
        for pick in picks
    ]


def is_error(response: str) -> bool:
    """Whether a response line is a typed error instead of a slate."""
    return response.startswith('{"error"')


@dataclass
class PhaseResult:
    rate: float
    latency_s: List[float]
    service_s: List[float]
    queue_wait_s: List[float]
    generator_late_s: List[float]
    failed: int
    responses: List[str] = field(repr=False, default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    def backlog_drains(self) -> bool:
        """The server found the queue empty at least once in the last quarter."""
        tail = self.queue_wait_s[-max(1, len(self.queue_wait_s) // 4):]
        return any(wait == 0.0 for wait in tail)


def run_phase(serve: Callable[[Iterable[str]], Iterator[str]], lines: Sequence[str],
              gaps: Sequence[float], rate: float, *, clock=time.perf_counter,
              on_request=None, keep_responses: bool = False) -> PhaseResult:
    """Send ``lines`` open-loop at ``rate`` (unit-rate ``gaps`` scaled by it).

    The pacer spins until each send time instead of sleeping: a core left
    idle between requests wakes up slower by an amount that changes from
    run to run, which made the latency percentiles unrepeatable.
    ``on_request(i)`` runs as request ``i`` is handed over (the tracer uses it
    to tag spans with the request id).
    """
    count = len(lines)
    offsets = np.cumsum(np.asarray(gaps[:count], dtype=np.float64)) / rate
    begin = clock() + 0.002
    due = begin + offsets
    started = [0.0] * count
    latency, service, queue_wait, late = [], [], [], []
    failed = 0
    responses = []
    previous_done = begin

    def paced() -> Iterator[str]:
        for index, line in enumerate(lines):
            while clock() < due[index]:
                pass
            started[index] = clock()
            if on_request is not None:
                on_request(index)
            yield line

    for index, response in enumerate(serve(paced())):
        done = clock()
        scheduled = float(due[index])
        wait = max(0.0, previous_done - scheduled)
        latency_value = done - scheduled
        if is_error(response):
            # A failed request misses every latency limit.
            failed += 1
            latency_value = math.inf
        latency.append(latency_value)
        service.append(done - started[index])
        queue_wait.append(wait)
        late.append(max(0.0, started[index] - max(scheduled, previous_done)))
        if keep_responses:
            responses.append(response)
        previous_done = done
    if len(latency) != count:
        raise RuntimeError(f"served {len(latency)} of {count} requests")
    return PhaseResult(rate, latency, service, queue_wait, late, failed, responses)


def passes(result: PhaseResult, limit_s: float) -> bool:
    """p99 within the limit and no growing backlog."""
    return percentile(result.latency_s, 0.99) <= limit_s and result.backlog_drains()


def highest_rate(probe: Callable[[float], PhaseResult], rate: float,
                 limit_s: float, steps: int) -> tuple:
    """Highest rate that :func:`passes`, searched down from ``rate``.

    ``rate`` is probed first and, while probes fail, halved up to ``steps``
    times.  When the first passing probe follows a failing one, the answer
    is interpolated on p99 between the two, so it moves continuously with
    the server's speed instead of in halvings.  Returns ``(rate, probes)``;
    the rate is 0 when no probe passed.
    """
    results = []
    failed: Optional[PhaseResult] = None
    for _ in range(steps + 1):
        result = probe(rate)
        results.append(result)
        if passes(result, limit_s):
            break
        failed = result
        rate *= 0.5
    else:
        return 0.0, results
    passed = results[-1]
    if failed is None:
        return passed.rate, results
    below = percentile(passed.latency_s, 0.99)
    above = percentile(failed.latency_s, 0.99)
    share = (limit_s - below) / (above - below) if above > limit_s else 0.0
    return passed.rate + (failed.rate - passed.rate) * share, results
