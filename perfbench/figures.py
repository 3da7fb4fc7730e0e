"""From a phase's raw samples to its figures, at a reference host speed.

The benchmark shares a machine whose speed drifts by up to half again
over seconds to minutes (other tenants), and the served index is CPU
bound, so raw wall-clock figures move with the host, not the code.
:class:`SpeedProbe` measures the host's speed while a run is in
progress: every :data:`PROBE_PERIOD_S` it times a fixed burst of
interpreter work in thread CPU time (waiting for a core is not
counted; a slowed core is).  Each time figure is then scaled, per
one-second sub-window, by ``REFERENCE_NS / probe burst``, i.e. expressed
at a reference host on which the burst takes :data:`REFERENCE_NS`.
The raw figures and the speed factor are printed beside them.

Within a window, figures are medians over sub-windows.  The p99 is
pooled over the window (a sub-window may hold too few samples for ten
beyond it); on this host it follows the host's stalls more than the
program, so the gated tail is the p95.  An open loop's throughput is its
offered rate and is not scaled.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

import numpy as np

PROBE_PERIOD_S = 0.025
#: Probe burst CPU time on the reference host (this one, when quiet).
REFERENCE_NS = 500_000
KINDS = ("read", "write", "range")


def _burst() -> None:
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 977] = table.get(i % 977, 0) + i


class SpeedProbe:
    """Background thread sampling ``(perf_counter_ns, burst cpu ns)`` on
    ``cpus`` (the server's CPU, whose interference it should see)."""

    def __init__(self, cpus: set[int] | None) -> None:
        self._cpus = cpus
        self._samples: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        if self._cpus:
            os.sched_setaffinity(0, self._cpus)  # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            started = time.perf_counter_ns()
            cpu = time.thread_time_ns()
            _burst()
            self._samples.append((started, time.thread_time_ns() - cpu))

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Host slowness over ``[start_ns, end_ns)``: the median burst
        over the reference burst (1 = reference speed, 2 = half)."""
        samples = np.asarray(self._samples, dtype=np.int64).reshape(-1, 2)
        inside = samples[(samples[:, 0] >= start_ns) & (samples[:, 0] < end_ns)]
        if len(inside) < 3:
            # Too short an interval: use the samples nearest to it.
            middle = (start_ns + end_ns) // 2
            inside = samples[np.argsort(np.abs(samples[:, 0] - middle))[:5]]
        return float(np.median(inside[:, 1])) / REFERENCE_NS


def _median(values: list[float]) -> float | None:
    return float(np.median(values)) if values else None


def phase_figures(
    phase: dict, probe: SpeedProbe, kinds: tuple[str, ...], open_loop: bool
) -> dict:
    """Throughput, p50, p95 and server CPU per op of the requests of
    ``kinds`` in one phase, as medians over sub-windows, at the
    reference host speed (``raw_*``: as measured); and the window's
    pooled p99.

    With several kinds, the p50 is the request-weighted mean of the
    kinds' medians: on an even read/write mix the median of all requests
    sits on the edge between the two kinds' modes and swings with either.
    """
    bounds = phase["bounds"]
    subs = len(bounds) - 1
    samples = np.asarray(phase["samples"], dtype=np.int64).reshape(-1, 3)
    codes = [KINDS.index(k) for k in kinds]
    samples = samples[np.isin(samples[:, 1], codes)]
    by_sub = [samples[samples[:, 0] == k] for k in range(subs)]
    factors = [probe.factor(bounds[k], bounds[k + 1]) for k in range(subs)]
    cpu = [s["bench"]["cpu_s"] for s in phase["stats"]]
    out: dict[str, Any] = {
        "completed": int(len(samples)),
        "host_slowness": _median(factors),
    }
    for scaled, prefix in ((True, ""), (False, "raw_")):
        speed = factors if scaled else [1.0] * subs
        rates, p50s, p95s, cpus = [], [], [], []
        for k, sub in enumerate(by_sub):
            n = len(sub)
            rate = n / ((bounds[k + 1] - bounds[k]) / 1e9)
            rates.append(rate if open_loop else rate * speed[k])
            if not n:
                continue
            p50 = 0.0
            for code in codes:
                ms = sub[sub[:, 1] == code, 2] / 1e6
                if len(ms):
                    p50 += len(ms) / n * float(np.percentile(ms, 50))
            p50s.append(p50 / speed[k])
            p95s.append(float(np.percentile(sub[:, 2], 95)) / 1e6 / speed[k])
            cpus.append((cpu[k + 1] - cpu[k]) / n * 1e6 / speed[k])
        out[prefix + "ops_per_s"] = _median(rates)
        out[prefix + "p50_ms"] = _median(p50s)
        out[prefix + "p95_ms"] = _median(p95s)
        out[prefix + "server_cpu_us_per_op"] = _median(cpus)
        out[prefix + "p99_ms"] = (
            float(np.percentile(samples[:, 2], 99)) / 1e6
            / (out["host_slowness"] if scaled else 1.0)
            if len(samples) else None
        )
    return out
