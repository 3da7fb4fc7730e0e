"""The per-layer metrics, what each should move, and how each is computed.

Every row is ``(name, unit, better, moves)``.  :func:`counted` computes
the metrics that are deltas of counters the program already keeps, read
over ``STATS`` at both ends of the measured window (exact, no wrappers,
so every untraced run prints them too), and the load generator's
validity figures; :func:`traced` computes the rest from the traced
run's spans (see :mod:`tracing`).

``moves`` names the end-to-end figure (by the names the report prints)
and workload the layer metric should move.  A layer that did no work on
a workload reports 0.
"""

from __future__ import annotations

from typing import Any

LAYERS: list[tuple[str, str, str, str]] = [
    ("server.protocol.decode_us", "us", "lower", "server_cpu_us_per_op on hot-churn"),
    ("server.protocol.encode_us", "us", "lower", "server_cpu_us_per_op on hot-churn"),
    ("server.admission.refused_share", "share", "lower", "error_rate on hot-churn"),
    ("server.admission.gate_read_wait_us", "us", "lower", "read_p99_ms on hot-churn"),
    ("server.admission.gate_write_wait_us", "us", "lower", "write_p99_ms on hot-churn"),
    ("server.server.inline_share", "share", "higher", "read_p50_ms on hot-churn; ~1 on cold-read"),
    ("server.server.dispatch_us", "us", "lower", "read_p99_ms"),
    ("server.aggregator.ops_per_window", "count", "higher", "write_p50_ms on hot-churn, write_ops_per_s on range-scan"),
    ("server.aggregator.window_apply_us", "us", "lower", "write_p50_ms on hot-churn, write_ops_per_s on range-scan"),
    ("core.search_us", "us", "lower", "read_ops_per_s on cold-read"),
    ("core.insert_us", "us", "lower", "write_p50_ms on hot-churn"),
    ("core.delete_us", "us", "lower", "write_p50_ms on hot-churn"),
    ("core.range_us", "us", "lower", "range_p50_ms on range-scan"),
    ("core.pages_per_search", "count", "lower", "read_ops_per_s on cold-read"),
    ("core.rangequery.records_per_page", "count", "higher", "range_ops_per_s on range-scan"),
    ("storage.buffer.hit_ratio", "share", "higher", "read_ops_per_s on cold-read; no change on hot-churn"),
    ("storage.buffer.misses_per_op", "count", "lower", "read_ops_per_s on cold-read; no change on hot-churn"),
    ("storage.serializer.decode_us", "us", "lower", "read_ops_per_s, server_cpu_us_per_op on cold-read"),
    ("storage.serializer.decodes_per_op", "count", "lower", "read_ops_per_s, server_cpu_us_per_op on cold-read"),
    ("storage.serializer.encode_us", "us", "lower", "write_p50_ms on hot-churn"),
    ("storage.wal.commit_us", "us", "lower", "write_p50_ms on hot-churn"),
    ("storage.wal.commits_per_write", "count", "lower", "write_p50_ms on hot-churn, disk_bytes_per_key"),
    ("storage.wal.bytes_per_write", "B", "lower", "write_p50_ms on hot-churn, disk_bytes_per_key"),
    ("storage.wal.load_us", "us", "lower", "read_ops_per_s on cold-read"),
    ("storage.disk.snapshot_open_us", "us", "lower", "range_p50_ms on range-scan"),
    ("storage.disk.preserved_versions_peak", "count", "lower", "write_p99_ms, server_peak_rss_mb on range-scan"),
    ("storage.disk.backend_reads_per_op", "count", "lower", "read_ops_per_s on cold-read"),
    ("storage.disk.backend_writes_per_op", "count", "lower", "write_p50_ms on hot-churn"),
    ("storage.latch.read_wait_us", "us", "lower", "read_p99_ms on hot-churn"),
    ("storage.latch.write_wait_us", "us", "lower", "write_p99_ms on hot-churn"),
    ("storage.latch.timeouts", "count", "lower", "error_rate"),
    ("workload.live_keys_min", "count", "higher", "validity: stays near 1000 on hot-churn"),
    ("workload.live_keys_max", "count", "lower", "validity: stays near 1000 on hot-churn"),
    ("workload.send_lag_p99_ms", "ms", "lower", "validity: open-loop generator lateness on hot-churn"),
    ("workload.late_share", "share", "lower", "validity: share of sends over 1 ms late on hot-churn"),
    ("workload.client_cpu_share", "share", "lower", "validity: above 0.9 the generator saturated its core"),
    ("trace.overhead_cpu_share", "share", "lower", "tracing cost: traced over untraced server_cpu_us_per_op, minus 1"),
    ("trace.overhead_p50_share", "share", "lower", "tracing cost: traced over untraced p50_ms, minus 1"),
]


def _delta(phase: dict, *path: str) -> float:
    def get(stats: dict) -> float:
        for key in path:
            stats = stats[key]
        return stats

    return get(phase["stats"][-1]) - get(phase["stats"][0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _completed(phase: dict, kind: int | None = None) -> int:
    """Requests completed in the window (of one kind: 0 read, 1 write,
    2 range)."""
    if kind is None:
        return len(phase["samples"])
    return sum(1 for sample in phase["samples"] if sample[1] == kind)


def counted(phase: dict) -> dict[str, float]:
    """The ``count`` and ``run`` metrics of one phase."""
    ops = _completed(phase)
    hits = _delta(phase, "bench", "pool_hits")
    misses = _delta(phase, "bench", "pool_misses")
    n_writes = _completed(phase, 1)
    out = {
        "server.aggregator.ops_per_window": _ratio(
            _delta(phase, "server", "mutations_applied"),
            _delta(phase, "server", "groups_committed"),
        ),
        "storage.buffer.hit_ratio": _ratio(hits, hits + misses),
        "storage.buffer.misses_per_op": _ratio(misses, ops),
        "storage.wal.commits_per_write": _ratio(
            _delta(phase, "bench", "wal_checkpoints"), n_writes
        ),
        "storage.wal.bytes_per_write": _ratio(
            _delta(phase, "bench", "wal_bytes"), n_writes
        ),
        "storage.disk.backend_reads_per_op": _ratio(
            _delta(phase, "bench", "backend_reads"), ops
        ),
        "storage.disk.backend_writes_per_op": _ratio(
            _delta(phase, "bench", "backend_writes"), ops
        ),
        "storage.latch.timeouts": _delta(phase, "server", "latch_timeouts"),
        "workload.live_keys_min": phase["live_min"] or 0,
        "workload.live_keys_max": phase["live_max"] or 0,
        "workload.send_lag_p99_ms": phase["send_lag_p99_ms"] or 0.0,
        "workload.late_share": phase["late_share"] or 0.0,
        "workload.client_cpu_share": phase["client_cpu_share"],
    }
    return out


def traced(phase: dict, spans: Any) -> dict[str, float]:
    """The ``span`` metrics of the traced phase."""
    ops = _completed(phase)
    admitted = spans.count("admission.admitted")
    refused = spans.count("admission.refused")
    hits = spans.count("server.inline_hit")
    misses = spans.count("server.inline_miss")
    searches = spans.count("core.search")
    data_reads = spans.children_of("core.range", ("store.read.data",))
    records = spans.gauge_values("core.range.records")
    preserved = spans.gauge_values("store.preserved_versions")
    return {
        "server.protocol.decode_us": spans.mean_us("protocol.decode"),
        "server.protocol.encode_us": spans.mean_us("protocol.encode"),
        "server.admission.refused_share": _ratio(refused, admitted + refused),
        "server.admission.gate_read_wait_us": spans.mean_us("gate.read_wait"),
        "server.admission.gate_write_wait_us": spans.mean_us("gate.write_wait"),
        "server.server.inline_share": _ratio(hits, hits + misses),
        "server.server.dispatch_us": spans.mean_us("server.dispatch"),
        "server.aggregator.window_apply_us": spans.mean_us("store.group"),
        "core.search_us": spans.mean_self_us("core.search"),
        "core.insert_us": spans.mean_self_us("core.insert"),
        "core.delete_us": spans.mean_self_us("core.delete"),
        "core.range_us": spans.mean_self_us("core.range"),
        "core.pages_per_search": _ratio(
            spans.children_of("core.search", ("store.read.data", "store.read.node")),
            searches,
        ),
        "core.rangequery.records_per_page": _ratio(float(records.sum()), data_reads),
        "storage.serializer.decode_us": spans.mean_us("codec.decode"),
        "storage.serializer.decodes_per_op": _ratio(spans.count("codec.decode"), ops),
        "storage.serializer.encode_us": spans.mean_us("codec.encode"),
        "storage.wal.commit_us": spans.mean_us("wal.commit"),
        "storage.wal.load_us": spans.mean_us("wal.load"),
        "storage.disk.snapshot_open_us": spans.mean_us("store.snapshot"),
        "storage.disk.preserved_versions_peak": float(preserved.max()) if len(preserved) else 0.0,
        "storage.latch.read_wait_us": spans.mean_us("latch.read_wait"),
        "storage.latch.write_wait_us": spans.mean_us("latch.write_wait"),
    }
