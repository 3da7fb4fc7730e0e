"""In-memory span recording around calls into the program's layers.

:class:`Tracer` wraps functions from outside the program: each wrapper
records one span ``(id, parent, name, start_ns, end_ns)``.  The parent is
the nearest enclosing span on the same thread or asyncio task, carried
in a :class:`contextvars.ContextVar` (tasks copy their creator's
context; executor threads each keep their own, so a span opened on an
executor thread has no parent on the event loop).  Spans stay in a flat
``array`` until :meth:`Tracer.dump` writes them out.

:func:`install` names every wrapped function and the span it records;
:class:`Spans` reads a dumped span file back for the per-layer figures.
"""

from __future__ import annotations

import array
import contextvars
import itertools
import time
from typing import Any, Callable

import numpy as np

_FIELDS = 5  # id, parent, name, start_ns, end_ns


class Tracer:
    """Span and gauge recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = array.array("q")
        self._gauges = array.array("q")  # name, t_ns, value
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # Each ``array.extend`` is one C call under the interpreter lock, so
    # records from concurrent threads never interleave.

    def gauge(self, name: str, value: int) -> None:
        self._gauges.extend((self.name_id(name), time.perf_counter_ns(), value))

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        classify: Callable[[Any], str] | None = None,
    ) -> Callable[..., Any]:
        """A synchronous wrapper; ``classify(result)`` may rename the
        span by outcome (a raised call keeps ``name``)."""
        default = self.name_id(name)
        current = self._current
        spans = self._spans
        ids = self._ids

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = next(ids)
            token = current.set(span)
            label = default
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    label = self.name_id(classify(result))
                return result
            finally:
                end = time.perf_counter_ns()
                current.reset(token)
                spans.extend((span, _old(token), label, start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        label = self.name_id(name)
        current = self._current
        spans = self._spans
        ids = self._ids

        async def traced(*args: Any, **kwargs: Any) -> Any:
            span = next(ids)
            token = current.set(span)
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                current.reset(token)
                spans.extend((span, _old(token), label, start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_enter(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap an async context-manager factory: the span covers
        ``__aenter__`` only (the wait to get in), not the body."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return _TimedEnter(tracer, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_scope(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap a synchronous context-manager factory: the span covers
        the whole ``with`` block, and spans inside it are its children."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return _TimedScope(tracer, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _record(self, span: int, parent: int, name: str, start: int) -> None:
        self._spans.extend(
            (span, parent, self.name_id(name), start, time.perf_counter_ns())
        )

    def dump(self, path: str) -> None:
        spans = np.frombuffer(self._spans.tobytes(), dtype=np.int64)
        gauges = np.frombuffer(self._gauges.tobytes(), dtype=np.int64)
        np.savez(
            path,
            spans=spans.reshape(-1, _FIELDS),
            gauges=gauges.reshape(-1, 3),
            names=np.array(self.names, dtype=object),
        )


def _old(token: contextvars.Token) -> int:
    """The enclosing span id (``old_value`` is MISSING for the first set
    in a context)."""
    value = token.old_value
    return 0 if value is contextvars.Token.MISSING else value


class _TimedEnter:
    def __init__(self, tracer: Tracer, name: str, cm: Any):
        self._tracer = tracer
        self._name = name
        self._cm = cm

    async def __aenter__(self) -> Any:
        span = next(self._tracer._ids)
        parent = self._tracer._current.get()
        start = time.perf_counter_ns()
        result = await self._cm.__aenter__()
        self._tracer._record(span, parent, self._name, start)
        return result

    async def __aexit__(self, *exc: Any) -> Any:
        return await self._cm.__aexit__(*exc)


class _TimedScope:
    def __init__(self, tracer: Tracer, name: str, cm: Any):
        self._tracer = tracer
        self._name = name
        self._cm = cm

    def __enter__(self) -> Any:
        self._span = next(self._tracer._ids)
        self._token = self._tracer._current.set(self._span)
        self._start = time.perf_counter_ns()
        return self._cm.__enter__()

    def __exit__(self, *exc: Any) -> Any:
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer._current.reset(self._token)
            self._tracer._record(
                self._span, _old(self._token), self._name, self._start
            )


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function of the program, in place.

    Sessions look up the inline fast path once, when a connection
    opens, so only connections opened after this call see that wrapper.
    """
    from repro.core.facade import MultiKeyFile
    from repro.server import protocol
    from repro.server.admission import AdmissionController, ReadWriteGate
    from repro.server.server import QueryServer
    from repro.server.session import INLINE_MISS
    from repro.storage import DataPage
    from repro.storage.disk import PageStore
    from repro.storage.latch import ReadWriteLatch
    from repro.storage.serializer import CodecRegistry
    from repro.storage.wal import WALBackend

    def range_search(self: Any, lows: Any, highs: Any, parallelism: Any = None):
        records = list(
            original_range(self, lows, highs, parallelism=parallelism)
        )
        tracer.gauge("core.range.records", len(records))
        return iter(records)

    original_range = MultiKeyFile.range_search

    def flush_probe(self: Any) -> bool:
        before = self.checkpoints
        original_flush(self)
        return self.checkpoints != before

    original_flush = WALBackend.flush
    traced_flush = tracer.wrap(
        flush_probe,
        "wal.flush_deferred",
        classify=lambda committed: (
            "wal.commit" if committed else "wal.flush_deferred"
        ),
    )

    def flush(self: Any) -> None:
        traced_flush(self)

    def snapshot_probe(self: Any, timeout: float | None = None) -> Any:
        tracer.gauge("store.preserved_versions", self.preserved_versions)
        return original_snapshot(self, timeout=timeout)

    original_snapshot = PageStore.snapshot

    patches = [
        (protocol, "decode_frame", tracer.wrap(protocol.decode_frame, "protocol.decode")),
        (protocol, "encode_frame", tracer.wrap(protocol.encode_frame, "protocol.encode")),
        (
            AdmissionController,
            "try_admit",
            tracer.wrap(
                AdmissionController.try_admit,
                "admission.admitted",
                classify=lambda refusal: (
                    "admission.admitted" if refusal is None else "admission.refused"
                ),
            ),
        ),
        (ReadWriteGate, "read_locked", tracer.wrap_enter(ReadWriteGate.read_locked, "gate.read_wait")),
        (ReadWriteGate, "write_locked", tracer.wrap_enter(ReadWriteGate.write_locked, "gate.write_wait")),
        (
            QueryServer,
            "try_dispatch_inline",
            tracer.wrap(
                QueryServer.try_dispatch_inline,
                "server.inline_miss",
                classify=lambda result: (
                    "server.inline_miss" if result is INLINE_MISS else "server.inline_hit"
                ),
            ),
        ),
        (QueryServer, "dispatch", tracer.wrap_async(QueryServer.dispatch, "server.dispatch")),
        (PageStore, "group", tracer.wrap_scope(PageStore.group, "store.group")),
        (MultiKeyFile, "search", tracer.wrap(MultiKeyFile.search, "core.search")),
        (MultiKeyFile, "insert", tracer.wrap(MultiKeyFile.insert, "core.insert")),
        (MultiKeyFile, "delete", tracer.wrap(MultiKeyFile.delete, "core.delete")),
        (MultiKeyFile, "range_search", tracer.wrap(range_search, "core.range")),
        (
            PageStore,
            "read",
            tracer.wrap(
                PageStore.read,
                "store.read.node",
                classify=lambda page: (
                    "store.read.data" if isinstance(page, DataPage) else "store.read.node"
                ),
            ),
        ),
        (PageStore, "snapshot", tracer.wrap(snapshot_probe, "store.snapshot")),
        (CodecRegistry, "decode", tracer.wrap(CodecRegistry.decode, "codec.decode")),
        (CodecRegistry, "encode", tracer.wrap(CodecRegistry.encode, "codec.encode")),
        (WALBackend, "flush", flush),
        (WALBackend, "load", tracer.wrap(WALBackend.load, "wal.load")),
        (ReadWriteLatch, "acquire_read", tracer.wrap(ReadWriteLatch.acquire_read, "latch.read_wait")),
        (ReadWriteLatch, "acquire_write", tracer.wrap(ReadWriteLatch.acquire_write, "latch.write_wait")),
    ]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)


# -- analysis ----------------------------------------------------------------


class Spans:
    """A dumped span file restricted to one measured window."""

    def __init__(self, path: str, t0_ns: int, t1_ns: int) -> None:
        with np.load(path, allow_pickle=True) as data:
            spans = data["spans"]
            gauges = data["gauges"]
            self.names = list(data["names"])
        name_ids = {name: i for i, name in enumerate(self.names)}
        inside = (spans[:, 3] >= t0_ns) & (spans[:, 4] <= t1_ns)
        self._all = spans
        self.spans = spans[inside]
        self._gauges = gauges[(gauges[:, 1] >= t0_ns) & (gauges[:, 1] <= t1_ns)]
        self._id = name_ids

    def _select(self, table: np.ndarray, name: str, column: int) -> np.ndarray:
        nid = self._id.get(name)
        if nid is None:
            return table[:0]
        return table[table[:, column] == nid]

    def count(self, name: str) -> int:
        return len(self._select(self.spans, name, 2))

    def mean_us(self, name: str) -> float:
        rows = self._select(self.spans, name, 2)
        if not len(rows):
            return 0.0
        return float(np.mean(rows[:, 4] - rows[:, 3])) / 1e3

    def gauge_values(self, name: str) -> np.ndarray:
        return self._select(self._gauges, name, 0)[:, 2]

    def children_of(self, name: str, child_names: tuple[str, ...]) -> int:
        """How many ``child_names`` spans have a ``name`` span as parent."""
        parents = self._select(self.spans, name, 2)[:, 0]
        wanted = [self._id[c] for c in child_names if c in self._id]
        kids = self.spans[np.isin(self.spans[:, 2], wanted)]
        return int(np.isin(kids[:, 1], parents).sum())

    def mean_self_us(self, name: str) -> float:
        """Mean of duration minus the time covered by direct children."""
        rows = self._select(self.spans, name, 2)
        if not len(rows):
            return 0.0
        ids = rows[:, 0]
        kids = self._all[np.isin(self._all[:, 1], ids)]
        covered: dict[int, list[tuple[int, int]]] = {}
        for span, parent, _name, start, end in kids.tolist():
            covered.setdefault(parent, []).append((start, end))
        total = int(np.sum(rows[:, 4] - rows[:, 3]))
        for intervals in covered.values():
            intervals.sort()
            run_start, run_end = intervals[0]
            for start, end in intervals[1:]:
                if start > run_end:
                    total -= run_end - run_start
                    run_start, run_end = start, end
                else:
                    run_end = max(run_end, end)
            total -= run_end - run_start
        return total / len(rows) / 1e3
