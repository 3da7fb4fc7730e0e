"""The benchmark's server launcher: bulk-load a fixture, then serve it.

``load`` builds the page file from a fixture of generated keys; ``serve``
reopens it in a fresh process and serves it through the program's
``QueryServer`` with its default settings.  Loading in its own process
keeps the bulk load's memory out of the served process's peak RSS.

The store matches ``repro.bench.regression._make_store("file+wal")``:
8 KiB pages, a ``WALBackend`` with ``checkpoint_every=1024`` and a
256-frame ``BufferPool``.  Each group commit flushes the WAL to the OS
page cache without fsync, the program's own policy.

``serve`` prints ``READY <port>`` once it accepts connections.  A line
``trace`` on its standard input installs the span wrappers of
:mod:`tracing` and is answered with ``TRACING``.  ``STATS`` replies gain
a ``bench`` section of counters the program keeps; with tracing on,
each ``STATS`` also writes the spans recorded so far.

Run: ``python3 perfbench/server.py load --dir D`` then
``python3 perfbench/server.py serve --dir D``, with ``src`` on
``PYTHONPATH``.  ``--fault`` seeds a wrong reply or a lost acknowledged
write, for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
import time
from typing import Any

import numpy as np
from repro.core.bmeh_tree import BMEHTree
from repro.core.bulk import bulk_load
from repro.core.facade import MultiKeyFile
from repro.encoding import KeyCodec, UIntEncoder
from repro.server import QueryServer
from repro.storage import PageStore
from repro.storage.buffer import BufferPool
from repro.storage.snapshot import restore_from_metadata
from repro.storage.wal import WALBackend, checkpoint, decode_metadata_blob

import tracing

PAGE_SIZE = 8192
PAGE_CAPACITY = 8
POOL_FRAMES = 256
CHECKPOINT_EVERY = 1024
WIDTH = 31

#: Call number at which a seeded fault fires.
_FAULT_AT = 50


def page_path(workdir: str) -> str:
    return os.path.join(workdir, "pages.db")


def open_store(workdir: str) -> PageStore:
    backend = WALBackend(
        page_path(workdir),
        page_size=PAGE_SIZE,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    return PageStore(backend, pool=BufferPool(POOL_FRAMES))


def codec() -> KeyCodec:
    return KeyCodec([UIntEncoder(WIDTH), UIntEncoder(WIDTH)])


def load(workdir: str) -> None:
    with np.load(os.path.join(workdir, "fixture.npz")) as data:
        keys = data["keys"].tolist()
        values = data["values"].tolist()
    store = open_store(workdir)
    index = BMEHTree(
        dims=2, page_capacity=PAGE_CAPACITY, widths=WIDTH, store=store
    )
    bulk_load(index, zip(keys, values))
    checkpoint(index)
    store.close()


def reopen(workdir: str) -> Any:
    """The loaded index, over a store configured like the load's."""
    store = open_store(workdir)
    meta, directory = decode_metadata_blob(store.backend.metadata)
    return restore_from_metadata(meta, store, directory)


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


class BenchServer(QueryServer):
    """``QueryServer`` whose ``STATS`` also reports the layer counters
    the program keeps but does not serve."""

    workdir = ""
    tracer: Any = None

    def _stats(self) -> dict[str, Any]:
        stats = super()._stats()
        store = self.file.store
        backend = store.backend
        path = page_path(self.workdir)
        stats["bench"] = {
            "clock_ns": time.perf_counter_ns(),
            "cpu_s": time.process_time(),
            "pool_hits": store.pool.hits,
            "pool_misses": store.pool.misses,
            "backend_reads": store.backend_stats.reads,
            "backend_writes": store.backend_stats.writes,
            "wal_checkpoints": backend.checkpoints,
            "wal_bytes": os.path.getsize(path + ".wal"),
            "vm_hwm_kb": _status_kb("VmHWM"),
            "vm_rss_kb": _status_kb("VmRSS"),
        }
        if self.tracer is not None:
            self.tracer.dump(os.path.join(self.workdir, "spans.npz"))
        return stats


def _seed_fault(file: Any, fault: str) -> None:
    """Make the ``_FAULT_AT``-th SEARCH reply carry a wrong value, or
    the ``_FAULT_AT``-th INSERT be acknowledged without being applied."""
    name = {"wrong-reply": "search", "lost-write": "insert"}[fault]
    original = getattr(file, name)
    calls = 0

    def faulty(*args: Any) -> Any:
        nonlocal calls
        calls += 1
        if calls != _FAULT_AT:
            return original(*args)
        if name == "search":
            return original(*args) + 1
        return None

    setattr(file, name, faulty)


async def serve(workdir: str, fault: str | None) -> None:
    file = MultiKeyFile.from_index(codec(), reopen(workdir))
    if fault:
        _seed_fault(file, fault)
    server = BenchServer(file)
    server.workdir = workdir
    loop = asyncio.get_running_loop()
    await server.start()

    def enable_tracing() -> None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        server.tracer = tracer
        print("TRACING", flush=True)

    def control() -> None:
        for line in sys.stdin:
            if line.strip() == "trace":
                loop.call_soon_threadsafe(enable_tracing)

    threading.Thread(target=control, daemon=True).start()
    print(f"READY {server.address[1]}", flush=True)
    await server.serve_forever()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("load", "serve"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--fault", choices=("wrong-reply", "lost-write"))
    args = parser.parse_args()
    if args.mode == "load":
        load(args.dir)
    else:
        asyncio.run(serve(args.dir, args.fault))


if __name__ == "__main__":
    main()
