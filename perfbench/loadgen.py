"""The benchmark's load generator: one client process, two connections.

It replays a workload's seeded operation stream against a running
server through ``QueryClient`` and checks every reply against a model
of the key set:

* every SEARCH and DELETE returns the value the key was stored with;
* every RANGE result holds each fixture key in the box and each fresh
  key inserted (acknowledged) before the query was sent and not yet
  sent for deletion, holds nothing outside the box, never inserted or
  deleted (acknowledged) before the query was sent, carries the right
  values and no duplicates.  Writes still in flight may show or not.

A phase runs the workload for a warm-up, sends ``STATS`` to open the
measured window, runs ``--seconds`` more, sends ``STATS`` again, then
stops issuing and waits for every outstanding reply.  With
``--phases 2`` the process prints ``PHASE_DONE`` after the first phase,
waits for a line on standard input, reconnects and runs a second phase
that continues the same stream (the orchestrator turns tracing on in
between).  The result, with the acknowledged writes the recovery check
needs, goes to ``<dir>/client.json``.

Run: ``python3 perfbench/loadgen.py --workload W --seed N --seconds S
--port P --dir D`` with ``src`` on ``PYTHONPATH`` and ``<dir>/fixture.npz``
written by the orchestrator.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import collections
import json
import os
import sys
import time
from typing import Any, Awaitable, Callable

import numpy as np
from repro.errors import ReproError

import workloads as wl
from figures import KINDS

#: A send more than this late counts as late (open loop).
LATE_NS = 1_000_000
#: Requests one connection keeps outstanding at most: the server's
#: default per-session pipeline limit.
PIPELINE_LIMIT = 16
#: Length of one sub-window of the measured window.
SUB_WINDOW_S = 1.0


class Window:
    """Per-phase measurement, split into sub-windows.

    A request belongs to the sub-window its send (open loop: due) time
    falls in; the orchestrator turns the samples into per-sub-window
    figures (see :mod:`figures`).
    """

    def __init__(self) -> None:
        self.bounds: list[int] = []  # sub-window edges, perf_counter_ns
        self.closed = False
        self.samples: list[tuple[int, int, int]] = []  # sub, kind, latency ns
        self.send_lag: list[int] = []
        self.live_min: int | None = None
        self.live_max: int | None = None

    def advance(self, t_ns: int, last: bool = False) -> None:
        """Open the window or the next sub-window at ``t_ns``; ``last``
        closes the window instead."""
        self.bounds.append(t_ns)
        self.closed = last

    def index(self, t_ns: int) -> int | None:
        """The sub-window ``t_ns`` falls in, or None outside the window."""
        k = bisect.bisect_right(self.bounds, t_ns) - 1
        if k < 0 or (self.closed and k >= len(self.bounds) - 1):
            return None
        return k

    @property
    def open(self) -> bool:
        return bool(self.bounds) and not self.closed

    def see_live(self, live: int) -> None:
        if not self.open:
            return
        self.live_min = live if self.live_min is None else min(self.live_min, live)
        self.live_max = live if self.live_max is None else max(self.live_max, live)


class Conn:
    """A connection and its share of the server's per-session pipeline
    limit: every request on it, ``STATS`` included, holds one slot, so
    the server never refuses one for pipelining."""

    def __init__(self, client: Any) -> None:
        self.client = client
        self.slots = asyncio.Semaphore(PIPELINE_LIMIT)


class Runner:
    """Issues one workload's stream and keeps its model of the key set."""

    def __init__(self, workload: wl.Workload, seed: int, horizon_s: float, dirpath: str):
        self.workload = workload
        with np.load(os.path.join(dirpath, "fixture.npz")) as data:
            self.keys = data["keys"]
            self.values = data["values"]
        self.key_lists = self.keys.tolist()
        self.value_list = self.values.tolist()
        self.n = len(self.keys)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        #: For the recovery check: ``[key, value]`` of acknowledged
        #: inserts, keys of acknowledged deletes, keys of failed writes.
        self.acked_inserts: list[list] = []
        self.acked_deletes: list[list[int]] = []
        self.unknown: list[list[int]] = []
        self.key_conflicts = 0
        self.window = Window()
        self.stop = False
        name = workload.name
        if name == "cold-read":
            self.order = wl.read_order(seed, self.n, int(40_000 * horizon_s))
            self.next_read = 0
        elif name == "hot-churn":
            count = int(workload.rate * horizon_s)
            self.plan = wl.churn_plan(seed, self.n, count)
            self.next_op = 0
            self._fresh(seed, count // 4 + 1)
            self.inflight: set[int] = set()
            #: Fresh slots whose INSERT failed: later ops on them are
            #: skipped (a refused insert never reaches the index).
            self.absent: set[int] = set()
            self.live = self.n
        else:
            self._fresh(seed, int(1_000 * horizon_s))
            self.boxes = wl.range_boxes(
                seed, int(400 * horizon_s), self.n, workload.range_records
            )
            self.next_box = 0
            self.next_insert = 0
            self.next_write = 0
            never = np.iinfo(np.int64).max
            #: Write-ack sequence numbers of each fresh key's insert and
            #: delete (``never`` until acknowledged).
            self.ack_seq = np.full(len(self.fresh), never)
            self.del_ack_seq = np.full(len(self.fresh), never)
            self.del_sent = np.zeros(len(self.fresh), dtype=bool)
            self.acks = 0
            #: Fresh keys whose insert was acknowledged, oldest first.
            self.deletable: collections.deque[int] = collections.deque()

    def _fresh(self, seed: int, count: int) -> None:
        self.fresh, self.fresh_values = wl.fresh_keys(seed, count, self.keys)
        self.fresh_lists = self.fresh.tolist()
        self.fresh_value_list = self.fresh_values.tolist()

    def slot_key(self, slot: int) -> tuple[list[int], int]:
        if slot < self.n:
            return self.key_lists[slot], self.value_list[slot]
        j = slot - self.n
        return self.fresh_lists[j], self.fresh_value_list[j]

    def discrepancy(self, message: str) -> None:
        self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    # -- one request -------------------------------------------------------

    async def timed(
        self, kind: str, start_ns: int, call: Awaitable[Any],
        check: Callable[[Any], None],
    ) -> bool:
        """Await one request; record its latency from ``start_ns``."""
        self.attempted += 1
        k = self.window.index(start_ns)
        try:
            reply = await call
        except (ReproError, ConnectionError) as exc:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return False
        done = time.perf_counter_ns()
        if k is not None:
            self.window.samples.append((k, KINDS.index(kind), done - start_ns))
        check(reply)
        return True

    # -- cold-read -----------------------------------------------------------

    async def read_worker(self, conn: Conn) -> None:
        while not self.stop:
            i = self.order[self.next_read % len(self.order)]
            self.next_read += 1
            expected = self.value_list[i]

            def check(value: Any, i: int = i, expected: int = expected) -> None:
                if value != expected:
                    self.discrepancy(f"SEARCH {self.key_lists[i]}: {value!r} != {expected}")

            async with conn.slots:
                await self.timed(
                    "read", time.perf_counter_ns(),
                    conn.client.search(self.key_lists[i]), check,
                )

    # -- hot-churn -------------------------------------------------------------

    async def churn(self, conns: list[Conn]) -> None:
        """Open loop: op ``i`` is due ``i / rate`` s after the phase start."""
        period_ns = int(1e9 / self.workload.rate)
        start = time.perf_counter_ns()
        first = self.next_op
        tasks: set[asyncio.Task] = set()
        while not self.stop and self.next_op < len(self.plan):
            i = self.next_op
            due = start + (i - first) * period_ns
            delay = due - time.perf_counter_ns()
            if delay > 0:
                await asyncio.sleep(delay / 1e9)
                continue
            self.next_op += 1
            # Alternate connections; take the other one when this one is
            # at the server's pipeline limit, wait when both are.
            conn = conns[i % 2]
            if conn.slots.locked():
                conn = conns[1 - i % 2]
            await conn.slots.acquire()
            if self.window.index(due) is not None:
                self.window.send_lag.append(time.perf_counter_ns() - due)
            task = asyncio.get_running_loop().create_task(
                self.churn_op(conn.client, i, due)
            )
            task.add_done_callback(lambda _t, conn=conn: conn.slots.release())
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if self.next_op >= len(self.plan):
            self.discrepancy("hot-churn plan exhausted before the run ended")
        if tasks:
            await asyncio.gather(*tasks)

    async def churn_op(self, client: Any, i: int, due: int) -> None:
        op, slot = self.plan[i]
        if slot in self.absent:
            return  # its insert was refused: nothing to read or delete
        key, value = self.slot_key(slot)
        if slot in self.inflight:
            self.key_conflicts += 1
        self.inflight.add(slot)

        def check_value(got: Any) -> None:
            if got != value:
                self.discrepancy(f"{op.upper()} {key}: {got!r} != {value}")

        try:
            if op == "search":
                await self.timed("read", due, client.search(key), check_value)
            elif op == "insert":
                if await self.timed("write", due, client.insert(key, value), lambda _r: None):
                    self.acked_inserts.append([key, value])
                    self.live += 1
                else:
                    self.unknown.append(key)
                    self.absent.add(slot)
            else:
                if await self.timed("write", due, client.delete(key), check_value):
                    self.acked_deletes.append(key)
                    self.live -= 1
                else:
                    self.unknown.append(key)
            self.window.see_live(self.live)
        finally:
            self.inflight.discard(slot)

    # -- range-scan -------------------------------------------------------------

    async def write_worker(self, conn: Conn) -> None:
        """Alternate INSERTs of fresh keys with DELETEs of the oldest
        fresh key whose insert was acknowledged."""
        while not self.stop and self.next_insert < len(self.fresh):
            self.next_write += 1
            if self.next_write % 2 == 0 and self.deletable:
                await self.delete_fresh(conn, self.deletable.popleft())
            else:
                await self.insert_fresh(conn)
        if self.next_insert >= len(self.fresh):
            self.discrepancy("range-scan ran out of fresh keys")

    async def insert_fresh(self, conn: Conn) -> None:
        j = self.next_insert
        self.next_insert += 1
        key, value = self.fresh_lists[j], self.fresh_value_list[j]
        async with conn.slots:
            acked = await self.timed(
                "write", time.perf_counter_ns(),
                conn.client.insert(key, value), lambda _r: None,
            )
        if acked:
            self.ack_seq[j] = self.acks
            self.acks += 1
            self.acked_inserts.append([key, value])
            self.deletable.append(j)
        else:
            self.unknown.append(key)

    async def delete_fresh(self, conn: Conn, j: int) -> None:
        key, value = self.fresh_lists[j], self.fresh_value_list[j]
        self.del_sent[j] = True

        def check(got: Any) -> None:
            if got != value:
                self.discrepancy(f"DELETE {key}: {got!r} != {value}")

        async with conn.slots:
            acked = await self.timed(
                "write", time.perf_counter_ns(), conn.client.delete(key), check
            )
        if acked:
            self.del_ack_seq[j] = self.acks
            self.acks += 1
            self.acked_deletes.append(key)
        else:
            self.unknown.append(key)

    async def range_worker(self, conn: Conn) -> None:
        while not self.stop:
            b = self.next_box % len(self.boxes)
            self.next_box += 1
            lo0, lo1, hi0, hi1 = self.boxes[b].tolist()
            acked_before = self.acks
            start = time.perf_counter_ns()

            def check(items: Any) -> None:
                self.check_range((lo0, lo1, hi0, hi1), items, acked_before)

            async with conn.slots:
                await self.timed(
                    "range", start,
                    conn.client.range_search((lo0, lo1), (hi0, hi1)), check,
                )

    def check_range(self, box: tuple[int, ...], items: list, acked_before: int) -> None:
        lo0, lo1, hi0, hi1 = box

        def in_box(keys: np.ndarray) -> np.ndarray:
            return np.nonzero(
                (keys[:, 0] >= lo0) & (keys[:, 0] <= hi0)
                & (keys[:, 1] >= lo1) & (keys[:, 1] <= hi1)
            )[0]

        expected = {
            tuple(self.key_lists[i]): self.value_list[i]
            for i in in_box(self.keys).tolist()
        }
        # A fresh key must appear if its insert was acknowledged before
        # the query was sent and its delete not sent by the reply; it
        # must not if its delete was acknowledged before the query was
        # sent; otherwise it may or may not.
        allowed: dict[tuple, int] = {}
        for j in in_box(self.fresh[: self.next_insert]).tolist():
            if self.del_ack_seq[j] < acked_before:
                continue
            key = tuple(self.fresh_lists[j])
            allowed[key] = self.fresh_value_list[j]
            if self.ack_seq[j] < acked_before and not self.del_sent[j]:
                expected[key] = self.fresh_value_list[j]
        seen: set[tuple] = set()
        for key, value in items:
            if key in seen:
                self.discrepancy(f"RANGE {box}: duplicate {key}")
            seen.add(key)
            want = expected.get(key, allowed.get(key))
            if want is None:
                self.discrepancy(f"RANGE {box}: unexpected {key}")
            elif want != value:
                self.discrepancy(f"RANGE {box}: {key} -> {value!r} != {want}")
        missing = expected.keys() - seen
        if missing:
            self.discrepancy(f"RANGE {box}: {len(missing)} keys missing")

    # -- phases -----------------------------------------------------------------

    def workers(self, conns: list[Conn]) -> list[Awaitable[None]]:
        name = self.workload.name
        if name == "hot-churn":
            return [self.churn(conns)]
        if name == "cold-read":
            return [
                self.read_worker(conn)
                for conn, depth in zip(conns, self.workload.outstanding)
                for _ in range(depth)
            ]
        ranges, writes = self.workload.outstanding
        return [self.range_worker(conns[0]) for _ in range(ranges)] + [
            self.write_worker(conns[1]) for _ in range(writes)
        ]

    async def phase(self, clients: list[Any], warmup: float, seconds: float) -> dict:
        self.stop = False
        self.window = window = Window()
        conns = [Conn(client) for client in clients]
        tasks = [asyncio.ensure_future(w) for w in self.workers(conns)]
        await asyncio.sleep(warmup)
        subs = max(1, round(seconds / SUB_WINDOW_S))
        stats = [await server_stats(conns[0])]
        cpu = [time.process_time()]
        window.advance(time.perf_counter_ns())
        for k in range(subs):
            await asyncio.sleep(seconds / subs)
            window.advance(time.perf_counter_ns(), last=k == subs - 1)
            cpu.append(time.process_time())
            stats.append(await server_stats(conns[0]))
        self.stop = True
        await asyncio.gather(*tasks)
        return self.summary(stats, cpu)

    def summary(self, stats: list[dict], cpu: list[float]) -> dict:
        window = self.window
        wall = (window.bounds[-1] - window.bounds[0]) / 1e9
        lag = np.asarray(window.send_lag, dtype=np.float64)
        return {
            "bounds": window.bounds,
            "samples": window.samples,
            "stats": stats,
            "client_cpu_share": (cpu[-1] - cpu[0]) / wall,
            "send_lag_p99_ms": float(np.percentile(lag, 99)) / 1e6 if len(lag) else None,
            "late_share": float((lag > LATE_NS).mean()) if len(lag) else None,
            "live_min": window.live_min,
            "live_max": window.live_max,
        }


async def server_stats(conn: Conn) -> dict:
    async with conn.slots:
        return await conn.client.stats()


async def connect(port: int) -> list[Any]:
    from repro.server import QueryClient

    return [
        await QueryClient.connect("127.0.0.1", port, negotiate=True)
        for _ in range(2)
    ]


async def run(args: argparse.Namespace) -> dict:
    workload = wl.WORKLOADS[args.workload]
    warmup = args.warmup if args.warmup is not None else wl.WARMUP_S
    horizon = args.phases * (warmup + args.seconds) + 10
    runner = Runner(workload, args.seed, horizon, args.dir)
    phases = []
    for number in range(args.phases):
        if number:
            print("PHASE_DONE", flush=True)
            await asyncio.get_running_loop().run_in_executor(
                None, sys.stdin.readline
            )
        clients = await connect(args.port)
        try:
            phases.append(await runner.phase(clients, warmup, args.seconds))
        finally:
            for client in clients:
                await client.close()
    return {
        "phases": phases,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong": runner.wrong,
        "errors": runner.errors,
        "key_conflicts": runner.key_conflicts,
        "acked_inserts": runner.acked_inserts,
        "acked_deletes": runner.acked_deletes,
        "unknown": runner.unknown,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--phases", type=int, default=1, choices=(1, 2))
    parser.add_argument("--warmup", type=float)
    args = parser.parse_args()
    result = asyncio.run(run(args))
    with open(os.path.join(args.dir, "client.json"), "w") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
