"""Workload definitions shared by the orchestrator and the load generator.

Every input is derived from the workload seed: the fixture key set, the
order in which keys are read, the fresh keys inserted, the keys deleted
and the range boxes.  Nothing here depends on reply timing, so one seed
always yields one operation stream.

Keys follow the paper's table-2 distribution: 2-d keys uniform in
``[0, 2^31)``.  Values are random 31-bit integers, so a reply carrying
the wrong record's value is detectable.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

KEY_SPACE = 1 << 31
DIMS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix and the fixture it runs against (why each exists:
    ``BENCHMARK.json`` and ``README.md``)."""

    name: str
    #: Keys bulk-loaded before the server starts.
    fixture_keys: int
    #: ``closed`` (callers wait for replies) or ``open`` (fixed rate).
    loop: str
    #: Open loop: requests per second over both connections.
    rate: float = 0.0
    #: Closed loop: outstanding requests per connection, by role.
    outstanding: tuple[int, ...] = ()
    #: Expected records per RANGE box (range-scan only).
    range_records: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold-read",
            fixture_keys=100_000,
            loop="closed",
            outstanding=(16, 16),
        ),
        Workload(
            name="hot-churn",
            fixture_keys=1_000,
            loop="open",
            rate=1000.0,
        ),
        Workload(
            name="range-scan",
            fixture_keys=100_000,
            loop="closed",
            outstanding=(2, 4),
            range_records=128,
        ),
    )
}

#: Seconds of load before the measured window opens.
WARMUP_S = 2.0

#: hot-churn keeps this many ops between a key's insert (or delete) and
#: any SEARCH of it, so no two in-flight requests touch the same key
#: unless a request is outstanding for longer than the margin.
CHURN_MARGIN = 400


def fixture(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` distinct keys (shape ``(n, 2)``) and their values."""
    rng = np.random.default_rng([seed, 1])
    keys = np.unique(
        rng.integers(0, KEY_SPACE, size=(n + n // 8 + 16, DIMS)), axis=0
    )
    keys = keys[rng.permutation(len(keys))[:n]]
    if len(keys) < n:
        raise ValueError("fixture draw produced too few distinct keys")
    values = rng.integers(0, KEY_SPACE, size=n)
    return keys.astype(np.int64), values.astype(np.int64)


def fresh_keys(
    seed: int, count: int, taken: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` keys absent from ``taken`` and from each other."""
    rng = np.random.default_rng([seed, 2])
    used = {tuple(k) for k in taken.tolist()}
    out: list[tuple[int, int]] = []
    while len(out) < count:
        batch = rng.integers(0, KEY_SPACE, size=(count, DIMS)).tolist()
        for key in batch:
            t = tuple(key)
            if t not in used:
                used.add(t)
                out.append(t)
                if len(out) == count:
                    break
    values = rng.integers(0, KEY_SPACE, size=count)
    return np.asarray(out, dtype=np.int64).reshape(-1, DIMS), values.astype(
        np.int64
    )


def read_order(seed: int, n: int, count: int) -> np.ndarray:
    """Fixture indices for ``count`` uniform SEARCHes."""
    return np.random.default_rng([seed, 3]).integers(0, n, size=count)


def range_boxes(seed: int, count: int, n: int, records: int) -> np.ndarray:
    """``count`` square boxes ``(lo0, lo1, hi0, hi1)``, inclusive, each
    covering ``records / n`` of the key space on average."""
    side = int(KEY_SPACE * math.sqrt(records / n))
    rng = np.random.default_rng([seed, 4])
    lows = rng.integers(0, KEY_SPACE - side, size=(count, DIMS))
    return np.concatenate([lows, lows + side - 1], axis=1).astype(np.int64)


def churn_plan(seed: int, n_live: int, count: int) -> list[tuple[str, int]]:
    """The hot-churn op stream as ``(op, key slot)`` pairs.

    Slots ``0 .. n_live-1`` are the fixture; slot ``n_live + j`` is the
    j-th fresh key.  The pattern repeats SEARCH, INSERT, SEARCH, DELETE,
    so the live set stays at ``n_live``.  DELETE takes the oldest live
    key; SEARCH draws uniformly from live keys inserted at least
    :data:`CHURN_MARGIN` ops ago and not due for deletion within the
    next :data:`CHURN_MARGIN` ops.
    """
    rng = np.random.default_rng([seed, 5])
    draws = rng.random(count)
    live = list(range(n_live))  # FIFO: oldest first
    born = [-CHURN_MARGIN] * n_live  # op index of each live slot's insert
    head = 0  # live[head:] are the live slots
    next_fresh = n_live
    plan: list[tuple[str, int]] = []
    # One op in four deletes, so the next CHURN_MARGIN ops delete at most
    # the oldest CHURN_MARGIN // 4 + 1 live keys.
    guard = CHURN_MARGIN // 4 + 1
    for i in range(count):
        phase = i % 4
        if phase in (0, 2):
            lo = head + guard
            hi = bisect.bisect_right(born, i - CHURN_MARGIN)
            if hi <= lo:
                raise ValueError("live set too small for the churn margin")
            plan.append(("search", live[lo + int(draws[i] * (hi - lo))]))
        elif phase == 1:
            live.append(next_fresh)
            born.append(i)
            plan.append(("insert", next_fresh))
            next_fresh += 1
        else:
            plan.append(("delete", live[head]))
            head += 1
    return plan
