"""Read replicas and hot failover.

Covers the PR 10 replication surface end to end against real worker
and replica processes:

* a follower bootstraps from the primary's checkpoint stream, tails
  committed WAL batches, serves reads through the router (lag-aware),
  and rejects mutations with a structured ``read-only`` error;
* the router retries **idempotent reads** exactly once on an alternate
  link when a connection dies mid-request — and never retries a
  mutation (the satellite regression for the silent read-hang on a
  killed replica link);
* promotion: kill-the-primary → promote-most-caught-up-follower, via
  the ``MIGRATE promote`` verb, the auto-failover watchdog, and with
  no follower at all (the dead primary's durable WAL alone);
* the chaos sweep: a failure injected after **every** phase of the
  promotion state machine must leave a retry that converges with zero
  acked-write loss, a sanitizer-clean promoted index, and no torn
  values among unknown-outcome in-flights.
"""

import asyncio
import contextlib
import random

import pytest

from repro import KeyCodec, UIntEncoder
from repro.core import MultiKeyFile
from repro.errors import ProtocolError, ShardDownError
from repro.sanitize import check_structure
from repro.server import QueryClient, QueryServer, ShardManager
from repro.server.client import RemoteError
from repro.server.protocol import Opcode
from repro.server.replica import (
    PROMOTION_PHASES,
    ReplicaConfig,
    ReplicaManager,
    ReplicaServer,
    promote,
)
from repro.server.router import ShardRouter
from repro.server.session import INLINE_MISS
from repro.storage import PageStore, WALBackend, recover_index

DIMS = 2
WIDTH = 16


def run(coro):
    return asyncio.run(coro)


def seeded_keys(n, seed=11):
    rng = random.Random(seed)
    seen = set()
    while len(seen) < n:
        seen.add((rng.randrange(1 << WIDTH), rng.randrange(1 << WIDTH)))
    return sorted(seen)


def make_manager(tmp_path, shards=2, sample=None):
    return ShardManager(
        shards,
        dims=DIMS,
        widths=WIDTH,
        page_capacity=8,
        workdir=tmp_path,
        sample_keys=sample,
    )


async def _replica_stats(spec):
    client = await QueryClient.connect(spec.host, spec.port, negotiate=True)
    try:
        return await client.stats()
    finally:
        await client.close()


async def _wait_caught_up(replicas, deadline=15.0):
    """Block until every live follower's lag is zero.

    Replica reads are bounded-lag, **not** read-your-writes: an oracle
    readback straight after a write burst must first wait for the tails
    to land or it would (correctly) be served slightly-stale state.
    The lag a follower reports is relative to its *last-known* primary
    LSN, so a single zero reading can predate the burst — require two
    zero readings separated by several tail-poll intervals, which
    guarantees a post-burst poll happened in between.
    """
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    for shard, specs in replicas.all_specs().items():
        for spec in specs:
            zeros = 0
            while zeros < 2:
                stats = await _replica_stats(spec)
                lag = stats["replica"]["lag"]
                if lag <= 0:
                    zeros += 1
                else:
                    zeros = 0
                if loop.time() > end:
                    raise AssertionError(
                        f"replica {shard}/{spec.replica} stuck at lag {lag}"
                    )
                await asyncio.sleep(0.1)


async def _oracle_readback(client, values, maybe=None):
    """Every acked write reads back exactly once with its acked value;
    ``maybe`` (unknown-outcome in-flights) may appear, but only with
    the value that was written — never torn, never duplicated."""
    maybe = maybe or {}
    every = sorted(values)
    assert await client.search_many(every) == [values[key] for key in every]
    top = (1 << WIDTH) - 1
    ranged = await client.range_search((0, 0), (top, top))
    got = {}
    for key, value in ranged:
        got[tuple(key)] = value
    assert len(got) == len(ranged), "a key was returned twice"
    for key, value in got.items():
        expected = values.get(key, maybe.get(key))
        assert expected == value, (
            f"key {key} served as {value!r}, expected {expected!r}"
        )
    assert set(values) <= set(got)


# ---------------------------------------------------------------------------
# replica serving


class TestReplicaServing:
    def test_followers_serve_reads_and_reject_writes(self, tmp_path):
        keys = seeded_keys(48, seed=7)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=2, sample=keys)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values)
                        stats = await client.stats()
                        metrics = stats["server"]
                        assert metrics["replica_reads"] > 0
                        assert metrics["read_retries"] == 0
                        topo = await client.topology()
                        assert len(topo["replicas"]) == 2

                    # the follower itself: replica-role stats, read-only
                    spec = replicas.specs_for(0)[0]
                    stats = await _replica_stats(spec)
                    assert stats["role"] == "replica"
                    replica = stats["replica"]
                    assert replica["shard"] == 0
                    assert replica["applied_lsn"] >= 0
                    assert replica["primary_down"] is False
                    direct = await QueryClient.connect(
                        spec.host, spec.port, negotiate=True
                    )
                    async with direct:
                        with pytest.raises(RemoteError) as err:
                            await direct.insert((1, 2), "nope")
                        assert err.value.code == "read-only"

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()


# ---------------------------------------------------------------------------
# a follower connection, in process: the replica role of QueryServer

MARKER = 9999  # first key coordinate reserved for commit markers
TOP = (1 << WIDTH) - 1


@contextlib.asynccontextmanager
async def primary_and_follower(tmp_path, preload, max_lag=64):
    """A WAL-backed primary with a split-happy BMEH index (two-record
    pages, a four-cell root), one in-process follower of it, a client
    of each, and the follower server itself."""
    codec = KeyCodec([UIntEncoder(WIDTH), UIntEncoder(WIDTH)])
    store = PageStore(WALBackend(str(tmp_path / "primary.pages")))
    primary = QueryServer(
        MultiKeyFile(codec, page_capacity=2, store=store, xi=(1, 1))
    )
    await primary.start()
    host, port = primary.address
    writer = await QueryClient.connect(host, port, negotiate=True)
    await writer.insert_many(preload)
    config = ReplicaConfig(
        shard=0, replica=0, widths=(WIDTH, WIDTH),
        page_capacity=2, wal_path=str(tmp_path / "follower.pages"),
        primary_host=host, primary_port=port, host="127.0.0.1",
        poll_interval=0.005, max_lag=max_lag, max_inflight=64,
        session_pipeline=16, read_workers=2,
    )
    follower = await ReplicaServer.open(config)
    direct = await QueryClient.connect(*follower.address, negotiate=True)
    try:
        yield primary, writer, follower, direct
    finally:
        await direct.close()
        await follower.shutdown()
        await writer.close()
        await primary.shutdown()
        await asyncio.get_running_loop().run_in_executor(None, store.close)


async def caught_up(primary, follower, deadline=10.0):
    lsn = primary.file.store.backend.lsn
    end = asyncio.get_running_loop().time() + deadline
    while follower.applied_lsn < lsn:
        assert asyncio.get_running_loop().time() < end, "follower stuck"
        await asyncio.sleep(0.005)


def preload_pairs(n=8):
    return [((k, k + 1), k) for k in range(n)]


class TestDirectReplica:
    def test_mutations_are_read_only(self, tmp_path):
        async def scenario():
            async with primary_and_follower(
                tmp_path, preload_pairs()
            ) as (primary, _, follower, direct):
                await caught_up(primary, follower)
                before = await direct.stats()
                for call in (
                    lambda: direct.insert((1, 2), "nope"),
                    lambda: direct.delete((0, 1)),
                    lambda: direct.insert_many([((3, 4), 1)]),
                    lambda: direct.delete_many([(0, 1)]),
                ):
                    with pytest.raises(RemoteError) as err:
                        await call()
                    assert err.value.code == "read-only"
                after = await direct.stats()
                assert after["keys"] == before["keys"] == 8
                assert (
                    after["replica"]["applied_lsn"]
                    == before["replica"]["applied_lsn"]
                )
                assert await direct.search((0, 1)) == 0
                assert len(await direct.range_search((0, 0), (TOP, TOP))) == 8

        run(scenario())

    def test_primary_only_opcodes_are_bad_opcode(self, tmp_path):
        async def scenario():
            async with primary_and_follower(
                tmp_path, preload_pairs()
            ) as (_, _, _, direct):
                for call in (
                    lambda: direct.migrate("begin", z_low=0, z_high=1),
                    lambda: direct.repl("hello"),
                    lambda: direct.route((1, 2)),
                ):
                    with pytest.raises(ProtocolError) as err:
                        await call()
                    assert err.value.code == "bad-opcode"

        run(scenario())

    def test_ping_topology_stats_report_the_replica_role(self, tmp_path):
        async def scenario():
            async with primary_and_follower(
                tmp_path, preload_pairs()
            ) as (_, writer, follower, direct):
                assert (await writer.ping())["role"] == "server"
                assert (await direct.ping())["role"] == "replica"
                topo = await direct.topology()
                assert topo["role"] == "replica"
                assert topo["shards"] == []
                stats = await direct.stats()
                assert stats["role"] == "replica"
                assert stats["replica"]["shard"] == 0
                # A fresh follower answers point reads on the inline
                # lane, like a primary.
                reply = follower.try_dispatch_inline(
                    Opcode.SEARCH, {"key": [2, 3]}
                )
                assert reply is not INLINE_MISS
                assert reply == {"value": 2}

        run(scenario())

    def test_stale_replica_refuses_inline_search(self, tmp_path):
        async def scenario():
            async with primary_and_follower(
                tmp_path, preload_pairs(), max_lag=0
            ) as (primary, writer, follower, direct):
                await caught_up(primary, follower)
                # The tail keeps polling the primary's LSN but never
                # applies: every committed write leaves it further behind.
                follower._apply_batches = lambda batches: None
                await writer.insert((50, 50), 1)
                for _ in range(1000):
                    if (await direct.stats())["replica"]["lag"] > 0:
                        break
                    await asyncio.sleep(0.005)
                with pytest.raises(ProtocolError) as err:
                    follower.try_dispatch_inline(
                        Opcode.SEARCH, {"key": [0, 1]}
                    )
                assert err.value.code == "replica-stale"
                for call in (
                    lambda: direct.search((0, 1)),
                    lambda: direct.search_many([(0, 1)]),
                    lambda: direct.range_search((0, 0), (TOP, TOP)),
                ):
                    with pytest.raises(RemoteError) as err:
                        await call()
                    assert err.value.code == "replica-stale"

        run(scenario())

    def test_range_while_batches_apply_is_a_marker_prefix(self, tmp_path):
        # Every commit inserts the next marker, so a consistent scan
        # holds markers 0..k-1 with no gap — also across the primary's
        # root splits, which move the root of the follower's index.
        rng = random.Random(3)

        async def scenario():
            async with primary_and_follower(
                tmp_path, [((MARKER + 1, 0), -1)]
            ) as (primary, writer, follower, direct):
                await caught_up(primary, follower)
                primary_root = primary.file.index.root_id
                follower_root = follower.file.index.root_id
                done = asyncio.Event()
                seen: list[int] = []

                async def scan():
                    while not done.is_set():
                        items = await direct.range_search((0, 0), (TOP, TOP))
                        markers = sorted(
                            key[1] for key, _ in items if key[0] == MARKER
                        )
                        assert markers == list(range(len(markers)))
                        seen.append(len(markers))

                scanner = asyncio.create_task(scan())
                for i in range(60):
                    await writer.insert((MARKER, i), i)
                    await writer.insert(
                        (rng.randrange(MARKER), rng.randrange(TOP)), i
                    )
                await caught_up(primary, follower)
                done.set()
                await scanner
                assert primary.file.index.root_id != primary_root
                assert follower.file.index.root_id != follower_root
                assert seen == sorted(seen) and len(seen) > 1
                items = await direct.range_search((0, 0), (TOP, TOP))
                markers = [key[1] for key, _ in items if key[0] == MARKER]
                assert sorted(markers) == list(range(60))

        run(scenario())

    def test_follower_pins_one_root_and_counts_monotonically(self, tmp_path):
        keys = seeded_keys(40, seed=5)

        async def scenario():
            async with primary_and_follower(
                tmp_path, [(keys[0], 0)]
            ) as (primary, writer, follower, direct):
                root = primary.file.index.root_id
                await writer.insert_many(
                    [(k, i) for i, k in enumerate(keys[1:])]
                )
                assert primary.file.index.root_id != root  # a root split
                reads, writes = [], []
                for i in range(4):
                    await writer.insert((i, TOP), i)
                    await caught_up(primary, follower)
                    store = follower.file.store
                    assert store.pinned_ids() == {follower.file.index.root_id}
                    await direct.search_many(keys)
                    ledger = (await direct.stats())["store"]
                    reads.append(ledger["logical_reads"])
                    writes.append(ledger["backend_writes"])
                assert all(a < b for a, b in zip(reads, reads[1:])), reads
                assert writes == sorted(writes) and writes[0] > 0, writes

        run(scenario())


# ---------------------------------------------------------------------------
# the idempotent-read retry (satellite regression)


class TestIdempotentReadRetry:
    def test_reads_retry_once_on_a_killed_link_writes_never(self, tmp_path):
        keys = seeded_keys(32, seed=13)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        for key in keys[:8]:
                            assert await client.search(key) == values[key]
                        before = await client.stats()
                        assert before["server"]["replica_reads"] > 0

                        # SIGKILL the follower with its link still
                        # installed: the next preferred read dies
                        # mid-request and must be retried — once, on
                        # the primary — not hung and not surfaced.
                        replicas.kill(0, 0)
                        for key in keys:
                            assert await client.search(key) == values[key]
                        ranged = await client.range_search(
                            (0, 0), ((1 << WIDTH) - 1, (1 << WIDTH) - 1)
                        )
                        assert len(ranged) == len(keys)
                        retried = router.metrics.read_retries
                        assert retried >= 1

                        # mutations get no retry anywhere: a dead
                        # primary surfaces as shard-down, and the retry
                        # counter does not move (read it off the router
                        # directly — a STATS round-trip would itself be
                        # a retrying read against the dead primary).
                        manager.kill(0)
                        with pytest.raises(ShardDownError):
                            await asyncio.wait_for(
                                client.insert((1, 1), "never"), timeout=10.0
                            )
                        assert router.metrics.read_retries == retried

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

    def test_read_of_dead_primary_without_spares_raises(self, tmp_path):
        keys = seeded_keys(8, seed=17)
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        try:

            async def scenario():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, i) for i, key in enumerate(keys)]
                        )
                        manager.kill(0)
                        with pytest.raises(ShardDownError):
                            await asyncio.wait_for(
                                client.search(keys[0]), timeout=10.0
                            )

            run(scenario())
        finally:
            manager.stop()


# ---------------------------------------------------------------------------
# promotion


class TestPromotion:
    def test_promote_verb_over_the_wire(self, tmp_path):
        keys = seeded_keys(40, seed=23)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        manager.kill(0)
                        # the follower keeps serving reads while the
                        # primary is down, before any promotion
                        assert (
                            await client.search(keys[0]) == values[keys[0]]
                        )
                        summary = await client.migrate("promote", shard=0)
                        assert summary["shard"] == 0
                        assert summary["chosen"] is not None
                        assert summary["epoch"] == 2
                        # promoted primary serves everything, and
                        # accepts new writes
                        await client.insert((1, 1), "fresh")
                        values[(1, 1)] = "fresh"
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values)
                        stats = await client.stats()
                        assert stats["server"]["promotions"] == 1

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

    def test_promotion_from_the_primary_wal_alone(self, tmp_path):
        # No follower ever existed: zero acked-write loss must still
        # hold, because an ack implies a durable COMMIT in the dead
        # primary's WAL.
        keys = seeded_keys(40, seed=29)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        try:

            async def load():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )

            run(load())
            manager.kill(0)
            summary = promote(manager, None, 0)
            assert summary["chosen"] is None
            assert summary["chosen_lsn"] == -1
            assert summary["pages"] > 0
            assert manager.is_alive(0)

            async def readback():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await _oracle_readback(client, values)

            run(readback())
        finally:
            manager.stop()

    def test_auto_failover_watchdog_promotes(self, tmp_path):
        keys = seeded_keys(24, seed=31)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(
                    manager,
                    replicas=replicas,
                    auto_failover=True,
                    failover_interval=0.1,
                ) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        manager.kill(0)
                        deadline = asyncio.get_running_loop().time() + 15.0
                        while router.metrics.promotions < 1:
                            if asyncio.get_running_loop().time() > deadline:
                                raise AssertionError(
                                    "watchdog never promoted"
                                )
                            await asyncio.sleep(0.1)
                        assert manager.is_alive(0)
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values)

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()


# ---------------------------------------------------------------------------
# chaos: kill the promotion at every swept phase


class TestChaosFailoverSweep:
    @pytest.mark.parametrize("phase", PROMOTION_PHASES)
    def test_injected_failure_then_retry_converges(self, tmp_path, phase):
        keys = seeded_keys(32, seed=37)
        values = {key: i for i, key in enumerate(keys)}
        maybe = {}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    writer = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client, writer:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)

                        # a write storm straddling the failure: acked
                        # writes join the oracle, failed ones are
                        # unknown-outcome (durable-but-unacked is legal)
                        stop = asyncio.Event()

                        async def storm():
                            i = 0
                            while not stop.is_set():
                                key = (60000 + (i % 5000), 60000)
                                i += 1
                                if key in values or key in maybe:
                                    continue
                                try:
                                    await writer.insert(key, 100000 + i)
                                except ShardDownError:
                                    maybe[key] = 100000 + i
                                    await asyncio.sleep(0.02)
                                else:
                                    values[key] = 100000 + i

                        task = asyncio.create_task(storm())
                        await asyncio.sleep(0.1)
                        manager.kill(0)
                        with pytest.raises(ShardDownError):
                            await router.promote(0, failpoint=phase)
                        # the sabotaged attempt left a retryable state:
                        # the same promotion, un-sabotaged, converges
                        summary = await router.promote(0)
                        assert summary["shard"] == 0
                        assert manager.is_alive(0)
                        # post-promotion writes flow again
                        acked_before = len(values)
                        deadline = asyncio.get_running_loop().time() + 10.0
                        while len(values) <= acked_before:
                            if asyncio.get_running_loop().time() > deadline:
                                raise AssertionError(
                                    "no write acked after promotion"
                                )
                            await asyncio.sleep(0.05)
                        stop.set()
                        await task
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values, maybe)

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

        # offline: the promoted worker's WAL replays into a
        # sanitizer-clean index carrying every acked value exactly
        wal = manager.wal_path(manager.worker_ids[0])
        index = recover_index(wal)
        assert index is not None
        try:
            check_structure(index)
            for key, acked in values.items():
                assert key in index
                assert index.search(key) == acked
            for key, written in maybe.items():
                if key in index:
                    assert index.search(key) == written
        finally:
            index.store.close()
