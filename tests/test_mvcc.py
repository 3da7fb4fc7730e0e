"""MVCC snapshot reads: version lifecycle and the concurrency property.

The headline property (PR 10): a snapshot scan taken at version ``v``
while a multi-writer storm is mutating the index is **bit-identical**
to a serial scan of the state after exactly the first ``v`` committed
operations.  Commit order is made observable with marker keys: every
writer, inside the same ``latch.write()`` block as its payload
mutation, inserts ``(MARKER, i)`` where ``i`` is the global commit
index — so the markers visible in a snapshot identify precisely which
oplog prefix it must equal.
"""

import random
import shutil
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KeyCodec, UIntEncoder
from repro.core import MultiKeyFile
from repro.errors import StorageError
from repro.storage import DataPage, FileBackend, PageStore, WALBackend


def page(*records):
    p = DataPage(capacity=max(4, len(records)))
    for key, value in records:
        p.put(key, value)
    return p


def make_store(kind: str, root: str) -> PageStore:
    if kind == "memory":
        return PageStore()
    if kind == "file":
        return PageStore(FileBackend(root + "/pages.db"))
    assert kind == "wal"
    return PageStore(WALBackend(root + "/pages.db"))


BACKENDS = ("memory", "file", "wal")


class TestSnapshotLifecycle:
    def test_snapshot_sees_open_time_state_across_overwrite(self):
        store = PageStore()
        pid = store.allocate(page(((1, 1), "old")))
        with store.snapshot() as snap:
            store.write(pid, page(((1, 1), "new")))
            assert dict(snap.read(pid).items()) == {(1, 1): "old"}
            assert dict(store.read(pid).items()) == {(1, 1): "new"}
            assert store.preserved_versions == 1
        assert store.preserved_versions == 0

    def test_in_place_mutation_is_copied_on_first_access(self):
        # The memory-backend idiom: read the object, mutate it in
        # place, then write(pid) with no object.  The copy must be
        # taken at read time or the snapshot would alias the mutation.
        store = PageStore()
        pid = store.allocate(page(((1, 1), "old")))
        with store.snapshot() as snap:
            obj = store.read(pid)
            obj.put((2, 2), "x")
            store.write(pid)
            assert dict(snap.read(pid).items()) == {(1, 1): "old"}
            assert dict(store.read(pid).items()) == {
                (1, 1): "old",
                (2, 2): "x",
            }

    def test_freed_page_stays_readable_through_snapshot(self):
        store = PageStore()
        pid = store.allocate(page(((7, 7), "doomed")))
        snap = store.snapshot()
        store.free(pid)
        assert pid not in store
        assert dict(snap.read(pid).items()) == {(7, 7): "doomed"}
        snap.close()
        assert store.preserved_versions == 0

    def test_pages_born_after_open_are_invisible(self):
        store = PageStore()
        first = store.allocate(page(((1, 1), "a")))
        with store.snapshot() as snap:
            late = store.allocate(page(((2, 2), "b")))
            assert first in snap
            assert late not in snap
            with pytest.raises(StorageError, match="not part"):
                snap.read(late)

    def test_epochs_pin_distinct_versions(self):
        store = PageStore()
        pid = store.allocate(page(((1, 1), "v0")))
        s0 = store.snapshot()
        store.write(pid, page(((1, 1), "v1")))
        s1 = store.snapshot()
        store.write(pid, page(((1, 1), "v2")))
        assert dict(s0.read(pid).items()) == {(1, 1): "v0"}
        assert dict(s1.read(pid).items()) == {(1, 1): "v1"}
        assert dict(store.read(pid).items()) == {(1, 1): "v2"}
        s0.close()
        assert store.preserved_versions > 0  # s1 still pins v1
        s1.close()
        assert store.preserved_versions == 0
        assert store.open_snapshots == 0

    def test_closed_snapshot_rejects_reads(self):
        store = PageStore()
        pid = store.allocate(page(((1, 1), "a")))
        snap = store.snapshot()
        snap.close()
        snap.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            snap.read(pid)

    def test_writer_is_never_blocked_by_snapshot_scan(self):
        # Zero writer blocking is structural: snapshot reads hold no
        # latch, so a writer can take the exclusive side mid-scan.
        store = PageStore()
        pids = [store.allocate(page(((i, i), i))) for i in range(10)]
        snap = store.snapshot()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with store.latch.write(timeout=2.0):
                acquired.set()
                release.wait(2.0)

        thread = threading.Thread(target=writer)
        with snap, snap.reading():
            thread.start()
            assert acquired.wait(2.0), "writer timed out behind a snapshot"
            for pid in pids:  # scan proceeds while the latch is held
                assert dict(store.read(pid).items()) == {(pid - pids[0],) * 2: pid - pids[0]}
            release.set()
        thread.join()

    def test_index_scan_under_snapshot_excludes_later_writes(self):
        codec = KeyCodec([UIntEncoder(16), UIntEncoder(16)])
        store = PageStore()
        file = MultiKeyFile(codec, page_capacity=4, store=store)
        for i in range(12):
            file.insert((i, i), i)
        with store.snapshot() as snap:
            for i in range(12, 24):
                file.insert((i, i), i)
            with snap.reading():
                frozen = sorted(value for _, value in file.index.items())
            assert frozen == list(range(12))
        live = sorted(value for _, value in file.items())
        assert live == list(range(24))
        assert store.preserved_versions == 0


def _page_view(obj):
    """A page as plain data.  For a node: the entry fields per cell plus
    the entry-sharing partition."""
    from repro.core.node import Node

    if not isinstance(obj, Node):
        return dict(obj.items())
    first = {}
    return (
        obj.level,
        obj.depths,
        [(tuple(e.h), e.m, e.ptr, e.is_node) for e in obj.array.cells()],
        [first.setdefault(id(e), a) for a, e in enumerate(obj.array.cells())],
    )


def _split_heavy_tree(kind, tmp_path):
    from repro.core.bmeh_tree import BMEHTree
    from repro.storage import BufferPool

    if kind == "memory":
        store = PageStore()
    else:
        store = PageStore(FileBackend(str(tmp_path / "p.db")), pool=BufferPool(8))
    index = BMEHTree(2, page_capacity=2, widths=12, store=store, xi=(1, 1))
    rng = random.Random(5)
    keys = rng.sample([(x, y) for x in range(64) for y in range(64)], 240)
    for i, key in enumerate(keys[:40]):
        index.insert(key, i)
    return store, index, keys


@pytest.mark.parametrize("kind", ["memory", "pooled-file"])
def test_node_split_under_open_snapshot_keeps_the_snapshot_view(kind, tmp_path):
    store, index, keys = _split_heavy_tree(kind, tmp_path)
    with store.snapshot() as snap:
        view = {pid: _page_view(snap.read(pid)) for pid in snap.page_ids()}
        nodes_before = index.node_count
        for i, key in enumerate(keys[40:], start=40):
            index.insert(key, i)
        assert index.node_count > nodes_before  # nodes split meanwhile
        assert {pid: _page_view(snap.read(pid)) for pid in view} == view
        frozen = [
            value for page in view.values() if isinstance(page, dict)
            for value in page.values()
        ]
        assert sorted(frozen) == list(range(40))
    assert sorted(value for _, value in index.items()) == list(range(240))
    assert store.preserved_versions == 0


def test_index_scan_under_snapshot_survives_root_growth(tmp_path):
    store, index, keys = _split_heavy_tree("memory", tmp_path)
    with store.snapshot() as snap:
        root_before = index.root_id
        for i, key in enumerate(keys[40:], start=40):
            index.insert(key, i)
        assert index.root_id != root_before  # the tree grew a level
        with snap.reading():
            frozen = sorted(value for _, value in index.items())
        assert frozen == list(range(40))


def test_kdb_scan_under_snapshot_survives_root_growth():
    from repro.kdb.kdbtree import KDBTree

    store = PageStore()
    index = KDBTree(2, page_capacity=2, widths=12, store=store,
                    region_capacity=3)
    keys = random.Random(5).sample(
        [(x, y) for x in range(64) for y in range(64)], 240
    )
    for i, key in enumerate(keys[:20]):
        index.insert(key, i)
    with store.snapshot() as snap:
        root_before = index.root_id
        for i, key in enumerate(keys[20:], start=20):
            index.insert(key, i)
        assert index.root_id != root_before
        with snap.reading():
            assert sorted(v for _, v in index.items()) == list(range(20))
            box = [k for k in keys[:20] if k[0] < 32]
            found = sorted(v for _, v in index.range_search((0, 0), (31, 63)))
            assert found == sorted(keys.index(k) for k in box)


def test_replicated_apply_keeps_the_snapshot_view(tmp_path):
    # A follower's only mutation channel preserves what open snapshots
    # see, like write() and free() do on a primary.
    primary = WALBackend(str(tmp_path / "primary.pages"))
    tap = primary.attach_tap()
    follower = PageStore(WALBackend(str(tmp_path / "follower.pages")))

    def ship() -> None:
        primary.flush()
        for batch in tap.drain():
            follower.apply_replicated(batch["ops"], batch["meta"])

    primary.store(0, page(((1, 1), "a")))
    primary.store(1, page(((2, 2), "b")))
    ship()
    assert follower.page_count == 2
    with follower.snapshot() as snap:
        primary.store(0, page(((1, 1), "a2")))
        primary.discard(1)
        primary.store(2, page(((3, 3), "c")))
        ship()
        assert dict(snap.read(0).items()) == {(1, 1): "a"}
        assert dict(snap.read(1).items()) == {(2, 2): "b"}
        assert 2 not in snap
        assert dict(follower.read(0).items()) == {(1, 1): "a2"}
        assert 1 not in follower
    assert follower.preserved_versions == 0
    assert follower.page_count == 2
    primary.close()
    follower.close()


# -- the concurrency property ---------------------------------------------

MARKER = 9999  # first key coordinate reserved for commit markers
N_WRITERS = 3
OPS_PER_WRITER = 8
SCANS = 6


def _check_prefix(observed, oplog, initial):
    """Assert ``observed`` equals initial + replay of an oplog prefix."""
    marker_ids = sorted(key[1] for key in observed if key[0] == MARKER)
    k = len(marker_ids)
    # Commit markers are assigned and inserted inside the latch, so a
    # consistent snapshot must contain a gapless prefix of them.
    assert marker_ids == list(range(k)), f"non-prefix markers: {marker_ids}"
    expected = dict(initial)
    for kind, key, value in oplog[:k]:
        if kind == "ins":
            expected[key] = value
        else:
            expected.pop(key)
    for i in range(k):
        expected[(MARKER, i)] = i
    assert sorted(observed.items()) == sorted(expected.items())
    return k


def _run_storm(kind: str, seed: int) -> None:
    root = tempfile.mkdtemp(prefix="mvcc-")
    rng = random.Random(seed)
    codec = KeyCodec([UIntEncoder(16), UIntEncoder(16)])
    store = make_store(kind, root)
    file = MultiKeyFile(codec, page_capacity=4, store=store)
    try:
        initial = {(w, 500): w for w in range(N_WRITERS)}
        for key, value in initial.items():
            file.insert(key, value)

        oplog: list[tuple[str, tuple[int, int], int | None]] = []
        errors: list[BaseException] = []
        plans = [
            [rng.random() < 0.3 for _ in range(OPS_PER_WRITER)]
            for _ in range(N_WRITERS)
        ]
        start = threading.Barrier(N_WRITERS + 1)

        def writer(w: int) -> None:
            live: list[tuple[int, int]] = []
            try:
                start.wait(5.0)
                for j, want_delete in enumerate(plans[w]):
                    # One latched block per logical op: marker + payload
                    # commit atomically with respect to snapshot opens.
                    with store.latch.write():
                        i = len(oplog)
                        file.insert((MARKER, i), i)
                        if want_delete and live:
                            key = live.pop()
                            file.delete(key)
                            oplog.append(("del", key, None))
                        else:
                            key = (w, j)
                            file.insert(key, i)
                            live.append(key)
                            oplog.append(("ins", key, i))
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        start.wait(5.0)
        for _ in range(SCANS):
            _check_prefix(dict(file.items()), oplog, initial)
        for thread in threads:
            thread.join()
        assert not errors, errors

        total = _check_prefix(dict(file.items()), oplog, initial)
        assert total == len(oplog) == N_WRITERS * OPS_PER_WRITER
        assert store.open_snapshots == 0
        assert store.preserved_versions == 0
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("kind", BACKENDS)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_snapshot_scan_equals_serial_replay(kind, seed):
    """Snapshot at version v == serial replay of the first v ops."""
    _run_storm(kind, seed)
