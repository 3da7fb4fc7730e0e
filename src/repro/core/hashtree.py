"""Shared machinery of the tree-structured directory schemes.

Both the MEH-tree and the BMEH-tree keep the directory in fixed-size
nodes (bounded extendible arrays of ``2^phi`` slots) and share everything
except what happens when a node can no longer accommodate a deeper
region: the MEH-tree spawns a child *below* the overflowing region
(unbalanced, root-down growth); the BMEH-tree splits the node and
registers the two halves in its parent (balanced, root-up growth, like a
B-tree).

Traversal bookkeeping: descending through a directory entry consumes that
entry's local depths ``h_j`` — not the node's global depths — because
buddy cells share one child and the child's addressing must not depend on
which buddy was traversed.  ``consumed[j]`` tracks the pseudo-key bits
spent per dimension above a node, so a region's *overall* depth is
``consumed[j] + h[j]`` and a page split along ``m`` rehashes on bit
``consumed[m] + h[m] + 1`` of the full code.

The insertion flow follows a strict ordering discipline: a full data page
is only ever rehashed once the directory on its path is *already* able to
register the two halves (``_refinable``).  When it is not, one structural
step is taken — grow/spawn/split at the right level — and the insert
retries from the root; the operation-scoped I/O dedup keeps the re-reads
free, matching the paper's in-memory working set.  This discipline is
what makes node splitting safe: a split may cut regions that cross the
cut plane (DESIGN.md §4.2), and no not-yet-registered sibling page can
exist at that moment.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, NamedTuple, Sequence

from repro.bits import low_mask
from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.extarray import ExtendibleArray
from repro.storage import DataPage, PageStore
from repro.core.directory import DirEntry, region_indices
from repro.core.interface import (
    KeyCodes,
    LeafRegion,
    MultidimensionalIndex,
    Record,
)
from repro.core.node import Node


def default_xi(dims: int, phi: int = 6) -> tuple[int, ...]:
    """Spread a node bit budget φ over the dimensions as evenly as the
    paper does (φ=6: d=2 → (3,3), d=3 → (2,2,2)); every axis gets >= 1."""
    base = max(phi // dims, 1)
    extra = max(phi - base * dims, 0)
    return tuple(base + (1 if j < extra else 0) for j in range(dims))


class _Step(NamedTuple):
    """One level of a root-to-leaf descent."""

    node_id: int
    node: Node
    anchor: tuple[int, ...]
    entry: DirEntry
    consumed: tuple[int, ...]  # bits spent per dimension *above* this node


class HashTreeBase(MultidimensionalIndex):
    """Common skeleton of :class:`MEHTree` and :class:`BMEHTree`.

    Args:
        xi: per-dimension node depth budgets ξ_j (default: φ=6 split
            evenly, the paper's experimental setting).
        node_policy: ``"total"`` lets a node double along any axis while
            its ``2^φ`` slots allow (the test in the paper's pseudocode);
            ``"per_dim"`` additionally caps each axis at ξ_j (the
            stricter reading of §3.1; compared by an ablation benchmark).
    """

    def __init__(
        self,
        dims: int,
        page_capacity: int,
        widths: Sequence[int] | int = 32,
        store: PageStore | None = None,
        xi: Sequence[int] | None = None,
        node_policy: str = "total",
    ) -> None:
        super().__init__(dims, page_capacity, widths, store)
        xi = tuple(xi) if xi is not None else default_xi(dims)
        if len(xi) != dims or any(x < 1 for x in xi):
            raise ValueError("xi needs one positive budget per dimension")
        if node_policy not in ("total", "per_dim"):
            raise ValueError(f"unknown node policy {node_policy!r}")
        self._xi = xi
        self._node_policy = node_policy
        root = Node(dims, xi, level=1)
        root.array.set_at(0, DirEntry([0] * dims, dims - 1, None))
        self._root_id = self._store.allocate(root)
        self._store.pin(self._root_id)
        self._store.track_root(self)
        self._node_count = 1
        self._data_pages = 0

    # -- state ---------------------------------------------------------------

    @property
    def xi(self) -> tuple[int, ...]:
        return self._xi

    @property
    def phi(self) -> int:
        return sum(self._xi)

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def directory_size(self) -> int:
        """σ for the tree schemes: each node page reserves 2^φ slots."""
        return self._node_count << self.phi

    @property
    def data_page_count(self) -> int:
        return self._data_pages

    @property
    def root_id(self) -> int:
        return self._root_id

    def height(self) -> int:
        """Directory levels on the longest root-to-leaf path."""
        return self._height_of(self._root_id)

    def _height_of(self, node_id: int) -> int:
        node = self._store.peek(node_id)
        deepest = 0
        for entry in node.entries():
            if entry.is_node:
                deepest = max(deepest, self._height_of(entry.ptr))
        return 1 + deepest

    # -- descent ---------------------------------------------------------------

    def _cell_index(
        self, codes: KeyCodes, consumed: tuple[int, ...], depths: tuple[int, ...]
    ) -> tuple[int, ...]:
        """Address a node cell from the *unstripped* codes: the node reads
        bits ``consumed[j]+1 .. consumed[j]+H_j`` of each component."""
        index = []
        for code, width, spent, take in zip(
            codes, self._widths, consumed, depths
        ):
            if spent + take > width:
                raise StorageError(
                    f"directory wants bit {spent + take} of a "
                    f"{width}-bit component (axis {len(index)})"
                )
            index.append((code >> (width - spent - take)) & ((1 << take) - 1))
        return tuple(index)

    def _descend(self, codes: KeyCodes) -> list[_Step]:
        """Root-to-leaf path for ``codes`` (charged node reads)."""
        return self._descend_cached(codes, ())

    def _descend_cached(
        self, codes: KeyCodes, cache: Sequence[_Step]
    ) -> list[_Step]:
        """Root-to-leaf descent reusing the shared prefix of a prior path.

        ``cache`` is the path of the *previous* descent (a z-order
        neighbour, or this key's own path before a leaf-local retry).
        While the walk visits the same node ids in the same order, the
        cached node objects are reused without a charged
        :meth:`PageStore.read` — the batch holds its shared directory
        spine in the working set, which is exactly the amortization the
        batched executors measure.  At the first divergence the cache is
        abandoned and every node below is read (and charged) fresh.

        Anchors and entries are always recomputed from the live node
        object, so in-place node mutations (region refinement, page
        fills) never stale the cache; callers must drop the cache after
        any step that *replaces* node objects or re-roots the tree
        (``_grow_directory``, delete-side collapses).
        """
        path: list[_Step] = []
        node_id = self._store.root(self, self._root_id)
        consumed = (0,) * self._dims
        live = True
        widths = self._widths
        while True:
            depth = len(path)
            if live and depth < len(cache) and cache[depth].node_id == node_id:
                node = cache[depth].node
            else:
                live = False
                node = self._store.read(node_id)
            # _cell_index, inlined: this is the descent's inner loop and
            # the call/validation overhead is measurable at bench scale.
            depths = node.array.depths
            anchor = []
            for code, width, spent, take in zip(
                codes, widths, consumed, depths
            ):
                if spent + take > width:
                    raise StorageError(
                        f"directory wants bit {spent + take} of a "
                        f"{width}-bit component (axis {len(anchor)})"
                    )
                anchor.append(
                    (code >> (width - spent - take)) & ((1 << take) - 1)
                )
            anchor = tuple(anchor)
            entry = node.array[anchor]
            path.append(_Step(node_id, node, anchor, entry, consumed))
            if not entry.is_node:
                return path
            consumed = tuple(
                spent + taken for spent, taken in zip(consumed, entry.h)
            )
            node_id = entry.ptr

    # -- search / insert ---------------------------------------------------------

    def search(self, key: Sequence[int]) -> Any:
        codes = self._check_key(key)
        with self._store.operation():
            leaf = self._descend(codes)[-1]
            if leaf.entry.ptr is None:
                raise KeyNotFoundError(f"key {codes} not found")
            page = self._store.read(leaf.entry.ptr)
            return page.get(codes)

    def insert(self, key: Sequence[int], value: Any = None) -> None:
        codes = self._check_key(key)
        with self._store.operation():
            self._insert_once(codes, value, ())

    def _insert_once(
        self, codes: KeyCodes, value: Any, cache: Sequence[_Step]
    ) -> list[_Step]:
        """One insert with shared-prefix descent; returns the final path
        (the next batch key's cache).

        Leaf-local retries resume from the just-walked path instead of
        re-reading from the root: after :meth:`_fill_nil_region` and
        after an in-node :meth:`_split_and_refine` only node objects
        already on the path changed (in place), so the re-descent costs
        no node reads at all — physically as well as logically.  Only
        :meth:`_grow_directory` (which may replace nodes or re-root the
        tree) forces a cold re-descent.
        """
        path = self._descend_cached(codes, cache)
        while True:
            leaf = path[-1]
            entry = leaf.entry
            if entry.ptr is None:
                self._fill_nil_region(leaf)
                # Only the leaf entry changed: resume from this path.
                path = self._descend_cached(codes, path)
                continue
            page = self._store.read(entry.ptr)
            if codes in page:
                raise DuplicateKeyError(f"key {codes} already present")
            if not page.is_full:
                page.put(codes, value)
                self._store.write(entry.ptr, page)
                self._num_keys += 1
                return path
            total = [
                leaf.consumed[j] + entry.h[j] for j in range(self._dims)
            ]
            m = self._next_split_dim(entry.m, total)
            if self._refinable(leaf.node, entry, m):
                self._split_and_refine(leaf, m, total[m] + 1, page)
                # In-place node mutation: the walked path stays coherent.
                path = self._descend_cached(codes, path)
            else:
                self._grow_directory(path, m)
                path = self._descend_cached(codes, ())

    def _fill_nil_region(self, leaf: _Step) -> None:
        """Allocate storage for an unallocated region (NIL pointer)."""
        leaf.entry.ptr = self._store.allocate(DataPage(self._page_capacity))
        leaf.entry.is_node = False
        self._data_pages += 1
        self._store.write(leaf.node_id, leaf.node)

    def _refinable(self, node: Node, entry: DirEntry, axis: int) -> bool:
        """Whether the region can deepen along ``axis`` within its node."""
        if entry.h[axis] + 1 <= node.array.depths[axis]:
            return True
        return node.can_grow(axis, self._node_policy)

    def _split_and_refine(
        self, leaf: _Step, m: int, overall_depth: int, page: DataPage
    ) -> None:
        """Rehash the full page on its next bit and register the halves.
        An empty half gets a NIL pointer — the paper's immediate deletion
        of empty pages."""
        sibling = self._split_page(page, m, overall_depth)
        left_ptr: int | None = leaf.entry.ptr
        right_ptr: int | None = None
        if len(page) == 0:
            self._store.free(left_ptr)
            self._data_pages -= 1
            left_ptr = None
        else:
            self._store.write(left_ptr, page)
        if len(sibling) > 0:
            right_ptr = self._store.allocate(sibling)
            self._data_pages += 1
        self._refine_region(
            leaf.node, leaf.node_id, leaf.anchor, leaf.entry,
            m, left_ptr, right_ptr, False,
        )

    def _grow_directory(self, path: list[_Step], m: int) -> None:
        """Take one structural step so a retry brings the leaf region
        closer to refinable along ``m``.  Scheme-specific."""
        raise NotImplementedError

    def _refine_region(
        self,
        node: Node,
        node_id: int,
        anchor: tuple[int, ...],
        entry: DirEntry,
        m: int,
        left: int | None,
        right: int | None,
        children_are_nodes: bool,
    ) -> None:
        """Deepen a region along ``m`` inside one node, doubling the node
        first if the region already uses all of the node's ``m`` bits.
        One node page write, however many cells move — the tree schemes'
        key advantage over the one-level directory."""
        new_depth = entry.h[m] + 1
        if new_depth > node.array.depths[m]:
            node.array.grow_rehash(m)
            anchor = tuple(
                idx * 2 if j == m else idx for j, idx in enumerate(anchor)
            )
        depths = node.array.depths
        shift = depths[m] - new_depth
        left_entry = DirEntry(entry.h, m, left, children_are_nodes and left is not None)
        right_entry = DirEntry(entry.h, m, right, children_are_nodes and right is not None)
        left_entry.h[m] = right_entry.h[m] = new_depth
        for cell in region_indices(depths, anchor, entry.h):
            side = (cell[m] >> shift) & 1
            node.array[cell] = right_entry if side else left_entry
        self._store.write(node_id, node)

    # -- node cutting (used by the BMEH split; see DESIGN.md §4.2) -------------

    def _blank_node(self, level: int, depths: Sequence[int]) -> Node:
        axes = [axis for axis, depth in enumerate(depths) for _ in range(depth)]
        array = ExtendibleArray.from_history(self._dims, axes)
        return Node(self._dims, self._xi, level, array)

    def _cut_node(
        self, node_id: int, axis: int, consumed: tuple[int, ...]
    ) -> int:
        """Split the subtree under ``node_id`` on the next ``axis`` bit.

        The left half reuses ``node_id`` (ancestors' pointers stay
        valid); the right half is returned.  Regions that cross the cut
        plane (``h[axis] == 0``) are cut downward, K-D-B style: their
        data pages are rehashed on the cut bit, their child nodes cut
        recursively.  Heights never change, so balance is preserved.
        """
        node = self._store.read(node_id)
        depths = node.array.depths
        if depths[axis] >= 1:
            return self._cut_partition(node, node_id, axis, consumed)
        return self._cut_replicate(node, node_id, axis, consumed)

    def _cut_partition(
        self, node: Node, node_id: int, axis: int, consumed: tuple[int, ...]
    ) -> int:
        depths = node.array.depths
        target = [
            depth - (1 if j == axis else 0) for j, depth in enumerate(depths)
        ]
        left = self._blank_node(node.level, target)
        right = self._blank_node(node.level, target)
        half_mask = (1 << (depths[axis] - 1)) - 1
        moved: dict[int, DirEntry] = {}
        cut_pairs: dict[int, tuple[DirEntry, DirEntry]] = {}
        for address in range(len(node.array)):
            entry = node.array.get_at(address)
            cell = node.array.index_of(address)
            side = cell[axis] >> (depths[axis] - 1)
            new_cell = tuple(
                idx & half_mask if j == axis else idx
                for j, idx in enumerate(cell)
            )
            if entry.h[axis] >= 1:
                shallower = moved.get(id(entry))
                if shallower is None:
                    shallower = entry.clone()
                    shallower.h[axis] -= 1
                    moved[id(entry)] = shallower
                (right if side else left).array[new_cell] = shallower
            else:
                pair = cut_pairs.get(id(entry))
                if pair is None:
                    pair = self._cut_crossing_entry(entry, axis, consumed)
                    cut_pairs[id(entry)] = pair
                (right if side else left).array[new_cell] = pair[side]
        self._store.write(node_id, left)
        right_id = self._store.allocate(right)
        self._node_count += 1
        return right_id

    def _cut_replicate(
        self, node: Node, node_id: int, axis: int, consumed: tuple[int, ...]
    ) -> int:
        """Cut a node that does not address ``axis`` at all: both halves
        keep the node's full shape, every child is cut."""
        right = self._blank_node(node.level, node.array.depths)
        cut_pairs: dict[int, tuple[DirEntry, DirEntry]] = {}
        for address in range(len(node.array)):
            entry = node.array.get_at(address)
            pair = cut_pairs.get(id(entry))
            if pair is None:
                pair = self._cut_crossing_entry(entry, axis, consumed)
                cut_pairs[id(entry)] = pair
            cell = node.array.index_of(address)
            node.array[cell] = pair[0]
            right.array[cell] = pair[1]
        self._store.write(node_id, node)
        right_id = self._store.allocate(right)
        self._node_count += 1
        return right_id

    def _cut_crossing_entry(
        self, entry: DirEntry, axis: int, consumed: tuple[int, ...]
    ) -> tuple[DirEntry, DirEntry]:
        """Cut one cut-crossing region's child on the cut bit."""
        child_consumed = tuple(
            consumed[j] + entry.h[j] for j in range(self._dims)
        )
        left_ptr: int | None
        right_ptr: int | None
        if entry.ptr is None:
            left_ptr = right_ptr = None
        elif entry.is_node:
            left_ptr = entry.ptr
            right_ptr = self._cut_node(entry.ptr, axis, child_consumed)
        else:
            page = self._store.read(entry.ptr)
            sibling = self._split_page(page, axis, consumed[axis] + 1)
            left_ptr = entry.ptr
            right_ptr = None
            if len(page) == 0:
                self._store.free(entry.ptr)
                self._data_pages -= 1
                left_ptr = None
            else:
                self._store.write(entry.ptr, page)
            if len(sibling) > 0:
                right_ptr = self._store.allocate(sibling)
                self._data_pages += 1
        left_entry = DirEntry(entry.h, entry.m, left_ptr,
                              entry.is_node and left_ptr is not None)
        right_entry = DirEntry(entry.h, entry.m, right_ptr,
                               entry.is_node and right_ptr is not None)
        return left_entry, right_entry

    # -- deletion -----------------------------------------------------------------

    def delete(self, key: Sequence[int]) -> Any:
        codes = self._check_key(key)
        with self._store.operation():
            path = self._descend(codes)
            return self._delete_at(path, codes)

    def _delete_at(self, path: list[_Step], codes: KeyCodes) -> Any:
        """Remove ``codes`` at the end of an already-walked path."""
        leaf = path[-1]
        entry = leaf.entry
        if entry.ptr is None:
            raise KeyNotFoundError(f"key {codes} not found")
        page = self._store.read(entry.ptr)
        value = page.remove(codes)
        self._num_keys -= 1
        if len(page) == 0:
            # The paper's point of directory-resident local depths:
            # an emptied page is dropped immediately.
            self._store.free(entry.ptr)
            self._data_pages -= 1
            entry.ptr = None
            self._store.write(leaf.node_id, leaf.node)
        else:
            self._store.write(entry.ptr, page)
        self._merge_in_leaf(leaf.node, leaf.node_id, leaf.entry)
        self._collapse(path)
        return value

    def _merge_in_leaf(self, node: Node, node_id: int, entry: DirEntry) -> None:
        """Collapse buddy page regions inside the reached node while the
        surviving records fit one page (reversal of region refinement)."""
        while True:
            m = entry.m
            depth = entry.h[m]
            if depth == 0 or entry.is_node:
                break
            depths = node.array.depths
            anchor = self._find_anchor(node, entry)
            buddy_cell = list(anchor)
            buddy_cell[m] = anchor[m] ^ (1 << (depths[m] - depth))
            buddy = node.array[tuple(buddy_cell)]
            if (
                buddy is entry
                or buddy.is_node
                or buddy.h != entry.h
                or buddy.m != entry.m
            ):
                break
            load = sum(
                len(self._store.peek(ptr))
                for ptr in (entry.ptr, buddy.ptr)
                if ptr is not None
            )
            if load > self._page_capacity:
                break
            keep = entry.ptr
            if keep is None:
                keep = buddy.ptr
            elif buddy.ptr is not None:
                keep_page = self._store.read(keep)
                for record in self._store.read(buddy.ptr).items():
                    keep_page.put(*record)
                self._store.write(keep, keep_page)
                self._store.free(buddy.ptr)
                self._data_pages -= 1
            merged = DirEntry(entry.h, (m - 1) % self._dims, keep)
            merged.h[m] -= 1
            for cell in region_indices(depths, anchor, merged.h):
                node.array[cell] = merged
            self._store.write(node_id, node)
            self._shrink_node(node, node_id)
            entry = merged

    @staticmethod
    def _find_anchor(node: Node, entry: DirEntry) -> tuple[int, ...]:
        for address in range(len(node.array)):
            if node.array.get_at(address) is entry:
                return node.array.index_of(address)
        raise StorageError("entry not present in its node")

    def _shrink_node(self, node: Node, node_id: int) -> None:
        """Halve the node while no region uses the deepest bit of the
        most recently doubled axis."""
        while True:
            axis = node.array.last_grown_axis()
            if axis is None:
                return
            depth = node.array.depths[axis]
            if any(entry.h[axis] >= depth for entry in node.entries()):
                return
            node.array.shrink_rehash()
            self._store.write(node_id, node)

    def _collapse(self, path: list[_Step]) -> None:
        """Scheme-specific post-delete structural cleanup."""

    # -- batched operations ---------------------------------------------------------

    def insert_many(
        self, pairs: Sequence[tuple[Sequence[int], Any]]
    ) -> int:
        """Batched insert with shared-prefix descent and group commit.

        The batch is z-order-sorted, so consecutive keys share the
        deepest possible directory spine; each key's descent resumes
        from the previous key's path (:meth:`_descend_cached`) and the
        whole batch commits under one WAL durability point.  Semantics
        match the base contract: first error propagates, the z-order
        prefix before it is applied, an interrupted group rolls back.
        """
        batch = [(self._check_key(key), value) for key, value in pairs]
        batch.sort(key=lambda pair: self._zorder_key(pair[0]))
        cache: Sequence[_Step] = ()
        with self._group_commit():
            for codes, value in batch:
                with self._store.operation():
                    cache = self._insert_once(codes, value, cache)
        return len(batch)

    def search_many(self, keys: Sequence[Sequence[int]]) -> list[Any]:
        """Batched exact-match search (results in input order); probes
        run in z-order, reusing the shared directory spine between
        consecutive keys."""
        batch = [self._check_key(key) for key in keys]
        order = sorted(
            range(len(batch)), key=lambda i: self._zorder_key(batch[i])
        )
        results: list[Any] = [None] * len(batch)
        cache: Sequence[_Step] = ()
        for i in order:
            codes = batch[i]
            with self._store.operation():
                path = self._descend_cached(codes, cache)
                cache = path
                leaf = path[-1]
                if leaf.entry.ptr is None:
                    raise KeyNotFoundError(f"key {codes} not found")
                page = self._store.read(leaf.entry.ptr)
                results[i] = page.get(codes)
        return results

    def delete_many(self, keys: Sequence[Sequence[int]]) -> list[Any]:
        """Batched delete under one group commit, z-order walk order.

        The descent cache survives a delete only while the tree's shape
        did not change: page merges and entry rewrites mutate path nodes
        in place (coherent), but collapses replace node objects and may
        re-root the tree — detected via the structural counters, after
        which the next key re-descends cold.
        """
        batch = [self._check_key(key) for key in keys]
        order = sorted(
            range(len(batch)), key=lambda i: self._zorder_key(batch[i])
        )
        results: list[Any] = [None] * len(batch)
        cache: Sequence[_Step] = ()
        with self._group_commit():
            for i in order:
                codes = batch[i]
                with self._store.operation():
                    path = self._descend_cached(codes, cache)
                    shape = (self._node_count, self._data_pages, self._root_id)
                    results[i] = self._delete_at(path, codes)
                    changed = shape != (
                        self._node_count, self._data_pages, self._root_id
                    )
                    cache = () if changed else path
        return results

    # -- retrieval ------------------------------------------------------------------

    def range_search(
        self, lows: Sequence[int], highs: Sequence[int]
    ) -> Iterator[Record]:
        lows = self._check_key(lows)
        highs = self._check_key(highs)
        if any(lo > hi for lo, hi in zip(lows, highs)):
            return
        with self._store.operation():
            for ptr, task_lows, task_highs in self._leaf_tasks(lows, highs):
                page = self._store.read(ptr)
                for codes, value in page.items():
                    if all(
                        task_lows[j] <= codes[j] <= task_highs[j]
                        for j in range(self._dims)
                    ):
                        yield codes, value

    def _leaf_tasks(
        self, lows: KeyCodes, highs: KeyCodes
    ) -> Iterator[tuple[int, KeyCodes, KeyCodes]]:
        """Decompose a range query into independent per-page scan tasks.

        Yields ``(page_id, lows, highs)`` for every allocated leaf
        region overlapping the query box — the covering cells of the
        paper's PRG_Search — walking the directory with charged node
        reads.  Each task is self-contained: read the page, emit the
        records inside its bounds.  The serial :meth:`range_search`
        consumes them inline; the parallel executor
        (:func:`repro.core.rangequery.scan_parallel`) fans them across a
        thread pool.  Every page id appears at most once (a leaf region
        owns its page exclusively), so tasks commute and a merge in task
        order is deterministic.
        """
        yield from self._leaf_tasks_node(
            self._store.root(self, self._root_id), (0,) * self._dims,
            lows, highs,
        )

    def _leaf_tasks_node(
        self,
        node_id: int,
        consumed: tuple[int, ...],
        lows: KeyCodes,
        highs: KeyCodes,
    ) -> Iterator[tuple[int, KeyCodes, KeyCodes]]:
        """The paper's PRG_Search: visit every cell overlapping the query
        box, descending once per region.

        Invariant: the first ``consumed[j]`` bits of ``lows``/``highs``
        equal this node's path prefix, so the node's cell window comes
        straight out of :meth:`_cell_index`.  Before descending into a
        region the bounds are *clamped to the region*: a dimension on
        which the region sits strictly inside the box relaxes to the
        region's own edge — the detail the paper's pseudocode leaves to
        its final predicate re-check.  Leaf regions are yielded with the
        *unclamped* node-level bounds: a wide region reached through any
        of its cells may lie outside the box, and the per-record filter
        handles that exactly as the paper's final predicate does.
        """
        node = self._store.read(node_id)
        depths = node.array.depths
        low_cell = self._cell_index(lows, consumed, depths)
        high_cell = self._cell_index(highs, consumed, depths)
        spans = [
            range(low_cell[j], high_cell[j] + 1) for j in range(self._dims)
        ]
        seen_regions: set[int] = set()
        for cell in itertools.product(*spans):
            entry = node.array[cell]
            if id(entry) in seen_regions or entry.ptr is None:
                seen_regions.add(id(entry))
                continue
            seen_regions.add(id(entry))
            if entry.is_node:
                bounds = self._clamp_to_region(
                    node, cell, entry, consumed, lows, highs
                )
                if bounds is None:
                    continue
                child_lows, child_highs = bounds
                child_consumed = tuple(
                    consumed[j] + entry.h[j] for j in range(self._dims)
                )
                yield from self._leaf_tasks_node(
                    entry.ptr, child_consumed, child_lows, child_highs
                )
            else:
                yield entry.ptr, lows, highs

    def _clamp_to_region(
        self,
        node: Node,
        cell: tuple[int, ...],
        entry: DirEntry,
        consumed: tuple[int, ...],
        lows: KeyCodes,
        highs: KeyCodes,
    ) -> tuple[KeyCodes, KeyCodes] | None:
        """Intersect the query box with a region's key-space rectangle.

        Returns clamped (lows, highs) full codes, or None when the region
        lies outside the box on some dimension (possible because a wide
        region is reached through any of its cells)."""
        depths = node.array.depths
        new_lows = list(lows)
        new_highs = list(highs)
        for j in range(self._dims):
            width = self._widths[j]
            rest = width - consumed[j] - entry.h[j]
            region_bits = cell[j] >> (depths[j] - entry.h[j])
            path_bits = (lows[j] >> (width - consumed[j])) if consumed[j] else 0
            full_prefix = (path_bits << entry.h[j]) | region_bits
            region_low = full_prefix << rest
            region_high = region_low | low_mask(rest)
            if region_high < lows[j] or region_low > highs[j]:
                return None
            new_lows[j] = max(lows[j], region_low)
            new_highs[j] = min(highs[j], region_high)
        return tuple(new_lows), tuple(new_highs)

    def items(self) -> Iterator[Record]:
        with self._store.operation():
            yield from self._items_under(
                self._store.root(self, self._root_id)
            )

    def _items_under(self, node_id: int) -> Iterator[Record]:
        node = self._store.read(node_id)
        for entry in node.entries():
            if entry.ptr is None:
                continue
            if entry.is_node:
                yield from self._items_under(entry.ptr)
            else:
                yield from self._store.read(entry.ptr).items()

    def leaf_regions(self) -> Iterator[LeafRegion]:
        yield from self._leaf_regions_under(
            self._root_id, (0,) * self._dims, (0,) * self._dims
        )

    def _leaf_regions_under(
        self,
        node_id: int,
        consumed: tuple[int, ...],
        prefix: tuple[int, ...],
    ) -> Iterator[LeafRegion]:
        node = self._store.peek(node_id)
        depths = node.array.depths
        seen: set[int] = set()
        for address in range(len(node.array)):
            entry = node.array.get_at(address)
            if id(entry) in seen:
                continue
            seen.add(id(entry))
            anchor = node.array.index_of(address)
            child_consumed = tuple(
                consumed[j] + entry.h[j] for j in range(self._dims)
            )
            child_prefix = tuple(
                (prefix[j] << entry.h[j])
                | (anchor[j] >> (depths[j] - entry.h[j]))
                for j in range(self._dims)
            )
            if entry.is_node:
                yield from self._leaf_regions_under(
                    entry.ptr, child_consumed, child_prefix
                )
            else:
                yield LeafRegion(child_prefix, child_consumed, entry.ptr)

    # -- invariants -------------------------------------------------------------------

    def check_invariants(self) -> None:
        seen_pages: dict[int, int] = {}
        seen_nodes: set[int] = set()
        counted = self._check_node(
            self._root_id,
            (0,) * self._dims,
            (0,) * self._dims,
            seen_pages,
            seen_nodes,
        )
        assert counted == self._num_keys, (
            f"counted {counted} keys, recorded {self._num_keys}"
        )
        assert len(seen_pages) == self._data_pages, (
            f"{len(seen_pages)} pages reachable, {self._data_pages} recorded"
        )
        assert len(seen_nodes) == self._node_count, (
            f"{len(seen_nodes)} nodes reachable, {self._node_count} recorded"
        )

    def _check_node(
        self,
        node_id: int,
        consumed: tuple[int, ...],
        prefix: tuple[int, ...],
        seen_pages: dict[int, int],
        seen_nodes: set[int],
    ) -> int:
        assert node_id not in seen_nodes, f"node {node_id} reached twice"
        seen_nodes.add(node_id)
        node = self._store.peek(node_id)
        depths = node.array.depths
        assert len(node.array) <= node.capacity, "node exceeds its slots"
        for j in range(self._dims):
            assert consumed[j] + depths[j] <= self._widths[j], (
                f"node {node_id} addresses past width on axis {j}"
            )
        total = 0
        seen_regions: set[int] = set()
        for address in range(len(node.array)):
            entry = node.array.get_at(address)
            assert entry is not None, f"hole in node {node_id}"
            anchor = node.array.index_of(address)
            for j in range(self._dims):
                assert 0 <= entry.h[j] <= depths[j], (
                    f"entry depth {entry.h[j]} vs node depth {depths[j]}"
                )
            if id(entry) in seen_regions:
                continue
            seen_regions.add(id(entry))
            for cell in region_indices(depths, anchor, entry.h):
                assert node.array[cell] is entry, (
                    f"region not uniform in node {node_id} at {cell}"
                )
            child_consumed = tuple(
                consumed[j] + entry.h[j] for j in range(self._dims)
            )
            child_prefix = tuple(
                (prefix[j] << entry.h[j])
                | (anchor[j] >> (depths[j] - entry.h[j]))
                for j in range(self._dims)
            )
            if entry.ptr is None:
                assert not entry.is_node, "a NIL pointer cannot be a node"
                continue
            if entry.is_node:
                self._check_child_level(node, self._store.peek(entry.ptr))
                total += self._check_node(
                    entry.ptr, child_consumed, child_prefix,
                    seen_pages, seen_nodes,
                )
            else:
                owner = seen_pages.setdefault(entry.ptr, id(entry))
                assert owner == id(entry), (
                    f"page {entry.ptr} shared by two regions"
                )
                page = self._store.peek(entry.ptr)
                assert 0 < len(page) <= self._page_capacity, (
                    "page empty or overflowing"
                )
                total += len(page)
                for codes in page.keys():
                    for j in range(self._dims):
                        spent = child_consumed[j]
                        got = codes[j] >> (self._widths[j] - spent)
                        assert got == child_prefix[j], (
                            f"key {codes} violates prefix on axis {j} "
                            f"in page {entry.ptr}"
                        )
        return total

    def _check_child_level(self, parent: Node, child: Node) -> None:
        """Scheme-specific level relationship between parent and child."""
