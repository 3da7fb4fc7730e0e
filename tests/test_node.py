"""Tests for directory nodes (bounded extendible arrays)."""

import pytest

from repro.core.directory import DirEntry
from repro.core.node import Node


class TestNode:
    def test_capacity_is_two_to_phi(self):
        node = Node(2, (3, 3), level=1)
        assert node.phi == 6
        assert node.capacity == 64

    def test_level_validation(self):
        with pytest.raises(ValueError):
            Node(2, (3, 3), level=0)

    def test_xi_arity_validation(self):
        with pytest.raises(ValueError):
            Node(2, (3,), level=1)

    def test_can_grow_total_until_full(self):
        node = Node(2, (1, 1), level=1)  # capacity 4
        assert node.can_grow_total()
        node.array.grow(0)
        assert node.can_grow_total()
        node.array.grow(1)
        assert not node.can_grow_total()

    def test_can_grow_per_dim_respects_xi(self):
        node = Node(2, (2, 1), level=1)  # capacity 8
        node.array.grow(1)
        assert not node.can_grow(1, "per_dim")  # axis 1 hit xi=1
        assert node.can_grow(0, "per_dim")
        assert node.can_grow(1, "total")  # slots still available

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            Node(2, (1, 1), level=1).can_grow(0, "whatever")

    def test_entries_dedupe_shared_objects(self):
        node = Node(2, (2, 2), level=1)
        node.array.grow(0)
        shared = DirEntry([0, 0], 0, None)
        node.array[(0, 0)] = shared
        node.array[(1, 0)] = shared
        assert len(list(node.entries())) == 1

    def test_entries_skip_holes(self):
        node = Node(2, (2, 2), level=1)
        assert list(node.entries()) == []

    def test_depths_follow_array(self):
        node = Node(3, (2, 2, 2), level=1)
        node.array.grow(2)
        assert node.depths == (0, 0, 1)


class TestNodeCopy:
    def build(self):
        node = Node(2, (2, 2), level=3)
        node.array.set_at(0, DirEntry([0, 0], 1, 7))
        node.array.grow(0)  # the new cell shares its buddy's entry
        node.array.grow(1)
        node.array[(1, 1)] = DirEntry([1, 1], 1, 9, True)
        return node

    def test_copy_shares_no_entry_and_keeps_buddy_sharing(self):
        node = self.build()
        twin = node.copy()
        assert (twin.level, twin.xi, twin.depths) == (3, (2, 2), (1, 1))
        assert twin.array.layout is node.array.layout
        live = {id(entry) for entry in node.entries()}
        assert not live & {id(entry) for entry in twin.entries()}
        cells = list(twin.array.cells())
        assert cells[0] is cells[1] is cells[2]  # one region, three cells
        assert cells[3] is not cells[0]
        assert [(c.h, c.m, c.ptr, c.is_node) for c in cells] == [
            (c.h, c.m, c.ptr, c.is_node) for c in node.array.cells()
        ]

    def test_writer_mutations_do_not_reach_the_copy(self):
        node = self.build()
        twin = node.copy()
        node.array.get_at(0).h[0] = 5
        node.array.get_at(0).ptr = 99
        node.array[(1, 1)] = DirEntry([1, 1], 0, 10)
        node.array.grow_rehash(0)
        assert twin.depths == (1, 1)
        assert twin.array.get_at(0).h == [0, 0]
        assert twin.array.get_at(0).ptr == 7
        assert twin.array[(1, 1)].ptr == 9

    def test_deepcopy_uses_the_type_aware_copy(self):
        import copy

        node = self.build()
        twin = copy.deepcopy(node)
        assert twin.array.layout is node.array.layout
        cells = list(twin.array.cells())
        assert cells[0] is cells[1] and cells[0] is not node.array.get_at(0)
