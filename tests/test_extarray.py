"""Tests for Theorem 1's mapping and the extendible array."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.extarray import ExtendibleArray, theorem1_address, theorem1_index


class TestTheorem1Mapping:
    def test_origin(self):
        assert theorem1_address((0, 0)) == 0
        assert theorem1_address((0, 0, 0)) == 0

    def test_paper_figure2_layout(self):
        """The 4x4 grid printed in the paper's Figure 2 (§2.1)."""
        figure2 = {
            (0, 0): 0, (0, 1): 2, (0, 2): 8, (0, 3): 12,
            (1, 0): 1, (1, 1): 3, (1, 2): 9, (1, 3): 13,
            (2, 0): 4, (2, 1): 5, (2, 2): 10, (2, 3): 14,
            (3, 0): 6, (3, 1): 7, (3, 2): 11, (3, 3): 15,
        }
        for index, address in figure2.items():
            assert theorem1_address(index) == address, index
            assert theorem1_index(address, 2) == index, address

    def test_one_dimension_is_identity(self):
        for i in range(64):
            assert theorem1_address((i,)) == i

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            theorem1_address((-1, 0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            theorem1_address((1, 2), dims=3)

    def test_index_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theorem1_index(-1, 2)
        with pytest.raises(ValueError):
            theorem1_index(0, 0)

    @given(st.integers(0, 2**12), st.integers(1, 4))
    def test_bijection(self, address, dims):
        assert theorem1_address(theorem1_index(address, dims)) == address

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(*([st.integers(0, 63)] * d))
        )
    )
    def test_inverse(self, index):
        address = theorem1_address(index)
        assert theorem1_index(address, len(index)) == index

    def test_cyclic_growth_is_dense(self):
        """After any cyclic-doubling prefix, addresses are exactly 0..S-1."""
        for d in (1, 2, 3):
            shape = [1] * d
            for step in range(2 * d + d):
                shape[step % d] *= 2
                cells = sorted(
                    theorem1_address(i)
                    for i in itertools.product(*(range(e) for e in shape))
                )
                size = 1
                for e in shape:
                    size *= e
                assert cells == list(range(size))


class TestExtendibleArray:
    def test_initial_state(self):
        arr = ExtendibleArray(2, fill="x")
        assert len(arr) == 1
        assert arr.shape == (1, 1)
        assert arr[(0, 0)] == "x"

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            ExtendibleArray(0)

    def test_grow_matches_theorem1_under_cyclic_order(self):
        arr = ExtendibleArray(3)
        for step in range(9):
            arr.grow(step % 3)
        for index in itertools.product(*(range(e) for e in arr.shape)):
            assert arr.address(index) == theorem1_address(index)

    def test_grow_keeps_addresses_stable(self):
        arr = ExtendibleArray(2)
        arr.grow(0)
        arr.grow(1)
        before = {i: arr.address(i) for i in itertools.product(range(2), range(2))}
        arr.grow(0)
        for index, address in before.items():
            assert arr.address(index) == address

    def test_grow_copies_buddy(self):
        arr = ExtendibleArray(2, fill="seed")
        arr.grow(0)
        assert arr[(1, 0)] == "seed"
        arr[(1, 0)] = "other"
        arr.grow(1)
        assert arr[(0, 1)] == "seed"
        assert arr[(1, 1)] == "other"

    def test_grow_with_clone(self):
        arr = ExtendibleArray(1, fill=[1])
        arr.grow(0, clone=list)
        assert arr[(1,)] == [1]
        assert arr[(1,)] is not arr[(0,)]

    def test_grow_bad_axis(self):
        with pytest.raises(ValueError):
            ExtendibleArray(2).grow(2)

    def test_address_bounds_checked(self):
        arr = ExtendibleArray(2)
        with pytest.raises(IndexError):
            arr.address((1, 0))
        with pytest.raises(IndexError):
            arr.address((0,))

    def test_index_of_bounds_checked(self):
        with pytest.raises(IndexError):
            ExtendibleArray(2).index_of(1)

    def test_shrink_reverses_grow(self):
        arr = ExtendibleArray(2, fill=0)
        arr.grow(0)
        arr.grow(1)
        assert arr.shrink() == 1
        assert arr.shape == (2, 1)
        assert arr.shrink() == 0
        assert arr.shape == (1, 1)
        with pytest.raises(ValueError):
            arr.shrink()

    def test_last_grown_axis(self):
        arr = ExtendibleArray(2)
        assert arr.last_grown_axis() is None
        arr.grow(1)
        assert arr.last_grown_axis() == 1

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    def test_arbitrary_history_bijective(self, axes):
        arr = ExtendibleArray(3)
        for axis in axes:
            arr.grow(axis)
        addresses = sorted(
            arr.address(i) for i in itertools.product(*(range(e) for e in arr.shape))
        )
        assert addresses == list(range(len(arr)))
        for address in addresses:
            assert arr.address(arr.index_of(address)) == address


class TestRehashGrowth:
    """Prefix-semantics doubling (directory behaviour)."""

    def test_grow_rehash_duplicates_parent(self):
        arr = ExtendibleArray(1, fill=None)
        arr.set_at(0, "root")
        arr.grow_rehash(0)
        assert arr[(0,)] == "root" and arr[(1,)] == "root"

    def test_grow_rehash_splits_meaning(self):
        arr = ExtendibleArray(1)
        arr.set_at(0, "all")
        arr.grow_rehash(0)
        arr[(0,)] = "low"
        arr[(1,)] = "high"
        arr.grow_rehash(0)
        # new cell i inherits old cell i >> 1
        assert arr[(0,)] == "low" and arr[(1,)] == "low"
        assert arr[(2,)] == "high" and arr[(3,)] == "high"

    def test_grow_rehash_multidimensional(self):
        arr = ExtendibleArray(2)
        arr.set_at(0, "o")
        arr.grow_rehash(0)
        arr[(1, 0)] = "b"
        arr.grow_rehash(1)
        assert arr[(0, 0)] == "o" and arr[(0, 1)] == "o"
        assert arr[(1, 0)] == "b" and arr[(1, 1)] == "b"

    def test_shrink_rehash_reverses(self):
        arr = ExtendibleArray(2)
        arr.set_at(0, "o")
        arr.grow_rehash(0)
        arr[(1, 0)] = "b"
        snapshot = {i: arr[i] for i in itertools.product(range(2), range(1))}
        arr.grow_rehash(1)
        assert arr.shrink_rehash() == 1
        for index, value in snapshot.items():
            assert arr[index] == value

    def test_shrink_rehash_empty_rejected(self):
        with pytest.raises(ValueError):
            ExtendibleArray(2).shrink_rehash()

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=7))
    def test_rehash_model_property(self, axes):
        """grow_rehash must behave like a prefix-tree relabelling."""
        arr = ExtendibleArray(2)
        arr.set_at(0, ())
        model = {(0, 0): ()}
        depths = [0, 0]
        for axis in axes:
            arr.grow_rehash(axis)
            depths[axis] += 1
            model = {
                idx: model[
                    tuple(c >> 1 if j == axis else c for j, c in enumerate(idx))
                ]
                for idx in itertools.product(*(range(1 << h) for h in depths))
            }
        for idx, want in model.items():
            assert arr[idx] == want


class TestSharedLayouts:
    """Addressing tables are interned per doubling history."""

    def test_same_history_shares_one_layout(self):
        a, b = ExtendibleArray(2), ExtendibleArray(2)
        for arr in (a, b):
            arr.grow(0)
            arr.grow_rehash(1)
        assert a.layout is b.layout
        assert ExtendibleArray.from_history(2, [0, 1]).layout is a.layout
        assert ExtendibleArray(2).layout is not a.layout

    def test_growing_one_array_leaves_its_former_sharers_alone(self):
        a, b = ExtendibleArray(2, fill=0), ExtendibleArray(2, fill=0)
        for arr in (a, b):
            arr.grow(0)
            arr.grow(1)
        shared = b.layout
        mapping = {address: b.index_of(address) for address in range(len(b))}
        a.grow(1)
        a.grow_rehash(0)
        a.shrink_rehash()
        a.grow(0)
        a.shrink()
        a.shrink()
        a.shrink()
        assert b.layout is shared
        assert b.depths == (1, 1) and len(shared.indices) == 4
        for address, index in mapping.items():
            assert b.index_of(address) == index
            assert b.address(index) == address
        with pytest.raises(IndexError):
            b.address((0, 2))

    def test_from_history_matches_replayed_growth(self):
        axes = [1, 0, 0, 1, 2, 0]
        replayed = ExtendibleArray(3)
        for axis in axes:
            replayed.grow(axis)
        direct = ExtendibleArray.from_history(3, axes)
        assert direct.depths == replayed.depths
        assert direct.history() == replayed.history()
        assert list(direct.indices()) == list(replayed.indices())
        assert list(direct.cells()) == [None] * 64

    def test_from_history_validation(self):
        with pytest.raises(ValueError):
            ExtendibleArray.from_history(2, [0, 2])
        with pytest.raises(ValueError):
            ExtendibleArray.from_history(0, [])
        with pytest.raises(ValueError):
            ExtendibleArray.from_history(2, [0], cells=[1, 2, 3])
        arr = ExtendibleArray.from_history(1, [0], cells=["a", "b"])
        assert arr[(1,)] == "b"

    def test_copy_shares_layout_and_clones_each_value_once(self):
        arr = ExtendibleArray(1, fill=[0])
        arr.grow(0)  # both cells hold the same list
        arr.grow(0, clone=list)
        twin = arr.copy(clone=list)
        assert twin.layout is arr.layout
        for address in range(len(arr)):
            assert twin.get_at(address) == arr.get_at(address)
            assert twin.get_at(address) is not arr.get_at(address)
        assert twin.get_at(0) is twin.get_at(1)
        assert twin.get_at(2) is not twin.get_at(0)
        twin.grow(0)
        assert arr.depths == (2,)

    def test_dropped_one_level_directory_frees_its_tables(self):
        import gc
        import random
        import weakref

        from repro.core.mdeh import MDEH
        from repro.errors import DuplicateKeyError

        rng = random.Random(7)
        index = MDEH(3, page_capacity=2, widths=16)
        refs = []
        for i in range(400):
            key = tuple(rng.randrange(1 << 16) for _ in range(3))
            try:
                index.insert(key, i)
            except DuplicateKeyError:
                continue
            layout = index._dir.layout
            if len(layout.axes) >= 6:  # only shapes no other test builds
                refs.append(weakref.ref(layout))
        assert len(index._dir) >= 1 << 8 and refs
        del index, layout
        gc.collect()
        assert all(ref() is None for ref in refs)
