"""Unit tests for data pages."""

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage import DataPage


class TestDataPage:
    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            DataPage(0)

    def test_put_get(self):
        page = DataPage(4)
        page.put((1, 2), "a")
        assert page.get((1, 2)) == "a"
        assert (1, 2) in page
        assert len(page) == 1

    def test_get_missing(self):
        with pytest.raises(KeyNotFoundError):
            DataPage(4).get((9, 9))

    def test_duplicate_rejected(self):
        page = DataPage(4)
        page.put((1,), "a")
        with pytest.raises(DuplicateKeyError):
            page.put((1,), "b")
        assert page.get((1,)) == "a"

    def test_replace_flag(self):
        page = DataPage(4)
        page.put((1,), "a")
        page.put((1,), "b", replace=True)
        assert page.get((1,)) == "b"

    def test_overflow_rejected(self):
        page = DataPage(2)
        page.put((1,), None)
        page.put((2,), None)
        assert page.is_full
        with pytest.raises(StorageError):
            page.put((3,), None)

    def test_replace_on_full_page_is_fine(self):
        page = DataPage(1)
        page.put((1,), "a")
        page.put((1,), "b", replace=True)
        assert len(page) == 1

    def test_remove(self):
        page = DataPage(4)
        page.put((1,), "a")
        assert page.remove((1,)) == "a"
        assert (1,) not in page
        with pytest.raises(KeyNotFoundError):
            page.remove((1,))

    def test_take_all_drains(self):
        page = DataPage(4)
        page.put((1,), "a")
        page.put((2,), "b")
        drained = page.take_all()
        assert drained == {(1,): "a", (2,): "b"}
        assert len(page) == 0

    def test_items_and_keys(self):
        page = DataPage(4)
        page.put((1,), "a")
        page.put((2,), "b")
        assert dict(page.items()) == {(1,): "a", (2,): "b"}
        assert sorted(page.keys()) == [(1,), (2,)]


class TestDataPageCopy:
    def build(self):
        page = DataPage(4)
        page.put((1, 1), "a")
        page.put((2, 2), 7)
        page.put((3, 3), [1, 2])
        return page

    def test_copy_is_isolated_from_put_remove_and_take_all(self):
        page = self.build()
        twin = page.copy()
        page.put((4, 4), "new")
        page.remove((1, 1))
        page.put((2, 2), 8, replace=True)
        assert dict(twin.items()) == {(1, 1): "a", (2, 2): 7, (3, 3): [1, 2]}
        page.take_all()
        assert len(twin) == 3 and twin.capacity == 4
        twin.put((5, 5), "t")
        assert len(page) == 0

    def test_immutable_values_shared_mutable_values_copied(self):
        page = self.build()
        twin = page.copy()
        assert twin.get((1, 1)) is page.get((1, 1))
        assert twin.get((3, 3)) == [1, 2]
        assert twin.get((3, 3)) is not page.get((3, 3))
        page.get((3, 3)).append(3)
        assert twin.get((3, 3)) == [1, 2]

    def test_aliasing_between_records_is_kept(self):
        import copy

        shared = {"x": 1}
        page = DataPage(4)
        page.put((1,), shared)
        page.put((2,), shared)
        twin = copy.deepcopy(page)
        assert twin.get((1,)) is twin.get((2,))
        assert twin.get((1,)) is not shared
