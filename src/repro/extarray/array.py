"""A growable d-dimensional array with stable linear addresses.

Generalizes Theorem 1 to an *arbitrary* doubling history: the hashing
directories double along whichever axis an overflowing region demands, so
the cyclic-order closed form does not always apply.  Addressing depends
only on the doubling history (the sequence of grown axes), so the
index<->address tables are built once per history and shared by every
array with that history.  When the history happens to be cyclic the
addresses coincide with :func:`theorem1_address` — a property the test
suite checks.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Callable, Iterator, Sequence


class _Layout:
    """The immutable index<->address tables of one doubling history.

    Addressing depends only on ``dims`` and the sequence of grown axes,
    so every array with that history shares one layout: ``address`` and
    ``index_of`` are a dict and a tuple lookup.  A layout is never
    mutated after construction; growth and shrinkage switch an array to
    the layout of its new history.
    """

    __slots__ = ("axes", "history", "depths", "indices", "addresses", "__weakref__")

    def __init__(
        self,
        axes: tuple[int, ...],
        history: tuple[tuple[int, tuple[int, ...]], ...],
        depths: tuple[int, ...],
        indices: tuple[tuple[int, ...], ...],
    ) -> None:
        self.axes = axes
        #: Per growth step: (axis, depth vector before the step).
        self.history = history
        self.depths = depths
        #: Index tuple of each linear address.
        self.indices = indices
        self.addresses = dict(zip(indices, itertools.count()))


#: Interned layouts by ``(dims, axes)``.  Weak values: a layout lives
#: only while some array uses it, so the old shapes of a large one-level
#: directory are not retained after it doubles.
_LAYOUTS: "weakref.WeakValueDictionary[tuple[int, tuple[int, ...]], _Layout]" = (
    weakref.WeakValueDictionary()
)


def _block(
    axis: int, before: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Index tuples of the cells one doubling along ``axis`` appends, in
    address order: the new ``axis`` coordinate is the most significant
    digit, the other axes follow row-major (last axis fastest)."""
    top = 1 << before[axis]
    others = [range(1 << h) for j, h in enumerate(before) if j != axis]
    for k in range(top, 2 * top):
        head = (k,)
        for rest in itertools.product(*others):
            yield rest[:axis] + head + rest[axis:]


def _layout_for(
    dims: int, axes: tuple[int, ...], base: _Layout | None = None
) -> _Layout:
    """The interned layout of history ``axes``.

    ``base`` — the layout of a prefix or of an extension of ``axes`` —
    saves rebuilding the part the two histories have in common.
    """
    key = (dims, axes)
    layout = _LAYOUTS.get(key)
    if layout is not None:
        return layout
    steps = len(axes)
    if base is not None and len(base.axes) > steps:
        # A shrink: the shorter history's tables are a prefix.
        layout = _Layout(
            axes,
            base.history[:steps],
            base.history[steps][1],
            base.indices[: 1 << steps],
        )
    else:
        if base is None:
            history: list[tuple[int, tuple[int, ...]]] = []
            indices: list[tuple[int, ...]] = [(0,) * dims]
            depths = [0] * dims
        else:
            history = list(base.history)
            indices = list(base.indices)
            depths = list(base.depths)
        for axis in axes[len(history) :]:
            before = tuple(depths)
            history.append((axis, before))
            indices.extend(_block(axis, before))
            depths[axis] += 1
        layout = _Layout(axes, tuple(history), tuple(depths), tuple(indices))
    _LAYOUTS[key] = layout
    return layout


class ExtendibleArray:
    """Flat storage addressed by d-tuples; doubling appends, never moves.

    The total cell count doubles with every growth step, so after ``t``
    steps the array holds ``2^t`` cells and the block created by step
    ``t`` occupies addresses ``[2^t, 2^{t+1})``.
    """

    __slots__ = ("_dims", "_cells", "_layout")

    def __init__(self, dims: int, fill: Any = None) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        self._dims = dims
        self._cells: list[Any] = [fill]
        self._layout = _layout_for(dims, ())

    @classmethod
    def from_history(
        cls,
        dims: int,
        axes: Sequence[int],
        cells: list[Any] | None = None,
    ) -> "ExtendibleArray":
        """An array with doubling history ``axes``, built in O(cells).

        ``cells`` (adopted, not copied) must hold ``2^len(axes)`` values
        in address order; by default every cell is ``None``.  Nothing is
        replayed: the addressing tables come straight from the history.
        """
        if dims < 1:
            raise ValueError("dims must be positive")
        axes = tuple(axes)
        for axis in axes:
            if not 0 <= axis < dims:
                raise ValueError(f"axis {axis} outside [0, {dims})")
        size = 1 << len(axes)
        if cells is None:
            cells = [None] * size
        elif len(cells) != size:
            raise ValueError(
                f"{len(cells)} cells for a {len(axes)}-step history "
                f"(needs {size})"
            )
        array = cls.__new__(cls)
        array._dims = dims
        array._cells = cells
        array._layout = _layout_for(dims, axes)
        return array

    def copy(self, clone: Callable[[Any], Any]) -> "ExtendibleArray":
        """A new array over the same (shared, immutable) addressing tables.

        ``clone`` maps each distinct cell value to its copy once, so cells
        that shared one object share its copy; ``None`` cells stay
        ``None``.
        """
        twin = ExtendibleArray.__new__(ExtendibleArray)
        twin._dims = self._dims
        twin._layout = self._layout
        copies: dict[int, Any] = {id(None): None}
        cells = []
        for cell in self._cells:
            key = id(cell)
            if key not in copies:
                copies[key] = clone(cell)
            cells.append(copies[key])
        twin._cells = cells
        return twin

    # -- shape ---------------------------------------------------------------

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def depths(self) -> tuple[int, ...]:
        """Current per-axis doubling counts (extent of axis j = 2^depths[j])."""
        return self._layout.depths

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(1 << h for h in self._layout.depths)

    @property
    def layout(self) -> _Layout:
        """The shared addressing tables of this array's history."""
        return self._layout

    def __len__(self) -> int:
        return len(self._cells)

    # -- addressing ----------------------------------------------------------

    def address(self, index: Sequence[int]) -> int:
        """Linear address of a cell; raises IndexError when out of range.

        This is the innermost call of every directory descent: one dict
        lookup in the shared layout.
        """
        found = self._layout.addresses.get(
            index if type(index) is tuple else tuple(index)
        )
        if found is not None:
            return found
        # Not a valid index: re-derive the precise complaint.
        if len(index) != self._dims:
            raise IndexError(f"index {index!r} is not a {self._dims}-tuple")
        depths = self._layout.depths
        for j, i in enumerate(index):
            if not 0 <= i < (1 << depths[j]):
                raise IndexError(
                    f"coordinate {i} outside [0, {1 << depths[j]}) "
                    f"on axis {j}"
                )
        raise IndexError(f"index {index!r} is not addressable")

    def index_of(self, address: int) -> tuple[int, ...]:
        """Inverse of :meth:`address`."""
        if not 0 <= address < len(self._cells):
            raise IndexError(f"address {address} outside [0, {len(self._cells)})")
        return self._layout.indices[address]

    # -- access ---------------------------------------------------------------

    def __getitem__(self, index: Sequence[int]) -> Any:
        return self._cells[self.address(index)]

    def __setitem__(self, index: Sequence[int], value: Any) -> None:
        self._cells[self.address(index)] = value

    def get_at(self, address: int) -> Any:
        return self._cells[address]

    def set_at(self, address: int, value: Any) -> None:
        self._cells[address] = value

    def cells(self) -> Iterator[Any]:
        return iter(self._cells)

    def indices(self) -> Iterator[tuple[int, ...]]:
        """All valid index tuples, in address order."""
        return iter(self._layout.indices)

    # -- growth ----------------------------------------------------------------

    def _grown_layout(self, axis: int) -> _Layout:
        if not 0 <= axis < self._dims:
            raise ValueError(f"axis {axis} outside [0, {self._dims})")
        layout = self._layout
        return _layout_for(self._dims, layout.axes + (axis,), layout)

    def grow(
        self, axis: int, clone: Callable[[Any], Any] | None = None
    ) -> range:
        """Double the array along ``axis``.

        Every new cell is initialized from its *buddy* — the cell whose
        coordinates are identical except that the top bit of the ``axis``
        coordinate is cleared.  This is exactly the extendible-hashing
        doubling rule: new directory cells start by sharing their buddy's
        entry.  ``clone`` post-processes the buddy value (deep-copying
        mutable entries); the default shares the reference.

        Returns the range of newly created linear addresses.
        """
        layout = self._grown_layout(axis)
        cells = self._cells
        old_size = len(cells)
        top = 1 << self._layout.depths[axis]
        addresses = layout.addresses  # old-shape tuples keep their address
        for index in layout.indices[old_size:]:
            buddy = cells[
                addresses[index[:axis] + (index[axis] - top,) + index[axis + 1 :]]
            ]
            cells.append(buddy if clone is None else clone(buddy))
        self._layout = layout
        return range(old_size, 2 * old_size)

    def grow_rehash(self, axis: int) -> None:
        """Double along ``axis`` under *prefix* (directory) semantics.

        The hashing directories interpret coordinate ``i_j`` as the first
        ``depths[j]`` bits of a key component (the paper's ``g``), so when
        an axis deepens every cell's meaning gains a low-order bit: the
        cell at new coordinate ``i`` inherits the content of old
        coordinate ``i >> 1`` on that axis.  Unlike :meth:`grow` this
        touches the whole array — which is precisely the classic
        extendible-hashing directory-doubling cost the paper's
        hierarchical design exists to avoid.
        """
        layout = self._grown_layout(axis)
        old_values = self._cells
        addresses = layout.addresses  # old-shape tuples keep their address
        self._cells = [
            old_values[
                addresses[index[:axis] + (index[axis] >> 1,) + index[axis + 1 :]]
            ]
            for index in layout.indices
        ]
        self._layout = layout

    def shrink_rehash(self) -> int:
        """Undo the most recent :meth:`grow_rehash`.

        The halved axis loses its low-order addressing bit, collapsing
        coordinate pairs ``(2k, 2k+1)``; the caller must have ensured each
        pair holds the same content (every region's local depth below the
        global depth).  Returns the halved axis.
        """
        old = self._layout
        if not old.axes:
            raise ValueError("cannot shrink a single-cell array")
        axis = old.axes[-1]
        layout = _layout_for(self._dims, old.axes[:-1], old)
        old_values = self._cells
        addresses = old.addresses
        # Keep only the even coordinate of each collapsed pair.
        self._cells = [
            old_values[
                addresses[index[:axis] + (index[axis] << 1,) + index[axis + 1 :]]
            ]
            for index in layout.indices
        ]
        self._layout = layout
        return axis

    def shrink(self) -> int:
        """Undo the most recent :meth:`grow` (LIFO, like the paper's
        deletion process which strictly reverses insertion).

        The upper half of the address space — the block the last doubling
        appended — is discarded; the caller must have ensured those cells
        are redundant copies of their buddies.  Returns the axis that was
        halved.
        """
        old = self._layout
        if not old.axes:
            raise ValueError("cannot shrink a single-cell array")
        self._layout = _layout_for(self._dims, old.axes[:-1], old)
        del self._cells[len(self._cells) // 2 :]
        return old.axes[-1]

    def last_grown_axis(self) -> int | None:
        """Axis of the most recent doubling (None for a fresh array)."""
        axes = self._layout.axes
        return axes[-1] if axes else None

    def history(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The doubling history (axis, depths-before) per step."""
        return self._layout.history

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExtendibleArray(shape={self.shape})"
