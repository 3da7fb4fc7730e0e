"""Directory nodes for the tree-structured schemes (MEH / BMEH).

A node is one disk page holding a bounded extendible array of directory
entries.  Its *global depths* ``H_j`` are the array's per-axis doubling
counts; a node page reserves ``2^phi`` element slots (``phi = sum xi_j``),
which is why the paper reports tree directory sizes in multiples of
``2^phi``.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

from repro.errors import SerializationError
from repro.extarray import ExtendibleArray
from repro.core.directory import DirEntry
from repro.storage.serializer import PageCodec


class Node:
    """A directory node: a bounded extendible array of :class:`DirEntry`.

    Attributes:
        level: height above the data pages (leaf directory nodes are at
            level 1, data pages at level 0, the root at the tree height).
        xi: per-axis depth budgets (the paper's ξ_j); their sum is φ and
            the node holds at most ``2^φ`` entries.
    """

    __slots__ = ("array", "level", "xi")

    def __init__(
        self,
        dims: int,
        xi: Sequence[int],
        level: int,
        array: ExtendibleArray | None = None,
    ) -> None:
        if level < 1:
            raise ValueError("directory nodes live at level >= 1")
        if len(xi) != dims:
            raise ValueError("xi must have one budget per dimension")
        self.array = ExtendibleArray(dims, fill=None) if array is None else array
        self.level = level
        self.xi = tuple(xi)

    def copy(self) -> "Node":
        """A private copy for a snapshot: every region entry is cloned
        once (cells that shared an entry share its clone) and the
        addressing tables stay shared — exactly what writers mutate is
        copied, nothing else."""
        return Node(
            self.array.dims, self.xi, self.level, self.array.copy(DirEntry.clone)
        )

    def __deepcopy__(self, memo: dict[int, object]) -> "Node":
        return self.copy()

    @property
    def dims(self) -> int:
        return self.array.dims

    @property
    def depths(self) -> tuple[int, ...]:
        """The node's global depths ``H_j``."""
        return self.array.depths

    @property
    def phi(self) -> int:
        return sum(self.xi)

    @property
    def capacity(self) -> int:
        """Reserved element slots per node page (``2^phi``)."""
        return 1 << self.phi

    def size(self) -> int:
        return len(self.array)

    def can_grow_total(self) -> bool:
        """Whether doubling keeps the node within its ``2^phi`` slots.

        This is the test in the paper's ``BMEH_Insert`` pseudocode
        ("if number of entries <= 2^phi then Expand_Dir").
        """
        return 2 * len(self.array) <= self.capacity

    def can_grow(self, axis: int, policy: str = "total") -> bool:
        """Whether the node may double along ``axis`` under ``policy``.

        ``"total"`` follows the pseudocode (any axis while the slot budget
        holds); ``"per_dim"`` additionally enforces ``H_j <= xi_j``, the
        stricter reading of §3.1.  The two are compared by an ablation
        benchmark.
        """
        if not self.can_grow_total():
            return False
        if policy == "per_dim":
            return self.array.depths[axis] < self.xi[axis]
        if policy == "total":
            return True
        raise ValueError(f"unknown node growth policy {policy!r}")

    def entries(self) -> Iterator[DirEntry]:
        """Distinct region entries (cells share entry objects)."""
        seen: set[int] = set()
        for cell in self.array.cells():
            if cell is not None and id(cell) not in seen:
                seen.add(id(cell))
                yield cell

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node(level={self.level}, H={self.depths}, xi={self.xi})"


#: Format-version byte leading every v2 node image (tag 0x12); the
#: legacy tag 0x02 layout has no version byte and stays decode-only.
_NODE_FORMAT_VERSION = 1


class NodeCodec(PageCodec):
    """Byte image for directory nodes (v2, tag 0x12).

    ``u8 format-version | u8 level | u8 dims | dims*u8 xi | u8 steps |
    steps*u8 axes`` then one record per distinct region entry
    (``dims*u8 h | u8 m | i64 ptr | u8 is_node | u32 cell-count | cells``)
    where cells are u32 linear addresses.  The growth axes name the
    array's addressing history, so decoding adopts its shared tables and
    fills the cells in O(cells) — no doubling is replayed — and rejects
    an image that leaves any cell unset.  Decoding works over a
    ``memoryview`` of the page slot without copying it.
    """

    tag = 0x12
    _versioned = True

    def handles(self, obj: object) -> bool:
        return isinstance(obj, Node)

    def encode_body(self, node: Node) -> bytes:
        history_axes = [axis for axis, _ in node.array.history()]
        parts = [
            b"\x01" if self._versioned else b"",
            struct.pack(
                f"<BB{node.dims}BB",
                node.level,
                node.dims,
                *node.xi,
                len(history_axes),
            ),
            bytes(history_axes),
        ]
        groups: dict[int, tuple[DirEntry, list[int]]] = {}
        for address in range(len(node.array)):
            entry = node.array.get_at(address)
            if entry is None:
                raise SerializationError("cannot serialize a node with holes")

            groups.setdefault(id(entry), (entry, []))[1].append(address)
        parts.append(struct.pack("<I", len(groups)))
        for entry, addresses in groups.values():
            ptr = -1 if entry.ptr is None else entry.ptr
            parts.append(
                struct.pack(
                    f"<{node.dims}BBqBI",
                    *entry.h,
                    entry.m,
                    ptr,
                    int(entry.is_node),
                    len(addresses),
                )
            )
            parts.append(struct.pack(f"<{len(addresses)}I", *addresses))
        return b"".join(parts)

    def decode_body(self, data: bytes | memoryview) -> Node:
        try:
            offset = 0
            if self._versioned:
                if data[0] != _NODE_FORMAT_VERSION:
                    raise SerializationError(
                        f"unsupported node format version {data[0]}"
                    )
                offset = 1
            level, dims = struct.unpack_from("<BB", data, offset)
            offset += 2
            xi = struct.unpack_from(f"<{dims}B", data, offset)
            offset += dims
            (steps,) = struct.unpack_from("<B", data, offset)
            offset += 1
            axes = bytes(data[offset : offset + steps])
            if len(axes) < steps:
                raise SerializationError("truncated node growth history")
            offset += steps
            if 4 << steps > len(data) - offset:
                # Every cell appears once as a u32 address below; a
                # corrupt step count must not allocate 2^steps cells.
                raise SerializationError(
                    f"node image too short for 2^{steps} cells"
                )
            cells: list[DirEntry | None] = [None] * (1 << steps)
            (group_count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            record = struct.Struct(f"<{dims}BBqBI")
            for _ in range(group_count):
                fields = record.unpack_from(data, offset)
                offset += record.size
                h = fields[:dims]
                m, ptr, is_node, cell_count = fields[dims:]
                entry = DirEntry(h, m, None if ptr < 0 else ptr, bool(is_node))
                addresses = struct.unpack_from(f"<{cell_count}I", data, offset)
                offset += 4 * cell_count
                for address in addresses:
                    cells[address] = entry
            if None in cells:
                raise SerializationError(
                    f"node image leaves cell {cells.index(None)} unset"
                )
            array = ExtendibleArray.from_history(dims, axes, cells)
            return Node(dims, xi, level, array)
        except (struct.error, IndexError, ValueError) as exc:
            raise SerializationError(f"corrupt node image: {exc}") from exc


class LegacyNodeCodec(NodeCodec):
    """Decode-only support for pre-version-byte node images (tag 0x02)."""

    tag = 0x02
    _versioned = False

    def handles(self, obj: object) -> bool:
        return False  # encode always uses the current format
