"""Round-trip tests for the page codecs."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.core.directory import DirEntry
from repro.core.node import LegacyNodeCodec, Node, NodeCodec
from repro.errors import SerializationError
from repro.kdb.kdbtree import (
    LegacyRegionPageCodec,
    RegionPageCodec,
    _Box,
    _Entry,
    _RegionPage,
)
from repro.storage import DataPage, binval
from repro.storage.serializer import (
    CodecRegistry,
    DataPageCodec,
    DataPageCodecV2,
    PickleValueCodec,
    RawBytesValueCodec,
    default_registry,
)


class TestValueCodecs:
    def test_pickle_roundtrip(self):
        codec = PickleValueCodec()
        value = {"a": [1, 2, (3, 4)], "b": None}
        assert codec.decode(codec.encode(value)) == value

    def test_raw_bytes_roundtrip(self):
        codec = RawBytesValueCodec()
        assert codec.decode(codec.encode(b"\x00\xff")) == b"\x00\xff"

    def test_raw_bytes_rejects_non_bytes(self):
        with pytest.raises(SerializationError):
            RawBytesValueCodec().encode("text")


class TestDataPageCodec:
    def roundtrip(self, page):
        codec = DataPageCodec()
        return codec.decode_body(codec.encode_body(page))

    def test_empty_page(self):
        back = self.roundtrip(DataPage(8))
        assert len(back) == 0 and back.capacity == 8

    def test_records_roundtrip(self):
        page = DataPage(4)
        page.put((1, 2**40), "hello")
        page.put((3, 4), [1, 2])
        back = self.roundtrip(page)
        assert back.get((1, 2**40)) == "hello"
        assert back.get((3, 4)) == [1, 2]

    def test_handles(self):
        codec = DataPageCodec()
        assert codec.handles(DataPage(1))
        assert not codec.handles(object())

    def test_corrupt_image(self):
        with pytest.raises(SerializationError):
            DataPageCodec().decode_body(b"\x01\x02")

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                st.integers(-1000, 1000),
            ),
            max_size=16,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_roundtrip_property(self, records):
        page = DataPage(max(len(records), 1))
        for codes, value in records:
            page.put(codes, value)
        back = self.roundtrip(page)
        assert dict(back.items()) == dict(page.items())


def build_node():
    node = Node(2, (3, 3), level=2)
    node.array.grow(0)
    node.array.grow(1)
    shared = DirEntry([1, 0], 0, 17, True)
    lone = DirEntry([1, 1], 1, None, False)
    node.array[(0, 0)] = shared
    node.array[(0, 1)] = shared
    node.array[(1, 0)] = DirEntry([1, 1], 1, 23, False)
    node.array[(1, 1)] = lone
    return node


class TestNodeCodec:
    def test_roundtrip_structure(self):
        node = build_node()
        codec = NodeCodec()
        back = codec.decode_body(codec.encode_body(node))
        assert back.level == 2
        assert back.xi == (3, 3)
        assert back.array.depths == (1, 1)
        assert back.array[(0, 0)] is back.array[(0, 1)]  # sharing preserved
        assert back.array[(0, 0)].ptr == 17
        assert back.array[(0, 0)].is_node
        assert back.array[(1, 0)].ptr == 23
        assert back.array[(1, 1)].ptr is None

    def test_hole_rejected(self):
        node = Node(2, (3, 3), level=1)  # single None cell
        with pytest.raises(SerializationError):
            NodeCodec().encode_body(node)

    def test_corrupt_image(self):
        with pytest.raises(SerializationError):
            NodeCodec().decode_body(b"\x05")


def node_body(axes, groups, dims=2, versioned=True):
    """A hand-built node image body: one entry record per address list."""
    parts = [
        b"\x01" if versioned else b"",
        bytes([1, dims, *[3] * dims, len(axes), *axes]),
        struct.pack("<I", len(groups)),
    ]
    for ptr, addresses in enumerate(groups):
        parts.append(
            struct.pack(f"<{dims}BBqBI", *[1] * dims, 0, ptr, 0, len(addresses))
        )
        parts.append(struct.pack(f"<{len(addresses)}I", *addresses))
    return b"".join(parts)


@pytest.mark.parametrize("codec", [NodeCodec(), LegacyNodeCodec()])
class TestCorruptNodeImages:
    """Every corrupt image surfaces as SerializationError, never as a
    ValueError from the array or a node with ``None`` holes."""

    def decode(self, codec, axes, groups, **kw):
        return codec.decode_body(
            memoryview(node_body(axes, groups, versioned=codec._versioned, **kw))
        )

    def test_well_formed_image_decodes(self, codec):
        node = self.decode(codec, [0, 1], [[0, 1], [2, 3]])
        assert node.array.depths == (1, 1)
        assert [e.ptr for e in node.array.cells()] == [0, 0, 1, 1]

    def test_growth_axis_out_of_range(self, codec):
        with pytest.raises(SerializationError):
            self.decode(codec, [0, 2], [[0, 1], [2, 3]])

    def test_unset_cell(self, codec):
        with pytest.raises(SerializationError, match="unset"):
            self.decode(codec, [0, 1], [[0, 1], [3]])

    def test_address_beyond_history(self, codec):
        with pytest.raises(SerializationError):
            self.decode(codec, [0, 1], [[0, 1], [2, 4]])

    def test_truncated_group(self, codec):
        body = node_body([0, 1], [[0, 1], [2, 3]], versioned=codec._versioned)
        for cut in (len(body) - 1, len(body) - 8, len(body) - 20):
            with pytest.raises(SerializationError):
                codec.decode_body(body[:cut])

    def test_step_count_beyond_image(self, codec):
        with pytest.raises(SerializationError, match="too short"):
            self.decode(codec, [0] * 40, [[0]])

    def test_zero_dims(self, codec):
        with pytest.raises(SerializationError):
            self.decode(codec, [], [[0]], dims=0)


class TestCodecRegistry:
    def test_default_registry_dispatch(self):
        registry = default_registry()
        page = DataPage(2)
        page.put((5,), "v")
        assert registry.decode(registry.encode(page)).get((5,)) == "v"
        node = build_node()
        assert registry.decode(registry.encode(node)).level == 2

    def test_unknown_object(self):
        with pytest.raises(SerializationError):
            CodecRegistry().encode(object())

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            default_registry().decode(b"\x7fxyz")

    def test_empty_image(self):
        with pytest.raises(SerializationError):
            default_registry().decode(b"")

    def test_duplicate_tag_rejected(self):
        registry = CodecRegistry()
        registry.register(DataPageCodec())
        with pytest.raises(SerializationError):
            registry.register(DataPageCodec())


# --- PR 9: struct layouts under hypothesis ------------------------------

#: Every value shape the tagged binary encoding covers natively.  The
#: integer range deliberately straddles the INT64/BIGINT split and the
#: recursion nests containers inside containers.
binval_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.binary(max_size=16),
)
binval_values = st.recursive(
    binval_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=12,
)


def exact(value):
    """repr() distinguishes 1/True/1.0 and (1,)/[1], so comparing reprs
    checks the roundtrip preserved types, not just equality."""
    return repr(value)


class TestBinval:
    @given(binval_values)
    def test_roundtrip_identity(self, value):
        assert exact(binval.decode(binval.encode(value))) == exact(value)

    @given(binval_values)
    def test_native_values_never_pickle(self, value):
        out = bytearray()
        binval.encode_into(out, value, pickle_fallback=False)
        assert exact(binval.decode(out, allow_pickle=False)) == exact(value)

    def test_encode_refuses_pickle_when_disabled(self):
        with pytest.raises(SerializationError):
            binval.encode_into(bytearray(), {1, 2}, pickle_fallback=False)

    def test_decode_refuses_pickle_tag(self):
        blob = binval.encode({1, 2})  # falls back to the pickle tag
        assert binval.decode(blob) == {1, 2}
        with pytest.raises(SerializationError):
            binval.decode(blob, allow_pickle=False)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            binval.decode(binval.encode(7) + b"\x00")

    @given(binval_values)
    def test_truncation_rejected(self, value):
        blob = binval.encode(value)
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                binval.decode(blob[:cut])


class TestDataPageCodecV2:
    def roundtrip(self, page):
        codec = DataPageCodecV2()
        return codec.decode_body(memoryview(codec.encode_body(page)))

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                binval_values,
            ),
            max_size=8,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_roundtrip_property(self, records):
        page = DataPage(max(len(records), 1))
        for codes, value in records:
            page.put(codes, value)
        back = self.roundtrip(page)
        assert back.capacity == page.capacity
        assert exact(dict(back.items())) == exact(dict(page.items()))

    def test_bad_format_version(self):
        codec = DataPageCodecV2()
        image = bytearray(codec.encode_body(DataPage(4)))
        image[0] = 99
        with pytest.raises(SerializationError):
            codec.decode_body(bytes(image))

    @given(
        st.lists(
            st.tuples(st.tuples(st.integers(0, 2**20)), binval_values),
            max_size=4,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_every_truncation_rejected(self, records):
        page = DataPage(max(len(records), 1))
        for codes, value in records:
            page.put(codes, value)
        registry = default_registry()
        image = registry.encode(page)
        assert image[0] == DataPageCodecV2.tag
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                registry.decode(image[:cut])


@st.composite
def nodes(draw):
    """A hole-free directory node: random shape, random entry pool, and
    a random cell→entry assignment (so buddy-sharing groups vary)."""
    dims = draw(st.integers(1, 3))
    xi = tuple(draw(st.integers(1, 4)) for _ in range(dims))
    node = Node(dims, xi, level=draw(st.integers(1, 255)))
    for axis in draw(st.lists(st.integers(0, dims - 1), max_size=3)):
        node.array.grow(axis)
    pool = [
        DirEntry(
            [draw(st.integers(0, 255)) for _ in range(dims)],
            draw(st.integers(0, 255)),
            draw(st.one_of(st.none(), st.integers(0, 2**40))),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    size = 2 ** sum(node.array.depths)
    for address in range(size):
        index = node.array.index_of(address)
        node.array[index] = pool[draw(st.integers(0, len(pool) - 1))]
    return node


class TestNodeCodecProperties:
    @given(nodes())
    def test_roundtrip_property(self, node):
        codec = NodeCodec()
        back = codec.decode_body(memoryview(codec.encode_body(node)))
        assert back.level == node.level
        assert back.xi == node.xi
        assert back.array.depths == node.array.depths
        size = 2 ** sum(node.array.depths)
        for address in range(size):
            index = node.array.index_of(address)
            a, b = node.array[index], back.array[index]
            assert (a.h, a.m, a.ptr, a.is_node) == (b.h, b.m, b.ptr, b.is_node)
        # Sharing partition: addresses that aliased one entry still do.
        for lhs in range(size):
            for rhs in range(lhs + 1, size):
                li, ri = node.array.index_of(lhs), node.array.index_of(rhs)
                assert (node.array[li] is node.array[ri]) == (
                    back.array[li] is back.array[ri]
                )

    def test_every_truncation_rejected(self):
        registry = default_registry()
        image = registry.encode(build_node())
        assert image[0] == NodeCodec.tag
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                registry.decode(image[:cut])

    def test_bad_format_version(self):
        body = bytearray(NodeCodec().encode_body(build_node()))
        body[0] = 99
        with pytest.raises(SerializationError):
            NodeCodec().decode_body(bytes(body))


@st.composite
def reshaped_nodes(draw):
    """A node whose history mixes grow, grow_rehash, shrink and
    shrink_rehash, with regions refined in between (so both buddy
    sharing and fresh entries appear)."""
    dims = draw(st.integers(1, 3))
    node = Node(dims, (3,) * dims, level=1)
    node.array.set_at(0, DirEntry([0] * dims, 0, 0))
    ops = st.sampled_from(
        ["grow", "grow_rehash", "shrink", "shrink_rehash", "refine"]
    )
    for step, op in enumerate(draw(st.lists(ops, max_size=10))):
        array = node.array
        if op in ("grow", "grow_rehash") and len(array) < 64:
            getattr(array, op)(draw(st.integers(0, dims - 1)))
        elif op in ("shrink", "shrink_rehash") and len(array) > 1:
            getattr(array, op)()
        elif op == "refine":
            address = draw(st.integers(0, len(array) - 1))
            array.set_at(address, DirEntry([step % 4] * dims, 0, step + 1))
    return node


def sharing_partition(array):
    """Each cell's first address holding the same entry object."""
    first = {}
    return [first.setdefault(id(cell), a) for a, cell in enumerate(array.cells())]


class TestReshapedNodeRoundtrip:
    @given(reshaped_nodes())
    def test_addressing_and_sharing_survive(self, node):
        codec = NodeCodec()
        back = codec.decode_body(memoryview(codec.encode_body(node)))
        assert back.array.history() == node.array.history()
        assert back.array.layout is node.array.layout
        for address in range(len(node.array)):
            index = node.array.index_of(address)
            assert back.array.index_of(address) == index
            assert back.array.address(index) == address
            a, b = node.array.get_at(address), back.array.get_at(address)
            assert (a.h, a.m, a.ptr, a.is_node) == (b.h, b.m, b.ptr, b.is_node)
        assert sharing_partition(back.array) == sharing_partition(node.array)


@st.composite
def region_pages(draw):
    dims = draw(st.integers(1, 3))
    page = _RegionPage(draw(st.integers(0, 255)))
    for _ in range(draw(st.integers(0, 6))):
        lows, highs = [], []
        for _ in range(dims):
            a = draw(st.integers(0, 2**64 - 1))
            b = draw(st.integers(0, 2**64 - 1))
            lows.append(min(a, b))
            highs.append(max(a, b))
        page.entries.append(
            _Entry(
                _Box(tuple(lows), tuple(highs)),
                draw(st.one_of(st.none(), st.integers(0, 2**40))),
                draw(st.booleans()),
                draw(st.integers(0, 255)),
            )
        )
    return page


def build_region_page():
    page = _RegionPage(3)
    page.entries.append(_Entry(_Box((0, 0), (7, 3)), 11, True, 2))
    page.entries.append(_Entry(_Box((8, 0), (15, 3)), None, False, 0))
    return page


class TestRegionPageCodecProperties:
    @given(region_pages())
    def test_roundtrip_property(self, page):
        codec = RegionPageCodec()
        back = codec.decode_body(memoryview(codec.encode_body(page)))
        assert back.level == page.level
        assert len(back.entries) == len(page.entries)
        for a, b in zip(page.entries, back.entries):
            assert (a.box.lows, a.box.highs) == (b.box.lows, b.box.highs)
            assert (a.ptr, a.is_region, a.m) == (b.ptr, b.is_region, b.m)

    def test_every_truncation_rejected(self):
        registry = default_registry()
        image = registry.encode(build_region_page())
        assert image[0] == RegionPageCodec.tag
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                registry.decode(image[:cut])

    def test_bad_format_version(self):
        body = bytearray(RegionPageCodec().encode_body(build_region_page()))
        body[0] = 99
        with pytest.raises(SerializationError):
            RegionPageCodec().decode_body(bytes(body))


class TestLegacyCoexistence:
    """Images written before the version-byte layouts stay decodable
    through the same registry that now encodes the v2 formats."""

    def test_legacy_data_page_decodes(self):
        page = DataPage(4)
        page.put((1, 2), {"k": [1, 2]})
        legacy = bytes([DataPageCodec.tag]) + DataPageCodec().encode_body(page)
        back = default_registry().decode(legacy)
        assert back.get((1, 2)) == {"k": [1, 2]}

    def test_legacy_node_decodes(self):
        legacy = bytes([LegacyNodeCodec.tag]) + LegacyNodeCodec().encode_body(
            build_node()
        )
        back = default_registry().decode(legacy)
        assert back.level == 2 and back.array[(0, 0)].ptr == 17

    def test_legacy_region_page_decodes(self):
        codec = LegacyRegionPageCodec()
        legacy = bytes([codec.tag]) + codec.encode_body(build_region_page())
        back = default_registry().decode(legacy)
        assert back.entries[0].ptr == 11 and back.entries[1].ptr is None

    def test_encode_always_picks_v2(self):
        registry = default_registry()
        page = DataPage(1)
        page.put((9,), "v")
        assert registry.encode(page)[0] == DataPageCodecV2.tag
        assert registry.encode(build_node())[0] == NodeCodec.tag
        assert registry.encode(build_region_page())[0] == RegionPageCodec.tag
