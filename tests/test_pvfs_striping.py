"""Unit + property tests for the stripe layout."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pvfs.striping import StripeLayout


def test_validation():
    with pytest.raises(ValueError):
        StripeLayout(0, 65536)
    with pytest.raises(ValueError):
        StripeLayout(4, 0)
    layout = StripeLayout(4, 65536)
    with pytest.raises(ValueError):
        layout.iod_index(-1)
    with pytest.raises(ValueError):
        layout.local_offset(-1)
    with pytest.raises(ValueError):
        layout.split(-1, 10)


def test_round_robin_mapping():
    layout = StripeLayout(4, 65536)
    assert layout.iod_index(0) == 0
    assert layout.iod_index(65535) == 0
    assert layout.iod_index(65536) == 1
    assert layout.iod_index(4 * 65536) == 0  # wraps


def test_local_offsets_compact():
    layout = StripeLayout(4, 65536)
    # second stripe on iod 0 (global stripe 4) starts locally at 64 KB
    assert layout.local_offset(0) == 0
    assert layout.local_offset(4 * 65536) == 65536
    assert layout.local_offset(4 * 65536 + 100) == 65536 + 100
    assert layout.local_offset(65536) == 0  # iod 1's first byte


def test_split_single_stripe():
    layout = StripeLayout(4, 65536)
    out = layout.split(100, 1000)
    assert out == {0: [(100, 1000)]}


def test_split_across_stripes():
    layout = StripeLayout(2, 100)
    out = layout.split(50, 200)
    assert out == {0: [(50, 50), (200, 50)], 1: [(100, 100)]}


def test_split_single_iod_merges_adjacent():
    layout = StripeLayout(1, 100)
    out = layout.split(0, 1000)
    assert out == {0: [(0, 1000)]}


def test_split_empty():
    layout = StripeLayout(4, 65536)
    assert layout.split(10, 0) == {}


@settings(max_examples=200)
@given(
    n_iods=st.integers(1, 8),
    stripe=st.sampled_from([64, 128, 4096, 65536]),
    offset=st.integers(0, 10**6),
    nbytes=st.integers(0, 10**6),
)
def test_property_split_partitions_range(n_iods, stripe, offset, nbytes):
    """The per-iod ranges exactly tile [offset, offset+nbytes)."""
    layout = StripeLayout(n_iods, stripe)
    out = layout.split(offset, nbytes)
    pieces = sorted(
        (off, n) for ranges in out.values() for off, n in ranges
    )
    cursor = offset
    for off, n in pieces:
        assert off == cursor
        assert n > 0
        cursor = off + n
    assert cursor == offset + nbytes or (nbytes == 0 and not pieces)


@settings(max_examples=200)
@given(
    n_iods=st.integers(1, 8),
    stripe=st.sampled_from([64, 4096, 65536]),
    offset=st.integers(0, 10**6),
    nbytes=st.integers(1, 10**5),
)
def test_property_split_ranges_owned_by_right_iod(
    n_iods, stripe, offset, nbytes
):
    layout = StripeLayout(n_iods, stripe)
    for idx, ranges in layout.split(offset, nbytes).items():
        for off, n in ranges:
            # every byte of the range maps to idx
            assert layout.iod_index(off) == idx
            assert layout.iod_index(off + n - 1) == idx


@settings(max_examples=200)
@given(
    n_iods=st.integers(1, 8),
    stripe=st.sampled_from([64, 4096]),
    offsets=st.lists(st.integers(0, 10**5), min_size=2, max_size=10),
)
def test_property_local_offset_monotone_per_iod(n_iods, stripe, offsets):
    """Within one iod, increasing global offsets map to increasing
    local offsets (sequential scans stay sequential on disk)."""
    layout = StripeLayout(n_iods, stripe)
    by_iod: dict[int, list[tuple[int, int]]] = {}
    for off in sorted(set(offsets)):
        by_iod.setdefault(layout.iod_index(off), []).append(
            (off, layout.local_offset(off))
        )
    for pairs in by_iod.values():
        locals_ = [loc for _, loc in pairs]
        assert locals_ == sorted(locals_)


# -- the planners ---------------------------------------------------------------
_RANGES = st.lists(
    st.tuples(st.integers(0, 6000), st.integers(0, 1500)), min_size=1, max_size=8
)
_LAYOUTS = st.builds(
    StripeLayout,
    n_iods=st.integers(1, 12),
    stripe_size=st.sampled_from([7, 64, 100, 4096]),
)


def _bytes_of(ranges):
    return {b for off, n in ranges for b in range(off, off + n)}


@settings(max_examples=200)
@given(layout=_LAYOUTS, ranges=_RANGES)
def test_property_plan_is_one_merged_request_per_iod(layout, ranges):
    """``plan`` covers exactly the bytes asked for; each range it lists
    lies on its iod; each iod's ranges are sorted, disjoint and not
    adjacent; the iods come in index order."""
    plan = layout.plan(ranges)
    assert _bytes_of(r for _, rs in plan for r in rs) == _bytes_of(ranges)
    indices = [idx for idx, _ in plan]
    assert indices == sorted(set(indices))
    for idx, iod_ranges in plan:
        assert iod_ranges
        for off, n in iod_ranges:
            assert n > 0
            assert {layout.iod_index(b) for b in range(off, off + n)} == {idx}
        for (a_off, a_n), (b_off, _) in zip(iod_ranges, iod_ranges[1:]):
            assert a_off + a_n < b_off


@settings(max_examples=200)
@given(layout=_LAYOUTS, ranges=_RANGES, size_only=st.booleans())
def test_property_plan_write_ships_each_byte_once(layout, ranges, size_only):
    """``plan_write`` returns every byte of every range once, with its
    own value, on its own iod, each iod's pieces sorted by offset."""
    chunks = None if size_only else [
        bytes((i * 37 + k) % 256 for k in range(n)) for i, (_, n) in enumerate(ranges)
    ]
    plan = layout.plan_write(ranges, chunks)
    want = Counter(
        (off + k, None if chunks is None else chunks[i][k])
        for i, (off, n) in enumerate(ranges)
        for k in range(n)
    )
    got = Counter()
    indices = [idx for idx, _, _ in plan]
    assert indices == sorted(set(indices))
    for idx, iod_ranges, iod_chunks in plan:
        assert len(iod_ranges) == len(iod_chunks)
        assert iod_ranges == sorted(iod_ranges, key=lambda r: r[0])
        for (off, n), piece in zip(iod_ranges, iod_chunks):
            assert {layout.iod_index(b) for b in range(off, off + n)} == {idx}
            assert piece is None if chunks is None else len(piece) == n
            got.update(
                (off + k, None if piece is None else piece[k]) for k in range(n)
            )
    assert got == want
