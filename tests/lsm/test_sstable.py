"""Tests for SSTable construction, probing, iteration, serialization."""

import pytest

from repro.lsm import SSTable
from repro.types import encode_key, make_entry


def build(n=100, block_size=256, vlen=16, start=0, step=1):
    entries = [make_entry(encode_key(start + i * step), i + 1, b"v" * vlen)
               for i in range(n)]
    return SSTable(1, entries, block_size=block_size)


def test_empty_rejected():
    with pytest.raises(ValueError):
        SSTable(1, [])


def test_unsorted_rejected():
    es = [make_entry(encode_key(2), 1, b"v"), make_entry(encode_key(1), 2, b"v")]
    with pytest.raises(ValueError):
        SSTable(1, es)


def test_duplicate_keys_rejected():
    es = [make_entry(encode_key(1), 1, b"v"), make_entry(encode_key(1), 2, b"v")]
    with pytest.raises(ValueError):
        SSTable(1, es)


def test_bounds_and_counts():
    t = build(50)
    assert t.smallest == encode_key(0)
    assert t.largest == encode_key(49)
    assert t.num_entries == 50
    assert t.num_blocks > 1
    assert t.data_bytes == sum(len(encode_key(0)) + 16 + 8 for _ in range(50))
    assert t.file_bytes > t.data_bytes


def test_probe_hit_charges_one_block():
    t = build(100, block_size=256)
    r = t.probe(encode_key(42))
    assert r.entry[0] == encode_key(42)
    assert 0 < r.bytes_read <= 2 * 256  # one block (may exceed budget by 1 entry)


def test_probe_outside_range_free():
    t = build(10, start=10)
    assert t.probe(encode_key(5)).bytes_read == 0
    assert t.probe(encode_key(99)).bytes_read == 0


def test_probe_bloom_negative_free():
    t = build(100, step=2)  # even keys only
    # find an in-range odd key the bloom rejects (nearly all of them)
    rejected = [k for k in range(1, 199, 2)
                if t.probe(encode_key(k)).bloom_negative]
    assert rejected, "bloom should reject most absent keys"
    assert all(t.probe(encode_key(k)).bytes_read == 0 for k in rejected)


def test_probe_miss_in_range_after_bloom_fp():
    t = build(100, step=2)
    misses = [t.probe(encode_key(k)) for k in range(1, 199, 2)]
    assert all(m.entry is None for m in misses)


def test_every_key_probes_correctly():
    t = build(200, block_size=128)
    for i in range(200):
        r = t.probe(encode_key(i))
        assert r.entry is not None and r.entry[0] == encode_key(i)


def test_overlaps():
    t = build(10, start=10)  # keys 10..19
    assert t.overlaps(encode_key(0), encode_key(10))
    assert t.overlaps(encode_key(19), encode_key(30))
    assert t.overlaps(encode_key(12), encode_key(15))
    assert not t.overlaps(encode_key(0), encode_key(9))
    assert not t.overlaps(encode_key(20), encode_key(30))


def test_iter_from():
    t = build(10, step=2)  # 0,2,...,18
    keys = [e[0] for e in t.iter_from(encode_key(5))]
    assert keys == [encode_key(k) for k in (6, 8, 10, 12, 14, 16, 18)]
    assert [e[0] for e in t.iter_from()] == [encode_key(2 * i) for i in range(10)]


def test_lower_bound():
    t = build(5, step=10)  # 0, 10, 20, 30, 40
    assert t.lower_bound(encode_key(0)) == 0
    assert t.lower_bound(encode_key(11)) == 2
    assert t.lower_bound(encode_key(40)) == 4
    assert t.lower_bound(encode_key(41)) == 5


def test_block_of_entry_consistent():
    t = build(100, block_size=128)
    for idx in range(100):
        b = t.block_of_entry(idx)
        assert 0 <= b < t.num_blocks
    # block starts map back to themselves
    total = sum(t.block_bytes(b) for b in range(t.num_blocks))
    assert total == t.data_bytes


def test_serialization_roundtrip():
    t = build(30, vlen=8)
    data = t.to_bytes()
    t2 = SSTable.from_bytes(2, data, block_size=256)
    assert t2.num_entries == 30
    assert [e[0] for e in t2.entries] == [e[0] for e in t.entries]
    r = t2.probe(encode_key(7))
    assert r.entry[3] == b"v" * 8


def test_data_bytes_is_sum_of_entry_sizes():
    from repro.types import KIND_DELETE, ValueRef, entry_size
    entries = [make_entry(encode_key(i), i + 1,
                          None if i % 5 == 0 else
                          ValueRef(i, 300) if i % 2 else b"v" * i,
                          kind=KIND_DELETE if i % 5 == 0 else None)
               for i in range(200)]
    sizes = [entry_size(e) for e in entries]
    t = SSTable(1, entries, block_size=1024)
    assert t.data_bytes == sum(sizes)
    assert sum(t.block_bytes(b) for b in range(t.num_blocks)) == sum(sizes)
    # Carried sizes build the identical table.
    c = SSTable(1, entries, block_size=1024, sizes=sizes)
    assert (c.file_bytes, c._block_starts, c._block_bytes, c.bloom._bits) == \
        (t.file_bytes, t._block_starts, t._block_bytes, t.bloom._bits)
    with pytest.raises(ValueError):
        SSTable(1, entries, sizes=sizes[:-1])
