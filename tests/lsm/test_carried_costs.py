"""Each Main-LSM key is sized and hashed once: the carried sizes and hash
pairs (memtable -> flush -> every compaction output) must equal what
recomputing them gives, and the sort-based compaction merge must equal the
heap merge it replaced."""

import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db  # noqa: E402

from repro.lsm import (  # noqa: E402
    BloomFilter,
    CompactionJob,
    DictMemTable,
    FileMetadata,
    SSTable,
    SkipListMemTable,
    merge_for_compaction,
    merging_iterator,
)
from repro.lsm.bloom import _hash128, key_hashes  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import (  # noqa: E402
    KIND_DELETE,
    KIND_PUT,
    ValueRef,
    encode_key,
    entry_size,
)

NUM_LEVELS = 4

# One source: key -> (seq, kind, value).  Small key and seq ranges make
# duplicate keys, and duplicate (key, seq) pairs, across sources common.
_value = st.one_of(st.none(), st.binary(max_size=24),
                   st.builds(ValueRef, st.integers(0, 9), st.integers(0, 40)))
_source = st.dictionaries(
    st.integers(0, 30),
    st.tuples(st.integers(1, 6), st.sampled_from([KIND_PUT, KIND_DELETE]),
              _value),
    min_size=1, max_size=20)


def _table(number, source):
    entries = [(encode_key(k), seq, kind, None if kind == KIND_DELETE else v)
               for k, (seq, kind, v) in sorted(source.items())]
    return SSTable(number, entries, block_size=256)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_source, min_size=1, max_size=5), st.integers(0, 2),
       st.booleans())
def test_sort_merge_equals_heap_merge(sources, n_low, bottommost):
    metas = [FileMetadata(number=i + 1, level=0, table=_table(i + 1, s))
             for i, s in enumerate(sources)]
    output_level = NUM_LEVELS - 1 if bottommost else 1
    job = CompactionJob(level=output_level - 1, output_level=output_level,
                        inputs_low=metas[:n_low], inputs_high=metas[n_low:])

    merged = merge_for_compaction(job, NUM_LEVELS)

    want = list(merging_iterator([m.table.entries for m in job.all_inputs],
                                 include_tombstones=True))
    if bottommost:
        want = [e for e in want if e[2] != KIND_DELETE]
    # Identity, not equality: equal (key, seq) entries must resolve to the
    # same source's entry as the heap merge picks.
    assert [id(e) for e in merged.entries] == [id(e) for e in want]
    assert merged.sizes.tolist() == [entry_size(e) for e in want]
    assert [tuple(h) for h in merged.hashes.tolist()] == [
        _hash128(e[0]) for e in want]


def _stepped_bits(bf, keys):
    """The bloom fill before it was vectorised: each key's probe bits set
    one by one, stepping the position without the multiply."""
    n = bf.num_bits
    buf = bytearray((n + 7) // 8)
    for key in keys:
        h1, h2 = _hash128(key)
        pos, step = h1 % n, h2 % n
        for _ in range(bf.k):
            buf[pos >> 3] |= 1 << (pos & 7)
            pos += step
            if pos >= n:
                pos -= n
    return int.from_bytes(buf, "little")


@pytest.mark.parametrize("bits_per_key", [1, 10, 64])   # 64: k clamps at 30
@pytest.mark.parametrize("n", [1, 17, 500])
def test_add_all_with_carried_hashes_sets_identical_bits(bits_per_key, n):
    keys = [encode_key(i * 7919 + 3) for i in range(n)]
    fresh = BloomFilter(n, bits_per_key)
    fresh.add_all(keys)
    carried = BloomFilter(n, bits_per_key)
    carried.add_all(keys, hashes=key_hashes(keys))
    assert carried._bits == fresh._bits == _stepped_bits(fresh, keys)
    assert carried.num_added == fresh.num_added == n
    assert (BloomFilter(n, 64).k, BloomFilter(n, 1).k) == (30, 1)


def test_key_hashes_match_hash128():
    keys = [b"", b"a", encode_key(0), encode_key(2**31), b"x" * 100]
    assert [tuple(h) for h in key_hashes(keys).tolist()] == [
        _hash128(k) for k in keys]
    assert key_hashes([]).shape == (0, 2)


def test_probe_with_passed_hash_equals_probe_without():
    entries = [(encode_key(k), k + 1, KIND_PUT, b"v" * (k % 50))
               for k in range(0, 2000, 3)]
    t = SSTable(1, entries, block_size=512)
    probes = [encode_key(k) for k in range(2010)] + [b"", b"\xff" * 5]
    for key in probes:
        assert t.probe(key, _hash128(key)) == t.probe(key)


def test_table_keeps_sizes_and_hashes_as_compact_arrays():
    entries = [(encode_key(k), k + 1, KIND_PUT, ValueRef(k, 300))
               for k in range(50)]
    t = SSTable(1, entries, block_size=1024)
    assert t.sizes.dtype == np.int64 and t.hashes.dtype == np.uint64
    assert t.sizes.tolist() == [entry_size(e) for e in entries]
    assert t.hashes.shape == (50, 2)
    # Passed arrays are copied: a table never pins its caller's buffer.
    sizes = np.array([entry_size(e) for e in entries] * 2)
    t2 = SSTable(2, entries, sizes=sizes[:50], hashes=t.hashes)
    assert t2.sizes.base is None and t2.hashes.base is None
    with pytest.raises(ValueError):
        SSTable(3, entries, hashes=t.hashes[:-1])


@pytest.mark.parametrize("factory", [DictMemTable, SkipListMemTable])
def test_memtable_carries_sizes_to_flush(factory):
    m = factory()
    e1 = (encode_key(5), 1, KIND_PUT, b"abc")
    e2 = (encode_key(5), 2, KIND_PUT, ValueRef(1, 900))
    e3 = (encode_key(1), 3, KIND_DELETE, None)
    m.add(e1, entry_size(e1))
    m.add(e2)
    m.add(e3, entry_size(e3))
    m.add(e1, entry_size(e1))   # stale: ignored
    assert m.entries() == [e3, e2]
    assert m.entry_sizes() == [entry_size(e3), entry_size(e2)]
    assert m.approximate_bytes == sum(m.entry_sizes())


def test_compacted_away_tables_are_freed():
    env = Environment()
    db, _, _ = small_db(env)

    def fill(n, round_):
        for i in range(n):
            yield from db.put(encode_key(i * 13 % 1200),
                              b"v%d-%d" % (round_, i) + b"x" * 64)

    run(env, fill(1200, 0))
    run(env, db.wait_for_quiesce())
    first = {f.number: weakref.ref(f.table)
             for lvl in db.versions.current.levels for f in lvl}
    for round_ in (1, 2):
        run(env, fill(1200, round_))
        run(env, db.wait_for_quiesce())
    gc.collect()
    live = {f.number for lvl in db.versions.current.levels for f in lvl}
    gone = [n for n in first if n not in live]
    assert db.stats.compactions > 0 and gone
    assert all(first[n]() is None for n in gone), \
        [n for n in gone if first[n]() is not None]
    # The manifest still replays to the live version.
    assert db.versions.rebuild_from_journal().levels == \
        db.versions.current.levels
