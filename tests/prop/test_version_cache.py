"""Property test: a Version's cached statistics equal a naive recomputation.

Hypothesis drives random add/remove edit sequences over L0-L6 through
``VersionSet.apply``.  After every edit the cached per-level bytes, level
targets, scores, pending compaction bytes and the ``files_for_key`` order
must equal what this module computes from the file lists alone.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.device import KiB
from repro.lsm import FileMetadata, LsmOptions, SSTable, VersionEdit, VersionSet
from repro.types import encode_key, make_entry

NUM_LEVELS = 7
SLOTS = 12          # disjoint key ranges per level, so L1+ never overlap
SLOT_WIDTH = 100

OPTIONS = LsmOptions(
    write_buffer_size=64 * KiB,
    max_bytes_for_level_base=2 * KiB,
    max_bytes_for_level_multiplier=4,
    level0_file_num_compaction_trigger=2,
    target_file_size_base=64 * KiB,
    soft_pending_compaction_bytes_limit=1024 * KiB,
    hard_pending_compaction_bytes_limit=4096 * KiB,
)
# A second set of sizing knobs queried against the same versions.
OTHER = LsmOptions(
    write_buffer_size=64 * KiB,
    max_bytes_for_level_base=5 * KiB,
    max_bytes_for_level_multiplier=3,
    level0_file_num_compaction_trigger=3,
    target_file_size_base=64 * KiB,
    soft_pending_compaction_bytes_limit=1024 * KiB,
    hard_pending_compaction_bytes_limit=4096 * KiB,
)

# One edit: some additions (level, slot, entry count, value length) and
# some removals (an index into the live files).
add_op = st.tuples(st.integers(0, NUM_LEVELS - 1), st.integers(0, SLOTS - 1),
                   st.integers(1, 6), st.integers(0, 300))
edit_op = st.tuples(st.lists(add_op, max_size=3),
                    st.lists(st.integers(0, 10_000), max_size=3))
edits_strategy = st.lists(edit_op, min_size=1, max_size=25)


def _table(number, slot, count, vlen):
    lo = slot * SLOT_WIDTH
    entries = [make_entry(encode_key(lo + 7 * i), number * 100 + i,
                          b"v" * vlen) for i in range(count)]
    return SSTable(number, entries, block_size=1 * KiB)


def _naive_targets(levels, o):
    n = len(levels)
    sizes = [sum(f.table.file_bytes for f in lvl) for lvl in levels]
    targets = [0.0] * n
    bottom = max([l for l in range(1, n) if levels[l]], default=1)
    targets[bottom] = max(float(sizes[bottom]),
                          float(o.max_bytes_for_level_base))
    for level in range(bottom - 1, 0, -1):
        targets[level] = max(targets[level + 1]
                             / o.max_bytes_for_level_multiplier,
                             o.max_bytes_for_level_base
                             / o.max_bytes_for_level_multiplier)
    for level in range(bottom + 1, n):
        targets[level] = max(targets[level - 1]
                             * o.max_bytes_for_level_multiplier,
                             float(o.max_bytes_for_level_base))
    return sizes, targets


def _check_against_reference(v, levels, o):
    sizes, targets = _naive_targets(levels, o)
    trigger = o.level0_file_num_compaction_trigger
    scores = [len(levels[0]) / trigger] + [
        sizes[l] / targets[l] for l in range(1, NUM_LEVELS)]
    debt = sizes[0] if len(levels[0]) >= trigger else 0
    for level in range(1, NUM_LEVELS - 1):
        if sizes[level] > targets[level]:
            debt += int(sizes[level] - targets[level])
    best = (-1, 0.0)
    for level in range(NUM_LEVELS - 1):
        if scores[level] > best[1]:
            best = (level, scores[level])

    assert [[f.number for f in lvl] for lvl in v.levels] == \
        [[f.number for f in lvl] for lvl in levels]
    assert [v.level_bytes(l) for l in range(NUM_LEVELS)] == sizes
    assert v.total_bytes() == sum(sizes)
    assert list(v.level_targets(o)) == targets
    assert [v.compaction_score(o, l) for l in range(NUM_LEVELS)] == scores
    assert v.pending_compaction_bytes(o) == debt
    assert v.best_compaction_level(o) == best
    for slot in range(SLOTS):
        lo = slot * SLOT_WIDTH
        for key in (encode_key(lo), encode_key(lo + 14)):
            want = [f for f in sorted(levels[0], key=lambda f: -f.number)
                    if f.smallest <= key <= f.largest]
            for lvl in levels[1:]:
                want += [f for f in lvl if f.smallest <= key <= f.largest]
            assert [f.number for f in v.files_for_key(key)] == \
                [f.number for f in want]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits_strategy)
def test_cached_stats_match_naive_reference(edits):
    vs = VersionSet(OPTIONS)
    levels = [[] for _ in range(NUM_LEVELS)]   # the reference file lists
    number = 0
    for adds, removes in edits:
        live = sorted((f for lvl in levels for f in lvl),
                      key=lambda f: f.number)
        gone = {live[i % len(live)].number for i in removes} if live else set()
        removed = [(f.level, f.number) for f in live if f.number in gone]
        added = []
        for level, slot, count, vlen in adds:
            taken = {f.smallest for f in levels[level] if f.number not in gone}
            taken |= {m.smallest for m in added if m.level == level}
            if level > 0 and encode_key(slot * SLOT_WIDTH) in taken:
                continue   # keep L1+ disjoint
            number += 1
            added.append(FileMetadata(number=number, level=level,
                                      table=_table(number, slot, count, vlen)))
        vs.apply(VersionEdit(added=added, removed=removed))

        for level in range(NUM_LEVELS):
            levels[level] = [f for f in levels[level] if f.number not in gone]
        for meta in added:
            levels[meta.level].append(meta)
        for level in range(1, NUM_LEVELS):
            levels[level].sort(key=lambda f: f.smallest)
        for o in (OPTIONS, OTHER, OPTIONS):
            _check_against_reference(vs.current, levels, o)
    assert vs.rebuild_from_journal().levels == vs.current.levels
