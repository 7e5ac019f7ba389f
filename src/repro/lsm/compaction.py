"""Compaction picking and merging.

Leveled compaction à la RocksDB/LevelDB:

* L0 -> L1: all (non-busy) L0 files plus every overlapping L1 file.  L0
  files overlap each other, so this compaction is *serialized* — at most
  one runs at a time.  That serialization is the root of the paper's
  stall class #2.
* Ln -> Ln+1 (n >= 1): one input file chosen round-robin by key cursor,
  plus the overlapping files in the next level.

Merging is newest-wins by sequence number; tombstones are dropped only
when the output level is the bottommost (no older data below can
resurrect).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter, ne
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..types import KIND_DELETE, entry_size
from .options import LsmOptions
from .sstable import chunk_starts
from .version import Version

__all__ = ["CompactionJob", "CompactionPicker", "MergedRun",
           "merge_for_compaction", "split_into_files"]

_entry_key = itemgetter(0)
_entry_seq = itemgetter(1)
_entry_kind = itemgetter(2)


@dataclass
class CompactionJob:
    """A picked compaction: inputs at two adjacent levels."""

    level: int
    output_level: int
    inputs_low: list = field(default_factory=list)   # FileMetadata at `level`
    inputs_high: list = field(default_factory=list)  # FileMetadata at output
    # Output files created but not yet installed — deleted as orphans if a
    # crash interrupts the job before its version edit lands.
    partial_outputs: list = field(default_factory=list)

    @property
    def all_inputs(self) -> list:
        return self.inputs_low + self.inputs_high

    @property
    def input_bytes(self) -> int:
        return sum(f.file_bytes for f in self.all_inputs)

    @property
    def is_l0(self) -> bool:
        return self.level == 0


class CompactionPicker:
    """Chooses the most urgent compaction from a version."""

    def __init__(self, options: LsmOptions):
        self.options = options
        # round-robin cursors: next smallest-key to compact per level
        self._cursors: dict[int, bytes] = {}

    def pick(self, version: Version) -> Optional[CompactionJob]:
        opt = self.options
        # Candidate levels with score >= 1, most urgent first.  Dynamic
        # level targets (Version.level_targets) keep L1+ scores balanced,
        # so a count-pressured L0 naturally outbids them.
        scored = []
        for level in range(version.num_levels - 1):
            score = version.compaction_score(opt, level)
            if score >= 1.0:
                scored.append((score, level))
        scored.sort(key=lambda sl: (-sl[0], sl[1]))
        for _score, level in scored:
            job = self._pick_level(version, level)
            if job is not None:
                return job
        return None

    def _pick_level(self, version: Version, level: int) -> Optional[CompactionJob]:
        if level == 0:
            return self._pick_l0(version)
        files = [f for f in version.level_files(level) if not f.being_compacted]
        if not files:
            return None
        cursor = self._cursors.get(level, b"")
        candidates = [f for f in files if f.smallest > cursor] or files
        low = candidates[0]
        highs = version.overlapping_files(level + 1, low.smallest, low.largest)
        if any(f.being_compacted for f in highs):
            return None
        self._cursors[level] = low.smallest
        return CompactionJob(level=level, output_level=level + 1,
                             inputs_low=[low], inputs_high=highs)

    def _pick_l0(self, version: Version) -> Optional[CompactionJob]:
        l0 = version.level_files(0)
        if not l0:
            return None
        if any(f.being_compacted for f in l0):
            return None  # L0 -> L1 is serialized
        smallest = min(f.smallest for f in l0)
        largest = max(f.largest for f in l0)
        highs = version.overlapping_files(1, smallest, largest)
        if any(f.being_compacted for f in highs):
            return None
        return CompactionJob(level=0, output_level=1,
                             inputs_low=list(l0), inputs_high=highs)


class MergedRun(NamedTuple):
    """A compaction's merged output: entries in key order, one per key,
    with their sizes and key hash pairs carried from the input tables."""

    entries: list
    sizes: np.ndarray    # int64, entry_size of each entry
    hashes: np.ndarray   # (n, 2) uint64, key_hashes of each key


def merge_for_compaction(job: CompactionJob, num_levels: int) -> MergedRun:
    """Merged, deduplicated output for a compaction job.

    The inputs are concatenated in job order and sorted by ``(key, -seq)``
    with stable C-level sorts, so entries with equal ``(key, seq)`` keep
    input order exactly as :func:`~repro.lsm.iterator.k_way_merge` orders
    them; the first entry of each key survives (newest wins).  Tombstones
    survive unless the output level is the bottommost.  The survivors'
    sizes and hashes are gathered from the inputs' arrays, not recomputed.
    """
    tables = [f.table for f in job.all_inputs]
    entries = list(chain.from_iterable(t.entries for t in tables))
    n = len(entries)
    keys = list(map(_entry_key, entries))
    # Each input is a sorted run: the key sort merges runs.
    order = sorted(range(n), key=keys.__getitem__)
    sorted_keys = list(map(keys.__getitem__, order))
    first = np.ones(n, dtype=bool)    # first entry of its key
    first[1:] = np.fromiter(map(ne, islice(sorted_keys, 1, None), sorted_keys),
                            dtype=bool, count=n - 1)
    order = np.array(order, dtype=np.intp)
    if not first.all():
        # Within a key, newest first; lexsort is stable, so equal
        # (key, seq) entries keep input order.
        seqs = np.fromiter(map(_entry_seq, entries), dtype=np.int64, count=n)
        order = order[np.lexsort((-seqs[order], np.cumsum(first)))]
    keep = order[first]
    if job.output_level == num_levels - 1:
        kinds = np.fromiter(map(_entry_kind, entries), dtype=np.int8, count=n)
        keep = keep[kinds[keep] != KIND_DELETE]
    return MergedRun(
        list(map(entries.__getitem__, keep.tolist())),
        np.concatenate([t.sizes for t in tables])[keep],
        np.concatenate([t.hashes for t in tables])[keep])


def split_into_files(entries: list, target_bytes: int,
                     sizes: Optional[Sequence[int]] = None) -> list:
    """Partition merged output into SST-sized chunks.

    ``sizes`` are the entries' :func:`entry_size` values when the caller
    already has them (a compaction carries them from its inputs)."""
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    if sizes is None:
        sizes = list(map(entry_size, entries))
    if len(sizes) != len(entries):
        raise ValueError("one size per entry")
    cum = [0]
    cum += np.cumsum(sizes, dtype=np.int64).tolist()
    starts = chunk_starts(cum, target_bytes)
    return [entries[s:e] for s, e in zip(starts, starts[1:] + [len(entries)])]
