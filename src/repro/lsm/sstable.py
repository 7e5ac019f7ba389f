"""Sorted String Tables.

An SST holds a sorted, key-unique list of entries partitioned into
fixed-byte-budget data blocks, plus an index (first key per block) and a
per-file bloom filter.  Point reads touch the bloom and index in memory
(RocksDB pins them in block cache) and pay device I/O for exactly the data
blocks fetched — :meth:`SSTable.probe` returns the byte count so the DB can
charge the device model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter, lt
from typing import Iterator, Optional, Sequence

import numpy as np

from ..types import Entry, entry_size
from .bloom import BloomFilter, key_hashes
from .codec import decode_block, encode_block

__all__ = ["SSTable", "ProbeResult", "chunk_starts"]

_entry_key = itemgetter(0)


def chunk_starts(cum: Sequence[int], budget: int) -> list:
    """Where each chunk starts when entries are packed in order, a chunk
    taking entries while its byte total stays within ``budget`` (and at
    least one entry).  ``cum`` holds the entries' prefix byte sums, from
    ``cum[0] == 0`` to the total."""
    starts = []
    i, n = 0, len(cum) - 1
    while i < n:
        starts.append(i)
        j = bisect_right(cum, cum[i] + budget, i + 1) - 1
        i = j if j > i else i + 1
    return starts


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a point probe: the entry (if any) and the I/O it cost."""

    entry: Optional[Entry]
    bytes_read: int
    bloom_negative: bool = False


class SSTable:
    """Immutable sorted table.

    Besides the entries it keeps, in compact arrays, each entry's
    :func:`entry_size` (``sizes``) and key hash pair (``hashes``, see
    :func:`key_hashes`); compaction carries both into its outputs, so a
    key is sized and hashed once over its whole life in the tree.
    """

    def __init__(self, file_number: int, entries: Sequence[Entry],
                 block_size: int = 16 * 1024, bloom_bits_per_key: int = 10,
                 sizes: Optional[Sequence[int]] = None,
                 hashes: Optional[np.ndarray] = None):
        """``sizes``/``hashes``: the entries' :func:`entry_size` and key
        hash pairs, if the caller has them."""
        if not entries:
            raise ValueError("SSTable cannot be empty")
        self.file_number = file_number
        self.entries = list(entries)
        self.block_size = block_size
        keys = list(map(_entry_key, self.entries))
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("entries must be sorted and key-unique")
        self.smallest = keys[0]
        self.largest = keys[-1]
        if sizes is None:
            sizes = list(map(entry_size, self.entries))
        # Copies, so a table never pins the buffer its arrays came from.
        self.sizes = np.array(sizes, dtype=np.int64)
        self.hashes = (key_hashes(keys) if hashes is None
                       else np.array(hashes, dtype=np.uint64))
        if len(self.sizes) != len(keys) or len(self.hashes) != len(keys):
            raise ValueError("one size and one hash pair per entry")

        # Partition into blocks by byte budget.
        cum = [0]
        cum += np.cumsum(self.sizes).tolist()
        starts = self._block_starts = chunk_starts(cum, block_size)
        self._block_first_keys = [keys[s] for s in starts]
        self._block_bytes = [cum[e] - cum[s] for s, e in
                             zip(starts, starts[1:] + [len(keys)])]
        self.data_bytes = cum[-1]
        self.bloom = BloomFilter(len(keys), bloom_bits_per_key)
        self.bloom.add_all(keys, self.hashes)
        # File footprint: data + filter + index approximation.
        self.file_bytes = (self.data_bytes + self.bloom.size_bytes
                           + 24 * len(self._block_starts) + 128)

    # -- introspection ----------------------------------------------------
    @property
    def num_entries(self) -> int:
        return len(self.entries)

    @property
    def num_blocks(self) -> int:
        return len(self._block_starts)

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        return not (self.largest < smallest or largest < self.smallest)

    # -- reads -----------------------------------------------------------
    def _block_for(self, key: bytes) -> int:
        """Index of the block that could hold ``key`` (-1 if before all)."""
        return bisect_right(self._block_first_keys, key) - 1

    def probe(self, key: bytes,
              hashes: Optional[tuple[int, int]] = None) -> ProbeResult:
        """Point lookup with cost accounting.

        Bloom negative => zero I/O.  Otherwise one data block is read.
        ``hashes``: the key's hash pair, if the caller has it (see
        :meth:`BloomFilter.may_contain`).
        """
        if key < self.smallest or key > self.largest:
            return ProbeResult(None, 0, bloom_negative=False)
        if not self.bloom.may_contain(key, hashes):
            return ProbeResult(None, 0, bloom_negative=True)
        b = self._block_for(key)
        if b < 0:
            return ProbeResult(None, 0)
        cost = self._block_bytes[b]
        start = self._block_starts[b]
        end = (self._block_starts[b + 1] if b + 1 < len(self._block_starts)
               else len(self.entries))
        lo = bisect_left(self.entries, key, start, end, key=_entry_key)
        if lo < end and self.entries[lo][0] == key:
            return ProbeResult(self.entries[lo], cost)
        return ProbeResult(None, cost)

    def lower_bound(self, key: bytes) -> int:
        """Entry index of the first key >= ``key``."""
        return bisect_left(self.entries, key, key=_entry_key)

    def iter_from(self, key: Optional[bytes] = None) -> Iterator[Entry]:
        start = 0 if key is None else self.lower_bound(key)
        return iter(self.entries[start:])

    def block_of_entry(self, idx: int) -> int:
        """Block index containing entry ``idx`` (for scan I/O accounting)."""
        return bisect_right(self._block_starts, idx) - 1

    def block_bytes(self, block_idx: int) -> int:
        return self._block_bytes[block_idx]

    # -- serialization (tests / durability example) --------------------------
    def to_bytes(self) -> bytes:
        return encode_block(self.entries)

    @classmethod
    def from_bytes(cls, file_number: int, data: bytes,
                   block_size: int = 16 * 1024,
                   bloom_bits_per_key: int = 10) -> "SSTable":
        return cls(file_number, decode_block(data), block_size, bloom_bits_per_key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SSTable(#{self.file_number}, n={self.num_entries}, "
                f"[{self.smallest!r}..{self.largest!r}])")
