"""Bloom filter for SSTable key membership.

Standard double-hashing construction (Kirsch-Mitzenmacher): ``k`` probe
positions derived from two independent 64-bit hashes of the key.  RocksDB
builds one filter per SST; a negative probe lets reads skip the file's data
blocks entirely, which is what keeps point-read I/O bounded as levels grow.

A key's hash pair depends only on the key, so an SST computes it once
(:func:`key_hashes`) and compaction carries it to every file the key is
rewritten into; :meth:`BloomFilter.add_all` takes the carried pairs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Optional

import numpy as np

__all__ = ["BloomFilter", "key_hashes"]


_unpack_u64_pair = struct.Struct("<QQ").unpack
_blake2b = hashlib.blake2b


def _hash128(key: bytes) -> tuple[int, int]:
    h1, h2 = _unpack_u64_pair(_blake2b(key, digest_size=16).digest())
    return h1, h2 | 1  # odd => good stride


def key_hashes(keys: Iterable[bytes]) -> np.ndarray:
    """The keys' :func:`_hash128` pairs as an ``(n, 2)`` uint64 array."""
    raw = b"".join(_blake2b(k, digest_size=16).digest() for k in keys)
    pairs = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).astype(np.uint64)
    pairs[:, 1] |= np.uint64(1)
    return pairs


class BloomFilter:
    """Fixed-size bloom filter with configurable bits/key."""

    def __init__(self, num_keys: int, bits_per_key: int = 10):
        if num_keys < 0:
            raise ValueError("num_keys must be >= 0")
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.num_bits = max(64, num_keys * bits_per_key)
        # optimal k = bits/key * ln2, clamped to [1, 30] like RocksDB
        self.k = max(1, min(30, int(round(bits_per_key * math.log(2)))))
        self._bits = 0  # big int as bit array: compact and fast in Python
        self.num_added = 0

    def add(self, key: bytes) -> None:
        self.add_all((key,))

    def add_all(self, keys: Iterable[bytes],
                hashes: Optional[np.ndarray] = None) -> None:
        """Set each key's ``k`` probe bits ``(h1 + i*h2) % n``, all at once.

        ``hashes``: the keys' :func:`key_hashes`, if the caller has them
        (``keys`` is then not read)."""
        if hashes is None:
            hashes = key_hashes(keys)
        n = self.num_bits
        nu = np.uint64(n)
        # h1 % n + i * (h2 % n) < 30 n: no uint64 overflow for any filter
        # that fits in memory.
        start = hashes[:, 0] % nu
        step = hashes[:, 1] % nu
        probes = np.arange(self.k, dtype=np.uint64)
        pos = (start[:, None] + step[:, None] * probes) % nu
        bitmap = np.zeros(n, dtype=bool)
        bitmap[pos.ravel()] = True
        packed = np.packbits(bitmap, bitorder="little")
        self._bits |= int.from_bytes(packed.tobytes(), "little")
        self.num_added += len(hashes)

    def may_contain(self, key: bytes,
                    hashes: Optional[tuple[int, int]] = None) -> bool:
        """``hashes``: ``_hash128(key)``, if the caller has it."""
        h1, h2 = _hash128(key) if hashes is None else hashes
        bits = self._bits
        n = self.num_bits
        for i in range(self.k):
            if not (bits >> ((h1 + i * h2) % n)) & 1:
                return False
        return True

    @property
    def size_bytes(self) -> int:
        return self.num_bits // 8

    def false_positive_rate(self) -> float:
        """Expected FP rate for the current fill level."""
        if self.num_added == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.k * self.num_added / self.num_bits)
        return fill ** self.k
