"""Bloom filter for SSTable key membership.

Standard double-hashing construction (Kirsch-Mitzenmacher): ``k`` probe
positions derived from two independent 64-bit hashes of the key.  RocksDB
builds one filter per SST; a negative probe lets reads skip the file's data
blocks entirely, which is what keeps point-read I/O bounded as levels grow.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable

__all__ = ["BloomFilter"]


_unpack_u64_pair = struct.Struct("<QQ").unpack


def _hash128(key: bytes) -> tuple[int, int]:
    h1, h2 = _unpack_u64_pair(hashlib.blake2b(key, digest_size=16).digest())
    return h1, h2 | 1  # odd => good stride


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

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Set each key's ``k`` probe bits ``(h1 + i*h2) % n`` in a byte
        buffer, stepped without the multiply; merge with one big-int OR."""
        n, k = self.num_bits, self.k
        buf = bytearray((n + 7) // 8)
        added = 0
        for key in keys:
            h1, h2 = _hash128(key)
            pos, step = h1 % n, h2 % n
            for _ in range(k):
                buf[pos >> 3] |= 1 << (pos & 7)
                pos += step
                if pos >= n:
                    pos -= n
            added += 1
        self._bits |= int.from_bytes(buf, "little")
        self.num_added += added

    def may_contain(self, key: bytes) -> bool:
        h1, h2 = _hash128(key)
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
