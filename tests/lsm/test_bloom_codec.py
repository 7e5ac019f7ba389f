"""Tests for the bloom filter and the binary codec."""

import hashlib

import pytest

from repro.lsm import (
    BloomFilter,
    decode_block,
    decode_entry,
    decode_varint,
    encode_block,
    encode_entry,
    encode_varint,
)
from repro.types import KIND_DELETE, ValueRef, encode_key, make_entry


class TestBloom:
    def test_no_false_negatives(self):
        bf = BloomFilter(200, bits_per_key=10)
        keys = [encode_key(i) for i in range(200)]
        bf.add_all(keys)
        assert all(bf.may_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter(1000, bits_per_key=10)
        bf.add_all(encode_key(i) for i in range(1000))
        fp = sum(bf.may_contain(encode_key(i)) for i in range(10_000, 30_000))
        # 10 bits/key should be ~1% FP; allow generous slack.
        assert fp / 20_000 < 0.05
        assert bf.false_positive_rate() < 0.05

    @pytest.mark.parametrize("n,bits_per_key,digest", [
        (300, 10, "7545123f16f715a19f05cb56"),
        (7, 3, "74f5fde4d1553fdbfa37e5cc"),
        (1000, 16, "99d0ce4939980b56c0650560"),
    ])
    def test_bits_pinned_and_batch_equals_single(self, n, bits_per_key,
                                                 digest):
        keys = [encode_key(i * 37) for i in range(n)]
        single = BloomFilter(n, bits_per_key)
        for k in keys:
            single.add(k)
        batch = BloomFilter(n, bits_per_key)
        batch.add_all(keys)
        assert batch._bits == single._bits
        assert batch.num_added == single.num_added == n
        raw = batch._bits.to_bytes(batch.num_bits // 8 + 1, "little")
        assert hashlib.sha256(raw).hexdigest()[:24] == digest

    def test_empty_filter_rejects(self):
        bf = BloomFilter(0)
        assert not bf.may_contain(b"anything")
        assert bf.false_positive_rate() == 0.0

    def test_size_scales_with_keys(self):
        assert BloomFilter(10_000).size_bytes > BloomFilter(100).size_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(-1)
        with pytest.raises(ValueError):
            BloomFilter(10, bits_per_key=0)


class TestVarint:
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, n):
        buf = encode_varint(n)
        val, pos = decode_varint(buf)
        assert val == n
        assert pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11)


class TestEntryCodec:
    def test_put_roundtrip(self):
        e = make_entry(encode_key(42), 1234, b"the value")
        buf = encode_entry(e)
        got, pos = decode_entry(buf)
        assert got == e
        assert pos == len(buf)

    def test_delete_roundtrip(self):
        e = make_entry(encode_key(7), 99, None, kind=KIND_DELETE)
        got, _ = decode_entry(encode_entry(e))
        assert got[2] == KIND_DELETE
        assert got[3] is None

    def test_valueref_materializes_deterministically(self):
        e = make_entry(encode_key(1), 5, ValueRef(seed=77, size=100))
        b1 = encode_entry(e)
        b2 = encode_entry(e)
        assert b1 == b2
        got, _ = decode_entry(b1)
        assert len(got[3]) == 100

    def test_block_roundtrip(self):
        entries = [make_entry(encode_key(i), i, b"v%d" % i) for i in range(20)]
        assert decode_block(encode_block(entries)) == entries

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            encode_entry((b"k", 1, 9, b"v"))

    def test_truncated_block(self):
        buf = encode_entry(make_entry(b"key", 1, b"value"))
        with pytest.raises(ValueError):
            decode_block(buf[:-2])
