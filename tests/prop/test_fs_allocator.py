"""Property tests for the file-layer extent allocator.

Invariants: live extents never overlap, deleted space is reusable, and
file sizes always equal the sum of their extents — under arbitrary
create/append/delete interleavings.
"""

import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_device  # noqa: E402

from repro.lsm import FileSystem, FsError  # noqa: E402
from repro.lsm.fs import FreeList  # noqa: E402
from repro.sim import Environment  # noqa: E402

# op := ("create"|"append"|"delete", file-id, size)
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["create", "append", "append", "delete"]),
              st.integers(0, 7),
              st.integers(1, 50_000)),
    min_size=1, max_size=60)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy)
def test_extents_never_overlap_and_sizes_add_up(ops):
    env = Environment()
    fs = FileSystem(small_device(env))
    live: dict[int, object] = {}

    def gen():
        for kind, fid, size in ops:
            name = f"f{fid}"
            if kind == "create":
                if not fs.exists(name):
                    live[fid] = fs.create(name)
            elif kind == "append":
                if fid in live:
                    yield from fs.append(live[fid], size)
            else:  # delete
                if fid in live:
                    fs.delete(name)
                    del live[fid]

    run(env, gen())

    # 1. no two live extents overlap
    extents = []
    for f in live.values():
        extents.extend(f.extents)
    extents.sort()
    for (o1, n1), (o2, _n2) in zip(extents, extents[1:]):
        assert o1 + n1 <= o2, f"overlap: ({o1},{n1}) vs ({o2},...)"

    # 2. file sizes equal their extent sums
    for f in live.values():
        assert f.size == sum(n for _o, n in f.extents)

    # 3. accounting matches
    assert fs.used_bytes == sum(f.size for f in live.values())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(1, 30_000), min_size=2, max_size=20))
def test_deleted_space_is_reused(sizes):
    """Writing, deleting, and rewriting the same sizes must not grow the
    allocation cursor the second time (first-fit reuse)."""
    env = Environment()
    fs = FileSystem(small_device(env))

    def write_all(gen_id):
        for i, size in enumerate(sizes):
            f = fs.create(f"g{gen_id}-{i}")
            yield from fs.append(f, size)

    run(env, write_all(0))
    cursor_after_first = fs._cursor
    for i in range(len(sizes)):
        fs.delete(f"g0-{i}")
    run(env, write_all(1))
    assert fs._cursor == cursor_after_first  # perfectly recycled


class _LinearFirstFit:
    """The allocator's free list before it was made sublinear: a plain
    list scanned front to back, used-up extents popped."""

    def __init__(self):
        self.free = []

    def put(self, off, n):
        self.free.append((off, n))

    def take(self, nbytes):
        for i, (off, n) in enumerate(self.free):
            if n >= nbytes:
                if n == nbytes:
                    self.free.pop(i)
                else:
                    self.free[i] = (off + nbytes, n - nbytes)
                return off
        return None


# op := ("put", size) | ("take", size); sizes from a few values so exact
# fits, and so used-up slots and squeezes, are common.
_free_ops = st.lists(
    st.tuples(st.sampled_from(["put", "take", "take"]),
              st.sampled_from([1, 2, 3, 5, 8, 64, 100, 4096])),
    min_size=1, max_size=400)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_free_ops, st.sampled_from([1, 2, 4, 64]))
def test_free_list_takes_what_a_linear_scan_takes(ops, block):
    fast, slow = FreeList(), _LinearFirstFit()
    fast.BLOCK = block
    next_off = 0
    for kind, size in ops:
        if kind == "put":
            fast.put(next_off, size)
            slow.put(next_off, size)
            next_off += size
        else:
            assert fast.take(size) == slow.take(size)
        assert fast.extents() == slow.free
        # Each block's cached maximum is exact, so no block is scanned
        # in vain.
        slots = fast._slots
        assert fast._block_max == [max(n for _, n in slots[i:i + block])
                                   for i in range(0, len(slots), block)]
