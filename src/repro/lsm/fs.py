"""Minimal extent-based file layer over the block device.

The host LSM needs just enough of a file system for SSTs, WAL segments and
the MANIFEST: named append-only files backed by byte extents on the block
region.  Extent allocation is first-fit over a free list with a bump
cursor, and deletes return extents for reuse — so a long fillrandom run
recycles the space of compacted-away SSTs instead of marching off the end
of the device.

All I/O charging flows through the underlying :class:`BlockDevice`, so PCIe
and NAND ledgers see every file operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..device.block_dev import BlockDevice
from ..faults.registry import fault_point

__all__ = ["FileSystem", "FreeList", "SimFile", "FsError", "PageCache"]


class PageCache:
    """Host page cache for recently *written* files.

    Freshly flushed SSTs (especially L0) sit in the OS page cache, so the
    immediately following L0->L1 compaction reads them without touching the
    device.  That host-side caching is what produces the paper's
    zero-PCIe-traffic windows inside write stalls (Figs 4/5): the merge
    phase runs from cache, silent on the link, then bursts when writing
    output.

    Granularity is whole files with LRU eviction by insertion/touch order;
    reads do not populate (write-back behaviour only), keeping the model
    conservative about read caching.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity = capacity_bytes
        self._files: dict[str, int] = {}  # name -> cached bytes, LRU order
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def insert(self, name: str, nbytes: int) -> None:
        """(Re)cache a file at ``nbytes``, placing it at MRU position."""
        if self.capacity == 0:
            return
        self._bytes -= self._files.pop(name, 0)
        self._files[name] = nbytes
        self._bytes += nbytes
        self._evict_over_capacity(keep=name)

    def _evict_over_capacity(self, keep: str) -> None:
        while self._bytes > self.capacity and self._files:
            victim = next(iter(self._files))
            if victim == keep and len(self._files) == 1:
                break  # keep at least the file just written
            self._bytes -= self._files.pop(victim)

    def grow(self, name: str, nbytes: int) -> None:
        """Extend a cached file by an appended extent (MRU touch)."""
        if self.capacity == 0:
            return
        cur = self._files.pop(name, 0)
        self._files[name] = cur + nbytes
        self._bytes += nbytes
        self._evict_over_capacity(keep=name)

    def contains(self, name: str) -> bool:
        hit = name in self._files
        if hit:
            # touch: move to MRU
            self._files[name] = self._files.pop(name)
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def evict(self, name: str) -> None:
        self._bytes -= self._files.pop(name, 0)

    @property
    def used_bytes(self) -> int:
        return self._bytes


class FreeList:
    """Free extents in first-fit order, searched in sublinear time.

    :meth:`take` returns exactly what a linear first-fit scan of the list
    would (the offsets chosen set the FTL's LPNs, so they must not change),
    but skips whole blocks of :data:`BLOCK` slots whose largest extent is
    too small.  A used-up extent leaves an empty slot, so slots never
    shift; empty slots are squeezed out once they are the majority.
    """

    BLOCK = 64

    def __init__(self) -> None:
        self._slots: list[tuple[int, int]] = []   # (offset, nbytes)
        self._block_max: list[int] = []           # largest nbytes per block
        self._empty = 0

    def extents(self) -> list:
        """The free extents, in first-fit order."""
        return [x for x in self._slots if x[1]]

    def put(self, offset: int, nbytes: int) -> None:
        """Return an extent; it goes last in first-fit order."""
        slots, block_max = self._slots, self._block_max
        if len(slots) % self.BLOCK:
            block_max[-1] = max(block_max[-1], nbytes)
        else:
            block_max.append(nbytes)
        slots.append((offset, nbytes))

    def take(self, nbytes: int) -> Optional[int]:
        """Offset of ``nbytes`` (> 0) cut from the first extent that holds
        them, or None if none does."""
        slots, block_max, width = self._slots, self._block_max, self.BLOCK
        for b, biggest in enumerate(block_max):
            if biggest < nbytes:
                continue
            lo = b * width
            hi = lo + width
            for i in range(lo, min(hi, len(slots))):
                off, n = slots[i]
                if n >= nbytes:
                    slots[i] = (off + nbytes, n - nbytes)
                    if n == biggest:
                        block_max[b] = max(x[1] for x in slots[lo:hi])
                    if n == nbytes:
                        self._empty += 1
                        if self._empty * 2 > len(slots):
                            self._squeeze()
                    return off
        return None

    def _squeeze(self) -> None:
        slots = self.extents()
        self._slots, self._block_max, self._empty = [], [], 0
        for off, n in slots:
            self.put(off, n)


class FsError(RuntimeError):
    """File-layer misuse: duplicate create, missing file, out of space."""


@dataclass
class SimFile:
    """A named append-only file as a list of (offset, nbytes) extents."""

    name: str
    extents: list = field(default_factory=list)
    size: int = 0
    closed: bool = False


class FileSystem:
    """Extent allocator + name table over one block device."""

    def __init__(self, device: BlockDevice, reserve: int = 0,
                 page_cache: Optional[PageCache] = None):
        self.device = device
        self._files: dict[str, SimFile] = {}
        self._cursor = reserve          # bytes [0, reserve) left for superblock
        self._free = FreeList()
        self.capacity = device.capacity_bytes
        self.page_cache = page_cache

    # -- namespace ----------------------------------------------------------
    def create(self, name: str) -> SimFile:
        if name in self._files:
            raise FsError(f"file exists: {name}")
        f = SimFile(name)
        self._files[name] = f
        return f

    def open(self, name: str) -> SimFile:
        try:
            return self._files[name]
        except KeyError:
            raise FsError(f"no such file: {name}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        f = self._files.pop(name, None)
        if f is None:
            raise FsError(f"no such file: {name}")
        for off, n in f.extents:
            self.device.trim(off, n)
            self._free.put(off, n)
        if self.page_cache is not None:
            self.page_cache.evict(name)
        f.closed = True

    def list_files(self) -> list[str]:
        return sorted(self._files)

    @property
    def used_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    # -- allocation ----------------------------------------------------------
    def _allocate(self, nbytes: int) -> tuple[int, int]:
        off = self._free.take(nbytes)
        if off is not None:
            return off, nbytes
        if self._cursor + nbytes > self.capacity:
            raise FsError(
                f"device full: need {nbytes}, cursor {self._cursor}, "
                f"capacity {self.capacity}"
            )
        off = self._cursor
        self._cursor += nbytes
        return off, nbytes

    # -- I/O ------------------------------------------------------------------
    def append(self, f: SimFile, nbytes: int, priority: int = 0) -> Generator:
        """Append ``nbytes`` to ``f`` (blocking process generator)."""
        if f.closed:
            raise FsError(f"file deleted: {f.name}")
        if nbytes <= 0:
            return
        off, n = self._allocate(nbytes)
        f.extents.append((off, n))
        f.size += n
        env = self.device.env
        if env.faults is not None or env.journal is not None:
            # Between allocation and the device write: a crash here models
            # a torn append (space claimed, data never made it to media).
            yield from fault_point(env, "fs.append.alloc")
        yield from self.device.write(off, n, priority=priority)
        if self.page_cache is not None:
            self.page_cache.grow(f.name, n)
        if env.faults is not None or env.journal is not None:
            yield from fault_point(env, "fs.append.complete")

    def read(self, f: SimFile, offset: int, nbytes: int,
             priority: int = 0) -> Generator:
        """Read ``nbytes`` at file ``offset`` (blocking process generator)."""
        if f.closed:
            raise FsError(f"file deleted: {f.name}")
        if offset < 0 or offset + nbytes > f.size:
            raise FsError(
                f"read beyond EOF: {f.name} offset={offset} n={nbytes} size={f.size}"
            )
        if self.device.env.faults is not None or self.device.env.journal is not None:
            # Probed before the page-cache check so cache-served reads are
            # still injectable (modeled read failure, not media failure).
            yield from fault_point(self.device.env, "fs.read.start")
        if self.page_cache is not None and self.page_cache.contains(f.name):
            return  # served from host page cache: no device traffic
        remaining = nbytes
        pos = 0
        for ext_off, ext_n in f.extents:
            if remaining <= 0:
                break
            # Overlap of [offset, offset+nbytes) with this extent's file range.
            ext_start, ext_end = pos, pos + ext_n
            lo = max(offset, ext_start)
            hi = min(offset + nbytes, ext_end)
            if hi > lo:
                dev_off = ext_off + (lo - ext_start)
                yield from self.device.read(dev_off, hi - lo,
                                            priority=priority)
                remaining -= hi - lo
            pos = ext_end

    def read_all(self, f: SimFile) -> Generator:
        yield from self.read(f, 0, f.size)
