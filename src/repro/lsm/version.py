"""LSM version management: levels, manifest, compaction scores.

A :class:`Version` is an immutable snapshot of the level structure
(copy-on-write, so in-flight reads and compactions see consistent state
while new versions install).  It computes, once, the two statistics the
write-stall machinery watches: per-level compaction scores and the
estimated *pending compaction bytes* (RocksDB's
``estimated-pending-compaction-bytes``, the third stall trigger in the
paper's taxonomy).  :class:`VersionSet` applies :class:`VersionEdit` s,
persists them to a MANIFEST file, and audits each version it installs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Generator, NamedTuple, Optional, Sequence

from .options import LsmOptions
from .sstable import SSTable

__all__ = ["FileMetadata", "FileRecord", "VersionEdit", "Version",
           "VersionSet"]

_largest = attrgetter("largest")


@dataclass
class FileMetadata:
    """One SST file registered in a version.

    The table's bounds and size are copied to plain attributes: version
    installs, audits and lookups read them for every file of a level."""

    number: int
    level: int
    table: SSTable
    being_compacted: bool = False
    smallest: bytes = field(init=False, repr=False, compare=False)
    largest: bytes = field(init=False, repr=False, compare=False)
    file_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.table
        self.smallest, self.largest, self.file_bytes = (
            t.smallest, t.largest, t.file_bytes)


class FileRecord(NamedTuple):
    """What the MANIFEST records of an added file: never the table itself,
    so the journal does not keep compacted-away tables alive."""

    number: int
    level: int
    smallest: bytes
    largest: bytes
    file_bytes: int


def _record(f) -> FileRecord:
    return FileRecord(f.number, f.level, f.smallest, f.largest, f.file_bytes)


@dataclass
class VersionEdit:
    """A delta applied atomically: files added and files removed."""

    added: list = field(default_factory=list)    # FileMetadata
    removed: list = field(default_factory=list)  # (level, file_number)
    reason: str = ""

    def encoded_size(self) -> int:
        """Approximate manifest record size (for I/O charging)."""
        return 64 + 48 * len(self.added) + 16 * len(self.removed)


class Version:
    """Immutable level structure and the statistics derived from it.

    Levels are tuples, never mutated once built; a new version comes from
    :meth:`apply_edit`.  Per-level bytes and the newest-first L0 order are
    computed at construction, and the stall statistics (level targets,
    scores, pending compaction bytes) once per version on first query, so
    every poll of them is O(1).
    """

    def __init__(self, num_levels: int, levels: Optional[Sequence] = None,
                 level_bytes: Optional[Sequence[int]] = None):
        self.num_levels = num_levels
        self.levels = (tuple(tuple(lvl) for lvl in levels)
                       if levels is not None else ((),) * num_levels)
        self._level_bytes = tuple(
            level_bytes if level_bytes is not None
            else (sum(f.file_bytes for f in lvl) for lvl in self.levels))
        # L0 files may overlap: newer file numbers hold newer data.
        self.l0_newest_first = tuple(
            sorted(self.levels[0], key=lambda f: -f.number))
        self._stats = None   # (knobs, targets, scores, debt)

    def apply_edit(self, edit: VersionEdit) -> "Version":
        """The version that results from applying ``edit`` to this one.

        Only the levels the edit touches are rebuilt, and their bytes are
        derived from this version's: minus removed files, plus added ones.
        """
        levels = list(self.levels)
        level_bytes = list(self._level_bytes)
        removed = set(edit.removed)
        touched = {lvl for lvl, _ in edit.removed} | {m.level for m in edit.added}
        for level in touched:
            files = [f for f in levels[level] if (level, f.number) not in removed]
            new = [m for m in edit.added if m.level == level]
            level_bytes[level] += sum(m.file_bytes for m in new) - sum(
                f.file_bytes for f in levels[level] if (level, f.number) in removed)
            files += new
            if level > 0:
                files.sort(key=lambda f: f.smallest)
            levels[level] = files
        return Version(self.num_levels, levels, level_bytes)

    # -- queries ------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        return self._level_bytes[level]

    def level_files(self, level: int) -> tuple:
        return self.levels[level]

    @property
    def l0_count(self) -> int:
        return len(self.levels[0])

    def total_bytes(self) -> int:
        return sum(self._level_bytes)

    def total_files(self) -> int:
        return sum(len(l) for l in self.levels)

    def overlapping_files(self, level: int, smallest: bytes,
                          largest: bytes) -> list:
        return [f for f in self.levels[level]
                if f.table.overlaps(smallest, largest)]

    def files_for_key(self, key: bytes) -> Generator:
        """Yield candidate files newest-first: L0 by recency, then L1+.

        L0 files may overlap, so all covering files are candidates in file
        number order (newer numbers are newer data).  L1+ are disjoint, so
        at most one file per level matters.
        """
        for f in self.l0_newest_first:
            if f.smallest <= key <= f.largest:
                yield f
        for files in self.levels[1:]:
            lo = bisect_left(files, key, key=_largest)
            if lo < len(files) and files[lo].smallest <= key <= files[lo].largest:
                yield files[lo]

    # -- stall statistics -----------------------------------------------------
    def _stats_for(self, options: LsmOptions) -> tuple:
        """(knobs, targets, scores, pending bytes), computed once per
        version for the options' level-sizing knobs."""
        knobs = (options.max_bytes_for_level_base,
                 options.max_bytes_for_level_multiplier,
                 options.level0_file_num_compaction_trigger)
        stats = self._stats
        if stats is not None and stats[0] == knobs:
            return stats
        base, multiplier, trigger = knobs
        n, sizes = self.num_levels, self._level_bytes
        # Dynamic level size targets (RocksDB's
        # ``level_compaction_dynamic_level_bytes``, default since v8).  The
        # bottommost non-empty level is the resting place: its target is
        # its own size (never "over target").  Each level above targets
        # 1/multiplier of the one below, floored at base/multiplier, so
        # scores stay balanced as the tree deepens instead of letting a
        # statically-undersized L1 monopolize the picker.
        targets = [0.0] * n
        nonempty = [l for l in range(1, n) if self.levels[l]]
        bottom = max(nonempty) if nonempty else 1
        targets[bottom] = max(float(sizes[bottom]), float(base))
        floor = base / multiplier
        for level in range(bottom - 1, 0, -1):
            targets[level] = max(targets[level + 1] / multiplier, floor)
        for level in range(bottom + 1, n):
            targets[level] = max(targets[level - 1] * multiplier, float(base))
        # RocksDB-style scores: >= 1.0 means the level needs compaction.
        scores = [self.l0_count / trigger] + [
            sizes[level] / targets[level] for level in range(1, n)]
        # Pending bytes approximate RocksDB's estimate: every byte above a
        # level's target must move down (and be merged with overlap,
        # counted once here), and all L0 bytes beyond the compaction
        # trigger are debt.
        debt = sizes[0] if self.l0_count >= trigger else 0
        for level in range(1, n - 1):
            excess = sizes[level] - targets[level]
            if excess > 0:
                debt += int(excess)
        stats = self._stats = (knobs, tuple(targets), tuple(scores), debt)
        return stats

    def level_targets(self, options: LsmOptions) -> tuple:
        """Dynamic per-level size targets (see :meth:`_stats_for`)."""
        return self._stats_for(options)[1]

    def compaction_score(self, options: LsmOptions, level: int) -> float:
        """RocksDB-style score: >= 1.0 means the level needs compaction."""
        return self._stats_for(options)[2][level]

    def best_compaction_level(self, options: LsmOptions) -> tuple[int, float]:
        """(level, score) of the most urgent compaction candidate."""
        scores = self._stats_for(options)[2]
        best_level, best_score = -1, 0.0
        for level in range(self.num_levels - 1):
            if scores[level] > best_score:
                best_level, best_score = level, scores[level]
        return best_level, best_score

    def pending_compaction_bytes(self, options: LsmOptions) -> int:
        """Estimated bytes that must be rewritten to bring scores under 1."""
        return self._stats_for(options)[3]


class VersionSet:
    """Owner of the current version + MANIFEST persistence."""

    def __init__(self, options: LsmOptions, fs=None):
        self.options = options
        self.fs = fs
        self.current = Version(options.num_levels)
        self._next_file_number = 1
        self._manifest = None
        if fs is not None:
            self._manifest = fs.create("MANIFEST-000001")
        self.edit_count = 0
        # The durable edit journal (what the MANIFEST file contains: edits
        # whose added files are FileRecords); crash recovery replays it to
        # prove the version state is reconstructible.
        self.manifest_journal: list[VersionEdit] = []

    def new_file_number(self) -> int:
        n = self._next_file_number
        self._next_file_number += 1
        return n

    def log_and_apply(self, edit: VersionEdit) -> Generator:
        """Persist the edit and atomically install the new version.

        Manifest I/O happens *before* the in-memory switch: the apply ->
        validate -> install sequence contains no yields, so concurrent flush
        and compaction installs cannot lose each other's updates.
        """
        if self._manifest is not None:
            yield from self.fs.append(self._manifest, edit.encoded_size())
        new = self.current.apply_edit(edit)
        self._validate(new)
        self.current = new
        self.edit_count += 1
        self.manifest_journal.append(VersionEdit(
            added=list(map(_record, edit.added)),
            removed=list(edit.removed), reason=edit.reason))

    def apply(self, edit: VersionEdit) -> None:
        """Install an edit without manifest I/O (test/bootstrap helper)."""
        manifest, self._manifest = self._manifest, None
        try:
            gen = self.log_and_apply(edit)
            for _ in gen:  # no manifest -> no yields; loop never iterates
                raise AssertionError("unexpected I/O in apply()")
        finally:
            self._manifest = manifest

    def rebuild_from_journal(self) -> Version:
        """Replay the manifest journal from scratch (crash recovery).

        Returns the reconstructed version, its records resolved to the live
        files they name; raises if replay diverges from the in-memory
        current version (would indicate a lost update).
        """
        replayed = Version(self.options.num_levels)
        for edit in self.manifest_journal:
            replayed = replayed.apply_edit(edit)
        self._validate(replayed)
        if [list(lvl) for lvl in replayed.levels] != [
                [_record(f) for f in lvl] for lvl in self.current.levels]:
            got = [[r.number for r in lvl] for lvl in replayed.levels]
            want = [[f.number for f in lvl] for lvl in self.current.levels]
            raise AssertionError(
                f"manifest replay diverged: {got} != {want}")
        live = {f.number: f for lvl in self.current.levels for f in lvl}
        return Version(self.options.num_levels,
                       [[live[r.number] for r in lvl]
                        for lvl in replayed.levels])

    @staticmethod
    def _validate(version: Version) -> None:
        """Audit a version before it is installed: every level is a tuple
        whose cached bytes equal its files' sum, the cached L0 order is
        newest-first, and L1+ stay sorted and non-overlapping (the LSM
        invariant)."""
        for level, files in enumerate(version.levels):
            cached = version._level_bytes[level]
            total = sum(f.file_bytes for f in files)
            if not isinstance(files, tuple) or cached != total:
                raise AssertionError(
                    f"L{level} ({type(files).__name__}) cached bytes {cached}"
                    f" vs {total} summed over files "
                    f"{[f.number for f in files]}")
        newest_first = sorted(version.levels[0], key=lambda f: -f.number)
        if list(version.l0_newest_first) != newest_first:
            raise AssertionError(
                f"L0 cached order {[f.number for f in version.l0_newest_first]}"
                f" != newest-first {[f.number for f in newest_first]}")
        for level in range(1, version.num_levels):
            files = version.levels[level]
            for a, b in zip(files, files[1:]):
                if a.largest >= b.smallest:
                    raise AssertionError(
                        f"overlap at L{level}: #{a.number}[..{a.largest!r}] vs "
                        f"#{b.number}[{b.smallest!r}..]"
                    )
