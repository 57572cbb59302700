"""Simulated non-volatile memory: a volatile/persistent store pair plus a
persistent undo log.

Writes take effect in the volatile store only.  A flush copies one address
from the volatile store to the persistent store.  A crash replaces the
volatile store with the persistent one.  The undo log is held in persistent
memory and is therefore untouched by crashes; its operations are atomic.

All containers are immutable tuple-backed values, so machine states built
from them hash and compare structurally, in C.  Every value the methods
return comes from a private constructor that hands out one shared object
per distinct value (hash-consing), so the states of a run share their
memories and logs instead of holding equal copies.  ``shared`` and
``with_entry`` do the same for the tuples that the machines build their
states from.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

# entries of each memo that shares state parts; both machines draw on
# ``shared`` and ``with_entry``.  The 28-step 2x2x2 sweep with all four
# checks takes 335,553 hits and 1,866 misses in ``with_entry``, 36,151 and
# 638 in ``shared``, 78,986 and 12 in ``_pair`` and 2,405 and 6 in
# ``_log``; the size holds the 7,565 distinct tuples of the whole 3x1x2
# DTML graph
PART_MEMO_SIZE = 8192


@lru_cache(maxsize=PART_MEMO_SIZE)
def shared(part: tuple) -> tuple:
    """The one shared tuple equal to part.  No state field holds a bool,
    so a key that compares equal is the same value."""
    return part


@lru_cache(maxsize=PART_MEMO_SIZE)
def with_entry(fields: tuple, i: int, value) -> tuple:
    """The shared tuple ``fields`` with entry i replaced by value."""
    return shared(fields[:i] + (value,) + fields[i + 1:])


class MemoryPair(NamedTuple):
    """Volatile store and persistent store, total over a fixed address range."""

    vstore: tuple[int, ...]
    pstore: tuple[int, ...]

    @staticmethod
    def initial(num_addrs: int) -> "MemoryPair":
        if num_addrs < 1:
            raise ValueError("need at least one address")
        zeros = (0,) * num_addrs
        return _pair(zeros, zeros)

    def _check(self, addr: int) -> None:
        if not 0 <= addr < len(self.vstore):
            raise IndexError(f"address {addr} out of range 0..{len(self.vstore) - 1}")

    def read(self, addr: int) -> int:
        self._check(addr)
        return self.vstore[addr]

    def write(self, addr: int, val: int) -> "MemoryPair":
        self._check(addr)
        v = list(self.vstore)
        v[addr] = val
        return _pair(tuple(v), self.pstore)

    def flush(self, addr: int) -> "MemoryPair":
        self._check(addr)
        p = list(self.pstore)
        p[addr] = self.vstore[addr]
        return _pair(self.vstore, tuple(p))

    def crash_reset(self) -> "MemoryPair":
        return _pair(self.pstore, self.pstore)


class UndoLog(NamedTuple):
    """Persistent map from address to saved value, at most one entry per address.

    Stored as a sorted tuple of pairs so equal logs compare and hash equal
    regardless of insertion order.
    """

    entries: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def empty() -> "UndoLog":
        return _log(())

    def is_empty(self) -> bool:
        return not self.entries

    def domain(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.entries)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self.entries

    def contains_addr(self, addr: int) -> bool:
        return any(a == addr for a, _ in self.entries)

    def lookup(self, addr: int) -> int:
        for a, v in self.entries:
            if a == addr:
                return v
        raise KeyError(addr)

    def pinsert(self, addr: int, val: int) -> "UndoLog":
        if self.contains_addr(addr):
            raise ValueError(f"log already holds an entry for address {addr}")
        return _log(tuple(sorted(self.entries + ((addr, val),))))

    def pdelete(self, addr: int, val: int) -> "UndoLog":
        if (addr, val) not in self.entries:
            raise ValueError(f"log holds no entry ({addr}, {val})")
        return _log(tuple(e for e in self.entries if e != (addr, val)))

    def pempty(self) -> "UndoLog":
        return _log(())


@lru_cache(maxsize=PART_MEMO_SIZE)
def _pair(vstore: tuple[int, ...], pstore: tuple[int, ...]) -> MemoryPair:
    """The one shared memory pair with these stores."""
    return MemoryPair(vstore, pstore)


@lru_cache(maxsize=PART_MEMO_SIZE)
def _log(entries: tuple[tuple[int, int], ...]) -> UndoLog:
    """The one shared undo log with these entries."""
    return UndoLog(entries)
