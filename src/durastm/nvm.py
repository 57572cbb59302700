"""Simulated non-volatile memory: a volatile/persistent store pair plus a
persistent undo log.

Writes take effect in the volatile store only.  A flush copies one address
from the volatile store to the persistent store.  A crash replaces the
volatile store with the persistent one.  The undo log is held in persistent
memory and is therefore untouched by crashes; its operations are atomic.

All containers are immutable tuple-backed values, so machine states built
from them hash and compare structurally, in C.
"""
from __future__ import annotations

from typing import NamedTuple


class MemoryPair(NamedTuple):
    """Volatile store and persistent store, total over a fixed address range."""

    vstore: tuple[int, ...]
    pstore: tuple[int, ...]

    @staticmethod
    def initial(num_addrs: int) -> "MemoryPair":
        if num_addrs < 1:
            raise ValueError("need at least one address")
        zeros = (0,) * num_addrs
        return MemoryPair(zeros, zeros)

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
        return MemoryPair(tuple(v), self.pstore)

    def flush(self, addr: int) -> "MemoryPair":
        self._check(addr)
        p = list(self.pstore)
        p[addr] = self.vstore[addr]
        return MemoryPair(self.vstore, tuple(p))

    def crash_reset(self) -> "MemoryPair":
        return MemoryPair(self.pstore, self.pstore)


class UndoLog(NamedTuple):
    """Persistent map from address to saved value, at most one entry per address.

    Stored as a sorted tuple of pairs so equal logs compare and hash equal
    regardless of insertion order.
    """

    entries: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def empty() -> "UndoLog":
        return UndoLog(())

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
        return UndoLog(tuple(sorted(self.entries + ((addr, val),))))

    def pdelete(self, addr: int, val: int) -> "UndoLog":
        if (addr, val) not in self.entries:
            raise ValueError(f"log holds no entry ({addr}, {val})")
        return UndoLog(tuple(e for e in self.entries if e != (addr, val)))

    def pempty(self) -> "UndoLog":
        return UndoLog(())
