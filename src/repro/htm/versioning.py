"""Eager version management: the undo log.

The baseline uses eager version management (paper §2): speculative
stores are performed in place and the pre-store bytes are logged; an
abort restores the log in reverse order.  Rollback is modeled as
zero-cycle, matching the paper's aggressive baseline.
"""

from __future__ import annotations

from repro.mem.memory import MainMemory


class UndoLog:
    """Per-transaction log of overwritten bytes."""

    def __init__(self) -> None:
        self._entries: list[tuple[int, bytes]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, memory: MainMemory, addr: int, size: int) -> None:
        """Log the current bytes at [addr, addr+size) before a store."""
        self._entries.append((addr, memory.read_bytes(addr, size)))

    def rollback(self, memory: MainMemory) -> None:
        """Restore all logged bytes, newest first."""
        for addr, data in reversed(self._entries):
            memory.write_bytes(addr, data)
        self._entries.clear()

    def commit(self) -> None:
        """Discard the log (speculative values become architectural)."""
        self._entries.clear()

    def pre_image(self) -> dict[int, int]:
        """Per-byte pre-transaction values of every logged location.

        The first record for a byte wins: that is the value the byte
        held when the transaction first overwrote it.  The repair
        oracle reads a committer's byte here when a dependent
        overwrote it.
        """
        image: dict[int, int] = {}
        for addr, data in self._entries:
            for i, byte in enumerate(data):
                image.setdefault(addr + i, byte)
        return image
