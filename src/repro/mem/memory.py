"""Flat, sparse, byte-addressable main memory.

Memory is stored as a sparse map from block number to a 64-byte
``bytearray``.  Integer reads and writes use little-endian encoding;
reads sign-extend (the workloads use signed counters, e.g. reference
counts that are decremented).

:class:`WriteBuffer` is the same encoding held privately: lazy version
management (the STM slow path, plain LazyTM) beside the eager
:class:`repro.htm.versioning.UndoLog`.  :func:`narrow` is the rule both
share with the RETCON store buffer — a buffered store holds what
memory would hold.
"""

from __future__ import annotations

from repro.mem.address import BLOCK_SIZE, block_base, block_of

_VALID_SIZES = (1, 2, 4, 8)

# Shift/mask forms of the block arithmetic for the single-block fast
# paths (BLOCK_SIZE is a power of two; >> and & match floor division
# and modulo for negative addresses too).
_BLOCK_SHIFT = BLOCK_SIZE.bit_length() - 1
_BLOCK_MASK = BLOCK_SIZE - 1
assert 1 << _BLOCK_SHIFT == BLOCK_SIZE


def narrow(value: int, size: int) -> int:
    """The integer a *size*-byte store of *value* reads back as:
    truncated to the low *size* bytes, then sign-extended."""
    bits = 8 * size
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


class MainMemory:
    """Architectural memory state shared by all cores."""

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: dict[int, bytearray] = {}

    def _block(self, block: int) -> bytearray:
        data = self._blocks.get(block)
        if data is None:
            data = bytearray(BLOCK_SIZE)
            self._blocks[block] = data
        return data

    # -- raw byte access ---------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read *size* raw bytes starting at *addr* (may span blocks)."""
        offset = addr & _BLOCK_MASK
        if offset + size <= BLOCK_SIZE:
            block = addr >> _BLOCK_SHIFT
            data = self._blocks.get(block)
            if data is None:
                data = bytearray(BLOCK_SIZE)
                self._blocks[block] = data
            return bytes(data[offset:offset + size])
        out = bytearray()
        remaining = size
        while remaining > 0:
            block = block_of(addr)
            offset = addr - block_base(block)
            take = min(remaining, BLOCK_SIZE - offset)
            out += self._block(block)[offset : offset + take]
            addr += take
            remaining -= take
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes starting at *addr* (may span blocks)."""
        pos = 0
        while pos < len(data):
            block = block_of(addr + pos)
            offset = (addr + pos) - block_base(block)
            take = min(len(data) - pos, BLOCK_SIZE - offset)
            self._block(block)[offset : offset + take] = data[
                pos : pos + take
            ]
            pos += take

    def read_block(self, block: int) -> bytes:
        """Return the 64 bytes of a whole block."""
        return bytes(self._block(block))

    # -- integer access -------------------------------------------------------
    def read(self, addr: int, size: int = 8) -> int:
        """Read a signed little-endian integer of *size* bytes."""
        if size not in _VALID_SIZES:
            raise ValueError(f"unsupported access size: {size}")
        offset = addr & _BLOCK_MASK
        if offset + size <= BLOCK_SIZE:
            block = addr >> _BLOCK_SHIFT
            data = self._blocks.get(block)
            if data is None:
                data = bytearray(BLOCK_SIZE)
                self._blocks[block] = data
            return int.from_bytes(
                data[offset:offset + size], "little", signed=True
            )
        return int.from_bytes(
            self.read_bytes(addr, size), "little", signed=True
        )

    def write(self, addr: int, value: int, size: int = 8) -> None:
        """Write a signed little-endian integer of *size* bytes.

        Values outside the representable range are truncated to the low
        *size* bytes, as real stores would be.
        """
        if size not in _VALID_SIZES:
            raise ValueError(f"unsupported access size: {size}")
        mask = (1 << (8 * size)) - 1
        offset = addr & _BLOCK_MASK
        if offset + size <= BLOCK_SIZE:
            block = addr >> _BLOCK_SHIFT
            data = self._blocks.get(block)
            if data is None:
                data = bytearray(BLOCK_SIZE)
                self._blocks[block] = data
            data[offset:offset + size] = (value & mask).to_bytes(
                size, "little"
            )
            return
        self.write_bytes(addr, (value & mask).to_bytes(size, "little"))

    def write_runs(self, runs) -> None:
        """Write ``(addr, size, value)`` runs of any length (a drained
        :class:`WriteBuffer`, or a commit plan made from one)."""
        for addr, size, value in runs:
            mask = (1 << (8 * size)) - 1
            self.write_bytes(addr, (value & mask).to_bytes(size, "little"))

    def write_byte_map(self, image: dict[int, int]) -> None:
        """Write an ``addr -> byte`` map (a replay's store overlay)."""
        for addr, byte in image.items():
            self._block(addr >> _BLOCK_SHIFT)[addr & _BLOCK_MASK] = byte

    # -- copying ----------------------------------------------------------
    def clone(self) -> "MainMemory":
        """Return an independent copy (same contents, separate storage).

        Used to run the parallel and sequential configurations of a
        workload from identical initial memory images.
        """
        copy = MainMemory()
        copy._blocks = {
            block: bytearray(data) for block, data in self._blocks.items()
        }
        return copy

    # -- introspection --------------------------------------------------------
    def touched_blocks(self) -> list[int]:
        """Return the block numbers that have ever been written."""
        return sorted(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MainMemory({len(self._blocks)} blocks)"


class WriteBuffer:
    """Byte-granular private write buffer: a transaction's stores in
    program order, overlaid on memory until they drain."""

    __slots__ = ("_bytes", "_blocks")

    def __init__(self) -> None:
        self._bytes: dict[int, int] = {}
        self._blocks: set[int] = set()

    def clear(self) -> None:
        self._bytes.clear()
        self._blocks.clear()

    def write(self, addr: int, size: int, value: int) -> None:
        """Buffer a *size*-byte store, truncated as memory would."""
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        buffered = self._bytes
        for i, byte in enumerate(data):
            buffered[addr + i] = byte
        blocks = self._blocks
        blocks.add(addr >> _BLOCK_SHIFT)
        blocks.add((addr + size - 1) >> _BLOCK_SHIFT)

    def read(self, addr: int, size: int, under_bytes: bytes) -> int:
        """Read a signed integer through the buffer; *under_bytes* are
        the memory bytes of the range, seen where nothing is buffered."""
        buffered = self._bytes
        if buffered:
            raw = bytearray(under_bytes)
            for i in range(size):
                byte = buffered.get(addr + i)
                if byte is not None:
                    raw[i] = byte
            under_bytes = raw
        return int.from_bytes(under_bytes, "little", signed=True)

    def runs(self) -> list[tuple[int, int, int]]:
        """The buffered image as maximal contiguous ``(addr, size,
        little-endian value)`` runs, in address order."""
        buffered = self._bytes
        runs: list[tuple[int, int, int]] = []
        addrs = sorted(buffered)
        i, n = 0, len(addrs)
        while i < n:
            j = i + 1
            while j < n and addrs[j] == addrs[j - 1] + 1:
                j += 1
            data = bytes(buffered[a] for a in addrs[i:j])
            runs.append((addrs[i], j - i, int.from_bytes(data, "little")))
            i = j
        return runs

    def blocks(self) -> set[int]:
        """Block numbers with buffered bytes (live: do not mutate)."""
        return self._blocks
