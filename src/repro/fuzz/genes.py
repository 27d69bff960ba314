"""Genes: the fuzzer's shrinkable program representation.

A generated transaction is a list of *genes* rather than raw
instructions.  Genes are the unit the generator emits, the shrinker
deletes, and the corpus serializes:

* every gene assembles to a short, self-consistent instruction
  sequence (a lone ``Store``, or a whole load/add/store read-modify-
  write idiom), so deleting any subset of genes always yields a valid
  program — exactly the closure property delta debugging needs;
* branch genes jump *forward* over the next ``skip`` genes, so any
  gene list terminates and label resolution survives deletions;
* genes are plain tuples of ints/strings, so a case round-trips
  through JSON for corpus files and emitted regression tests.

Addresses are symbolic at the gene level: shared accesses name a
*slot index* and private accesses a per-thread *word index*; the
:class:`Layout` maps both to byte addresses at assembly time.  This
keeps serialized cases independent of the memory layout constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Cond
from repro.isa.program import Assembler, Program
from repro.isa.registers import Reg

# Gene kinds (tuple slot 0).
G_MOVI = "movi"          # (rd, value)
G_LOAD = "load"          # (rd, slot, offset, size)
G_STORE = "store"        # (src_reg, slot, offset, size)
G_STORE_IMM = "storei"   # (value, slot, offset, size)
G_OP = "op"              # (opname, rd, rs1, "r"/"i", src2)
G_RMW = "rmw"            # (slot, delta, rd, size, offset)
G_NESTED_RMW = "nrmw"    # (slot_a, slot_b, rd, delta_a, delta_b)
G_PRIV_STORE = "pstore"  # (value, word)
G_PRIV_ACCUM = "paccum"  # (slot, rd, word)
G_BRANCH = "br"          # (cond_name, rs1, rhs, skip)
G_CMP_BCC = "cmpbcc"     # (cond_name, rs1, rhs, skip)
G_WORK = "work"          # (cycles,)

#: data registers genes may name (r0 is left alone as a stable zero
#: unless a gene explicitly writes it; the fuzzer uses r1..r6)
DATA_REGS = tuple(range(1, 7))

_CONDS = {c.name: c for c in Cond}


@dataclass(frozen=True)
class Layout:
    """Maps gene-level slot/word indices to byte addresses."""

    shared_base: int = 4096
    #: byte distance between consecutive shared slots; 8 packs eight
    #: slots per 64-byte block (false + true sharing), 64 isolates them
    slot_stride: int = 8
    private_base: int = 1 << 16
    #: byte distance between per-thread private regions (whole blocks)
    private_stride: int = 512

    def slot_addr(self, slot: int) -> int:
        return self.shared_base + self.slot_stride * slot

    def private_addr(self, thread: int, word: int) -> int:
        return self.private_base + self.private_stride * thread + 8 * word


def gene_cost(gene: tuple) -> int:
    """Instructions this gene assembles to (for size accounting)."""
    kind = gene[0]
    if kind == G_RMW:
        return 3
    if kind == G_NESTED_RMW:
        return 6
    if kind in (G_PRIV_ACCUM, G_CMP_BCC):
        return 2
    return 1


def case_instruction_count(threads: list[list[list[tuple]]]) -> int:
    """Total assembled instructions across every thread and txn."""
    return sum(
        gene_cost(gene)
        for thread in threads
        for txn in thread
        for gene in txn
    )


def _regs_needing_init(genes: list[tuple]) -> list[int]:
    """Registers this gene list reads anywhere.

    Cores carry register state across transactions, so a gene that
    reads a register the transaction did not initialize would observe
    whatever the previous transaction on that core left behind — and
    the sequential golden run interleaves *different* threads'
    transactions on one core.  Zero-initializing every register the
    gene list reads makes the assembled transaction register-closed
    for any subset of genes (the shrinker deletes freely) and under
    any branch outcome (a prior in-transaction write might sit in a
    skipped range, so "was written earlier" cannot be trusted).
    """
    needed: list[int] = []

    def read(reg: int) -> None:
        if reg not in needed:
            needed.append(reg)

    for gene in genes:
        kind = gene[0]
        if kind == G_STORE:
            read(gene[1])
        elif kind == G_OP:
            _, _op, _rd, rs1, mode, src2 = gene
            read(rs1)
            if mode == "r":
                read(src2)
        elif kind in (G_BRANCH, G_CMP_BCC):
            read(gene[2])
    return needed


def assemble_txn(
    genes: list[tuple], thread: int, layout: Layout
) -> Program:
    """Assemble one transaction's gene list into a Program.

    Branch genes skip forward over the next ``skip`` genes; a skip
    that runs past the end of the list lands on the final halt.
    """
    asm = Assembler()
    for reg in _regs_needing_init(genes):
        asm.movi(Reg(reg), 0)
    # (genes_remaining, label) for every in-flight forward branch
    pending: list[list] = []

    def close_pending() -> None:
        for entry in list(pending):
            entry[0] -= 1
            if entry[0] <= 0:
                asm.mark(entry[1])
                pending.remove(entry)

    for gene in genes:
        kind = gene[0]
        if kind == G_MOVI:
            _, rd, value = gene
            asm.movi(Reg(rd), value)
        elif kind == G_LOAD:
            _, rd, slot, offset, size = gene
            asm.load(Reg(rd), layout.slot_addr(slot) + offset, size=size)
        elif kind == G_STORE:
            _, rs, slot, offset, size = gene
            asm.store(Reg(rs), layout.slot_addr(slot) + offset, size=size)
        elif kind == G_STORE_IMM:
            _, value, slot, offset, size = gene
            asm.store(value, layout.slot_addr(slot) + offset, size=size)
        elif kind == G_OP:
            _, op, rd, rs1, mode, src2 = gene
            operand = Reg(src2) if mode == "r" else int(src2)
            asm.op(op, Reg(rd), Reg(rs1), operand)
        elif kind == G_RMW:
            _, slot, delta, rd, size, offset = gene
            addr = layout.slot_addr(slot) + offset
            asm.load(Reg(rd), addr, size=size)
            asm.addi(Reg(rd), Reg(rd), delta)
            asm.store(Reg(rd), addr, size=size)
        elif kind == G_NESTED_RMW:
            # Increment slot A, then fold the (symbolic) loaded value
            # into slot B: B's buffered store becomes an expression
            # rooted at A — the §4.4 tracker's nested-RMW case.
            _, slot_a, slot_b, rd, delta_a, delta_b = gene
            addr_a = layout.slot_addr(slot_a)
            addr_b = layout.slot_addr(slot_b)
            asm.load(Reg(rd), addr_a)
            asm.addi(Reg(rd), Reg(rd), delta_a)
            asm.store(Reg(rd), addr_a)
            asm.addi(Reg(rd), Reg(rd), delta_b)
            asm.store(Reg(rd), addr_b)
            asm.nop(1)
        elif kind == G_PRIV_STORE:
            _, value, word = gene
            asm.store(value, layout.private_addr(thread, word))
        elif kind == G_PRIV_ACCUM:
            _, slot, rd, word = gene
            asm.load(Reg(rd), layout.slot_addr(slot))
            asm.store(Reg(rd), layout.private_addr(thread, word))
        elif kind == G_BRANCH:
            _, cond, rs1, rhs, skip = gene
            label = asm.fresh_label("skip")
            asm.br(_CONDS[cond], Reg(rs1), rhs, label)
            pending.append([max(1, skip), label])
            continue  # the branch itself doesn't consume a skip count
        elif kind == G_CMP_BCC:
            _, cond, rs1, rhs, skip = gene
            label = asm.fresh_label("skip")
            asm.cmp(Reg(rs1), rhs)
            asm.bcc(_CONDS[cond], label)
            pending.append([max(1, skip), label])
            continue
        elif kind == G_WORK:
            asm.nop(gene[1])
        else:
            raise ValueError(f"unknown gene kind: {kind!r}")
        close_pending()

    # Outstanding forward branches target the end of the program.
    for _count, label in pending:
        asm.mark(label)
    asm.halt()
    return asm.build()


def genes_to_jsonable(threads: list[list[list[tuple]]]) -> list:
    """Genes are already JSON-shaped; normalize tuples to lists."""
    return [
        [[list(gene) for gene in txn] for txn in thread]
        for thread in threads
    ]


def genes_from_jsonable(data: list) -> list[list[list[tuple]]]:
    return [
        [[tuple(gene) for gene in txn] for txn in thread]
        for thread in data
    ]
