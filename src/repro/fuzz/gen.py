"""Seeded random transactional-program generation.

A :class:`GeneratorConfig` names a *profile*: instruction-mix weights,
access-size mix, Zipf skew of the shared-address distribution, and
structural bounds.  ``generate_case(seed, config)`` expands one seed
deterministically into a :class:`FuzzCase` — per-thread gene lists
plus an initial memory image — and every downstream consumer (the
differential executor, the shrinker, the corpus, emitted regression
tests) works on cases.

Two soundness properties the generator maintains by construction:

* **termination** — branches only skip forward, so every generated
  transaction halts on every path;
* **commutative mode** — when ``config.commutative`` is set, only
  order-independent genes are emitted (full-width add/sub
  read-modify-writes on shared slots, constant stores to per-thread
  private words), so the final memory image is identical under *every*
  serialization and the golden diff can demand byte equality.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

from repro.fuzz.genes import (
    DATA_REGS,
    G_BRANCH,
    G_CMP_BCC,
    G_LOAD,
    G_MOVI,
    G_NESTED_RMW,
    G_OP,
    G_PRIV_ACCUM,
    G_PRIV_STORE,
    G_RMW,
    G_STORE,
    G_STORE_IMM,
    G_WORK,
    Layout,
    assemble_txn,
    case_instruction_count,
    genes_from_jsonable,
    genes_to_jsonable,
)
from repro.isa.instructions import Cond
from repro.mem.memory import MainMemory
from repro.sim.script import ThreadScript
from repro.workloads.base import (
    GeneratedWorkload,
    InvariantResult,
    zipf_indices,
)

#: default instruction mix (weights are relative, not normalized)
MIXED_KINDS = (
    (G_RMW, 30),
    (G_NESTED_RMW, 8),
    (G_LOAD, 12),
    (G_STORE, 8),
    (G_STORE_IMM, 4),
    (G_OP, 12),
    (G_MOVI, 6),
    (G_BRANCH, 8),
    (G_CMP_BCC, 4),
    (G_PRIV_STORE, 3),
    (G_PRIV_ACCUM, 3),
    (G_WORK, 2),
)

COMMUTATIVE_KINDS = (
    (G_RMW, 70),
    (G_PRIV_STORE, 15),
    (G_WORK, 15),
)

BRANCHY_KINDS = (
    (G_RMW, 30),
    (G_LOAD, 10),
    (G_BRANCH, 25),
    (G_CMP_BCC, 15),
    (G_OP, 10),
    (G_PRIV_ACCUM, 5),
    (G_STORE, 5),
)

#: hot-counter service shape: RMW-dominated with guard branches and
#: private tallies (see the "fuzz-service" profile)
SERVICE_KINDS = (
    (G_RMW, 45),
    (G_NESTED_RMW, 10),
    (G_BRANCH, 15),
    (G_LOAD, 10),
    (G_PRIV_ACCUM, 10),
    (G_PRIV_STORE, 5),
    (G_WORK, 5),
)


@dataclass(frozen=True)
class GeneratorConfig:
    """All generator knobs for one fuzz profile (JSON-stable)."""

    txns_per_thread: int = 4
    min_genes: int = 2
    max_genes: int = 10
    shared_slots: int = 12
    #: Zipf skew of shared-slot selection (index 0 hottest)
    zipf_skew: float = 1.1
    #: 8 packs eight slots per block (true + false sharing); 64 isolates
    slot_stride: int = 8
    private_words: int = 8
    #: (size, weight) mix for load/store access widths
    size_weights: tuple = ((8, 55), (4, 20), (2, 15), (1, 10))
    #: (gene kind, weight) instruction mix
    kind_weights: tuple = MIXED_KINDS
    #: (opcode, weight) mix for ALU genes
    op_weights: tuple = (("add", 40), ("sub", 30), ("mul", 20), ("div", 10))
    #: restrict to order-independent genes (strict golden equality)
    commutative: bool = False
    #: non-transactional busy cycles between transactions
    work_between: int = 4
    #: initial shared-slot values are drawn from [0, init_max)
    init_max: int = 64

    def as_dict(self) -> dict:
        return asdict(self)


def config_hash(config: GeneratorConfig) -> str:
    """Stable content address of a generator configuration."""
    blob = json.dumps(config.as_dict(), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


#: named profiles usable from the CLI and the workload registry
FUZZ_PROFILES: dict[str, GeneratorConfig] = {
    "fuzz-mixed": GeneratorConfig(),
    "fuzz-rmw": GeneratorConfig(
        kind_weights=COMMUTATIVE_KINDS,
        commutative=True,
        max_genes=8,
    ),
    "fuzz-branchy": GeneratorConfig(
        kind_weights=BRANCHY_KINDS,
        shared_slots=6,
        zipf_skew=1.4,
    ),
    # Service-backend shape (the traffic the service workloads model):
    # heavily Zipf-skewed hot shared counters hammered by RMW chains,
    # with branch-guarded updates (rate limits, sell-out checks) and
    # private tallies riding along.  Not in the CLI default profile
    # list — CI's fuzz smoke batch stays at 210 programs; CI screens
    # this profile in its bounded-capacity fuzz step instead.
    "fuzz-service": GeneratorConfig(
        kind_weights=SERVICE_KINDS,
        shared_slots=8,
        zipf_skew=1.6,
        txns_per_thread=5,
        max_genes=8,
    ),
}


@dataclass
class FuzzCase:
    """One generated differential-execution input."""

    seed: int
    nthreads: int
    config: GeneratorConfig
    #: threads -> transactions -> genes
    threads: list = field(default_factory=list)
    layout: Layout = field(default_factory=Layout)
    #: provenance label (profile name, or "shrunk")
    origin: str = "fuzz"

    # ------------------------------------------------------------------
    def instruction_count(self) -> int:
        return case_instruction_count(self.threads)

    def txn_count(self) -> int:
        return sum(len(thread) for thread in self.threads)

    def label(self) -> str:
        return (
            f"{self.origin} seed={self.seed} cfg={config_hash(self.config)} "
            f"threads={self.nthreads} txns={self.txn_count()} "
            f"instrs={self.instruction_count()}"
        )

    # ------------------------------------------------------------------
    def initial_memory(self) -> MainMemory:
        """The deterministic initial image (seed-derived slot values)."""
        memory = MainMemory()
        rng = random.Random(self.seed ^ 0x5EED)
        for slot in range(self.config.shared_slots):
            memory.write(
                self.layout.slot_addr(slot),
                rng.randrange(self.config.init_max),
                size=8,
            )
        return memory

    def scripts(self) -> list[ThreadScript]:
        scripts = []
        for thread, txns in enumerate(self.threads):
            script = ThreadScript()
            for genes in txns:
                script.add_txn(
                    assemble_txn(genes, thread, self.layout), label="fuzz"
                )
                script.add_work(self.config.work_between)
            scripts.append(script)
        return scripts

    def build_workload(self) -> GeneratedWorkload:
        """Package the case as a workload (memory, scripts, checks)."""
        checks = []
        if self.config.commutative:
            expected = self._commutative_expectation()

            def check(mem: MainMemory) -> InvariantResult:
                for addr, want, what in expected:
                    got = mem.read(addr)
                    if got != want:
                        return InvariantResult(
                            "fuzz-expected",
                            False,
                            f"{what} @{addr:#x}: {got} != {want}",
                        )
                return InvariantResult(
                    "fuzz-expected",
                    True,
                    f"{len(expected)} locations match",
                )

            checks.append(check)
        return GeneratedWorkload(
            memory=self.initial_memory(),
            scripts=self.scripts(),
            checks=checks,
            strict_golden=self.config.commutative,
        )

    def _commutative_expectation(self) -> list[tuple[int, int, str]]:
        """Exact final values for a commutative case: shared slots end
        at initial + the sum of all RMW deltas; each private word ends
        at its thread's last constant store."""
        initial = self.initial_memory()
        slot_final = {
            slot: initial.read(self.layout.slot_addr(slot))
            for slot in range(self.config.shared_slots)
        }
        priv_final: dict[tuple[int, int], int] = {}
        for thread, txns in enumerate(self.threads):
            for genes in txns:
                for gene in genes:
                    if gene[0] == G_RMW:
                        _, slot, delta, _rd, _size, _offset = gene
                        slot_final[slot] += delta
                    elif gene[0] == G_PRIV_STORE:
                        _, value, word = gene
                        priv_final[(thread, word)] = value
        expected = [
            (self.layout.slot_addr(slot), value, f"slot {slot}")
            for slot, value in slot_final.items()
        ]
        expected += [
            (
                self.layout.private_addr(thread, word),
                value,
                f"private t{thread}w{word}",
            )
            for (thread, word), value in priv_final.items()
        ]
        return expected

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "nthreads": self.nthreads,
            "config": self.config.as_dict(),
            "threads": genes_to_jsonable(self.threads),
            "layout": asdict(self.layout),
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        config = data["config"]
        for key in ("size_weights", "kind_weights", "op_weights"):
            config[key] = tuple(tuple(pair) for pair in config[key])
        return cls(
            seed=data["seed"],
            nthreads=data["nthreads"],
            config=GeneratorConfig(**config),
            threads=genes_from_jsonable(data["threads"]),
            layout=Layout(**data["layout"]),
            origin=data.get("origin", "fuzz"),
        )


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
class _TxnGenerator:
    """Emits one transaction's genes from a seeded RNG."""

    def __init__(self, rng: random.Random, config: GeneratorConfig) -> None:
        self.rng = rng
        self.config = config
        self._kinds = [k for k, _ in config.kind_weights]
        self._kind_weights = [w for _, w in config.kind_weights]
        self._sizes = [s for s, _ in config.size_weights]
        self._size_weights = [w for _, w in config.size_weights]
        self._ops = [o for o, _ in config.op_weights]
        self._op_weights = [w for _, w in config.op_weights]

    def _slot(self) -> int:
        return zipf_indices(
            self.rng, 1, self.config.shared_slots, self.config.zipf_skew
        )[0]

    def _reg(self) -> int:
        return self.rng.choice(DATA_REGS)

    def _sized_offset(self) -> tuple[int, int]:
        size = self.rng.choices(self._sizes, self._size_weights)[0]
        offset = size * self.rng.randrange(8 // size)
        return size, offset

    def _delta(self) -> int:
        delta = self.rng.randint(-6, 6)
        return delta if delta else 1

    def emit(self) -> list[tuple]:
        rng = self.rng
        config = self.config
        count = rng.randint(config.min_genes, config.max_genes)
        genes: list[tuple] = []
        for _ in range(count):
            kind = rng.choices(self._kinds, self._kind_weights)[0]
            if kind == G_RMW:
                if config.commutative:
                    size, offset = 8, 0
                else:
                    size, offset = self._sized_offset()
                genes.append(
                    (G_RMW, self._slot(), self._delta(), self._reg(),
                     size, offset)
                )
            elif kind == G_NESTED_RMW:
                genes.append(
                    (G_NESTED_RMW, self._slot(), self._slot(),
                     self._reg(), self._delta(), self._delta())
                )
            elif kind == G_LOAD:
                size, offset = self._sized_offset()
                genes.append(
                    (G_LOAD, self._reg(), self._slot(), offset, size)
                )
            elif kind == G_STORE:
                size, offset = self._sized_offset()
                genes.append(
                    (G_STORE, self._reg(), self._slot(), offset, size)
                )
            elif kind == G_STORE_IMM:
                size, offset = self._sized_offset()
                genes.append(
                    (G_STORE_IMM, rng.randint(-128, 127), self._slot(),
                     offset, size)
                )
            elif kind == G_OP:
                op = rng.choices(self._ops, self._op_weights)[0]
                if rng.random() < 0.5:
                    src = ("r", self._reg())
                else:
                    src = ("i", rng.randint(-7, 7))
                genes.append((G_OP, op, self._reg(), self._reg(), *src))
            elif kind == G_MOVI:
                genes.append((G_MOVI, self._reg(), rng.randint(-64, 64)))
            elif kind == G_BRANCH:
                genes.append(
                    (G_BRANCH, rng.choice(list(Cond)).name, self._reg(),
                     rng.randint(-4, 64), rng.randint(1, 3))
                )
            elif kind == G_CMP_BCC:
                genes.append(
                    (G_CMP_BCC, rng.choice(list(Cond)).name, self._reg(),
                     rng.randint(-4, 64), rng.randint(1, 3))
                )
            elif kind == G_PRIV_STORE:
                genes.append(
                    (G_PRIV_STORE, rng.randint(-128, 127),
                     rng.randrange(config.private_words))
                )
            elif kind == G_PRIV_ACCUM:
                genes.append(
                    (G_PRIV_ACCUM, self._slot(), self._reg(),
                     rng.randrange(config.private_words))
                )
            elif kind == G_WORK:
                genes.append((G_WORK, rng.randint(1, 12)))
            else:  # pragma: no cover - mix is validated above
                raise ValueError(f"unknown gene kind in mix: {kind!r}")
        return genes


def generate_case(
    seed: int,
    config: GeneratorConfig,
    nthreads: int = 4,
    txns_per_thread: int | None = None,
    origin: str = "fuzz",
) -> FuzzCase:
    """Deterministically expand (seed, config) into a FuzzCase."""
    rng = random.Random(seed)
    txns = (
        txns_per_thread
        if txns_per_thread is not None
        else config.txns_per_thread
    )
    emitter = _TxnGenerator(rng, config)
    threads = [
        [emitter.emit() for _ in range(txns)] for _ in range(nthreads)
    ]
    return FuzzCase(
        seed=seed,
        nthreads=nthreads,
        config=config,
        threads=threads,
        layout=Layout(slot_stride=config.slot_stride),
        origin=origin,
    )
