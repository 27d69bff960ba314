"""Gene representation: assembly validity, shrink closure, round-trip."""

import random

import pytest

from repro.fuzz.genes import (
    Layout,
    assemble_txn,
    case_instruction_count,
    gene_cost,
    genes_from_jsonable,
    genes_to_jsonable,
)
from repro.isa.instructions import Branch, Halt

LAYOUT = Layout()

ONE_OF_EACH = [
    ("movi", 1, 42),
    ("load", 2, 0, 0, 8),
    ("store", 2, 1, 0, 4),
    ("storei", -5, 2, 4, 2),
    ("op", "add", 3, 2, "i", 7),
    ("op", "mul", 3, 3, "r", 2),
    ("rmw", 0, 3, 4, 8, 0),
    ("nrmw", 0, 1, 4, 2, -1),
    ("pstore", 9, 0),
    ("paccum", 1, 5, 1),
    ("br", "GT", 3, 10, 2),
    ("cmpbcc", "EQ", 2, 0, 1),
    ("work", 3),
]


class TestAssembly:
    def test_every_gene_kind_assembles(self):
        program = assemble_txn(ONE_OF_EACH, thread=0, layout=LAYOUT)
        assert len(program) > len(ONE_OF_EACH)  # prelude + halt included
        assert isinstance(program.instructions[-1], Halt)

    def test_unknown_gene_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gene kind"):
            assemble_txn([("teleport", 1)], thread=0, layout=LAYOUT)

    def test_branch_past_end_targets_halt(self):
        program = assemble_txn(
            [("br", "EQ", 1, 0, 3)], thread=0, layout=LAYOUT
        )
        # prelude movi r1 + branch + halt; skip label resolves to halt
        branch = next(i for i in program if isinstance(i, Branch))
        assert branch.target == len(program) - 1

    def test_shrink_closure_random_subsets_assemble(self):
        rng = random.Random(0)
        for _ in range(50):
            subset = [g for g in ONE_OF_EACH if rng.random() < 0.5]
            program = assemble_txn(subset, thread=0, layout=LAYOUT)
            assert isinstance(program.instructions[-1], Halt)

    def test_thread_selects_private_region(self):
        a = assemble_txn([("pstore", 1, 0)], thread=0, layout=LAYOUT)
        b = assemble_txn([("pstore", 1, 0)], thread=3, layout=LAYOUT)
        assert a.instructions[0].addr == LAYOUT.private_addr(0, 0)
        assert b.instructions[0].addr == LAYOUT.private_addr(3, 0)


class TestAccounting:
    def test_gene_costs(self):
        assert gene_cost(("rmw", 0, 1, 1, 8, 0)) == 3
        assert gene_cost(("nrmw", 0, 1, 1, 1, 1)) == 6
        assert gene_cost(("cmpbcc", "EQ", 1, 0, 1)) == 2
        assert gene_cost(("paccum", 0, 1, 0)) == 2
        assert gene_cost(("movi", 1, 5)) == 1

    def test_case_instruction_count(self):
        threads = [[ONE_OF_EACH], [ONE_OF_EACH, ONE_OF_EACH]]
        per_txn = sum(gene_cost(g) for g in ONE_OF_EACH)
        assert case_instruction_count(threads) == 3 * per_txn


class TestJsonRoundTrip:
    def test_round_trip_preserves_genes(self):
        threads = [[ONE_OF_EACH], [], [ONE_OF_EACH[:3]]]
        data = genes_to_jsonable(threads)
        back = genes_from_jsonable(data)
        assert back == [
            [[tuple(g) for g in txn] for txn in thread]
            for thread in threads
        ]
        import json

        assert json.loads(json.dumps(data)) == data
