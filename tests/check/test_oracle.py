"""The repair oracle: clean runs report nothing, corrupted commits
report structured violations, strict mode escalates."""

import pytest

from repro.check.faults import FaultInjector
from repro.check.matrix import fault_scenario
from repro.check.oracle import OracleError, OracleViolation, RepairOracle
from repro.sim.machine import Machine


def run_scenario(oracle, fault=None, seed=0, **fault_kwargs):
    scripts, memory, config = fault_scenario()
    machine = Machine(
        config, "retcon", scripts, memory, check=oracle
    )
    if fault is not None:
        machine.system.fault_injector = FaultInjector(
            fault, seed=seed, **fault_kwargs
        )
    machine.run(max_cycles=50_000_000)
    return machine


class TestCleanRuns:
    def test_contended_retcon_run_is_violation_free(self):
        oracle = RepairOracle()
        run_scenario(oracle)
        assert oracle.checked_commits > 0
        assert oracle.ok
        assert oracle.violations == []
        assert oracle.summary()["violations"] == 0

    def test_machine_attaches_oracle_via_check_flag(self):
        scripts, memory, config = fault_scenario(ncores=2,
                                                 txns_per_core=4)
        machine = Machine(config, "retcon", scripts, memory, check=True)
        machine.run(max_cycles=50_000_000)
        assert machine.oracle is not None
        assert machine.oracle.checked_commits > 0
        assert machine.oracle.ok

    def test_forwarding_system_is_not_oracle_compatible(self):
        # The forwarding rows commit forwarded speculative values a
        # committed-state replay cannot reproduce; check=True must
        # refuse, naming the row, rather than skip silently or report
        # false violations.
        scripts, memory, config = fault_scenario(ncores=2,
                                                 txns_per_core=4)
        for system in ("datm", "retcon-fwd"):
            with pytest.raises(ValueError, match=system):
                Machine(config, system, scripts, memory, check=True)


class TestViolationReporting:
    def test_plan_store_skew_reports_store_drain(self):
        oracle = RepairOracle()
        run_scenario(oracle, fault="plan-store-skew")
        assert not oracle.ok
        kinds = {v.kind for v in oracle.violations}
        assert kinds == {"store-drain"}
        violation = oracle.violations[0]
        assert violation.core >= 0
        assert violation.txn_label in ("sym", "pin")
        assert "addr" in violation.detail

    def test_violation_serialization(self):
        violation = OracleViolation(
            kind="store-drain", core=3, txn_label="sym",
            detail={"addr": 4096, "sym": None},
        )
        data = violation.to_dict()
        assert data["kind"] == "store-drain"
        assert data["core"] == 3
        assert data["detail"]["addr"] == "4096"
        text = str(violation)
        assert "core 3" in text and "store-drain" in text

    def test_max_violations_caps_storage_not_counting(self):
        oracle = RepairOracle(max_violations=2)
        run_scenario(oracle, fault="plan-store-misdirect")
        assert len(oracle.violations) == 2
        assert oracle.suppressed > 0
        assert oracle.total_violations == 2 + oracle.suppressed

    def test_strict_mode_escalates_first_violation(self):
        oracle = RepairOracle(strict=True)
        with pytest.raises(OracleError) as excinfo:
            run_scenario(oracle, fault="plan-store-skew")
        assert excinfo.value.violation.kind == "store-drain"


class TestRecordingLifecycle:
    def test_commit_without_recording_is_skipped(self):
        # check_commit on a core the oracle never saw begin must be a
        # no-op (system used without the core recording hooks).
        oracle = RepairOracle()
        oracle.check_commit(0, None, None, [])
        assert oracle.checked_commits == 0

    def test_abort_discards_recording(self):
        oracle = RepairOracle()
        oracle.on_txn_begin(0, None, "t", [0] * 16)
        oracle.on_instruction(0, 0)
        oracle.on_abort(0)
        assert oracle._records == {}


class TestCommitRecord:
    """Every commit hands the oracle one record: a plan, memory, and
    the undo pre-images of every active transaction to read through."""

    A, B = 0x4000, 0x8000

    def recorded(self, memory):
        """An oracle that watched `[B] = [A] + 1` run against *memory*
        with the committed value 5 at A."""
        from repro.check.replay import replay_program
        from repro.isa.program import Assembler
        from repro.isa.registers import R1

        asm = Assembler()
        asm.load(R1, self.A)
        asm.addi(R1, R1, 1)
        asm.store(R1, self.B)
        program = asm.build()
        regs = [0] * 16
        oracle = RepairOracle()
        oracle.on_txn_begin(0, program, "t", regs)
        for pc in replay_program(program, regs, memory.read_bytes).pc_trace:
            oracle.on_instruction(0, pc)
        return oracle

    def test_software_commit_reads_through_other_txns_pre_images(self):
        from repro.core.engine import CommitPlan
        from repro.htm.versioning import UndoLog
        from repro.mem.memory import MainMemory

        memory = MainMemory()
        memory.write(self.A, 5)
        oracle = self.recorded(memory)
        # Another (hardware) transaction now holds A dirty.
        other = UndoLog()
        other.record(memory, self.A, 8)
        memory.write(self.A, 99)
        plan = CommitPlan(stores=[(self.B, 8, 6)])
        oracle.check_commit(0, plan, memory, [{}, other.pre_image()])
        assert oracle.checked_commits == 1 and oracle.ok

        # Without the pre-image the replay would see the dirty byte.
        blind = self.recorded(memory)
        blind.check_commit(0, plan, memory, [])
        assert {v.kind for v in blind.violations} == {"store-drain"}
        assert blind.violations[0].detail["sym"] is None  # no engine

    def test_every_checked_backend_hands_over_the_same_record(self):
        seen = []

        class Spy(RepairOracle):
            def check_commit(self, core, plan, memory, pre_images,
                             engine=None):
                seen.append((type(plan).__name__, engine is not None))
                super().check_commit(
                    core, plan, memory, pre_images, engine
                )

        for system in ("retcon", "stm", "eager", "lazy"):
            scripts, memory, config = fault_scenario(
                ncores=2, txns_per_core=2
            )
            oracle = Spy()
            Machine(config, system, scripts, memory, check=oracle).run(
                max_cycles=50_000_000
            )
            assert oracle.checked_commits > 0 and oracle.ok
        assert set(seen) == {("CommitPlan", True), ("CommitPlan", False)}
