"""The repair oracle: clean runs report nothing, corrupted commits
report structured violations."""

import pytest

from repro.check.faults import FaultInjector
from repro.check.matrix import fault_scenario
import repro.check.oracle as oracle_mod
from repro.check.oracle import OracleViolation, RepairOracle
from repro.fuzz.diff import FUZZ_MAX_CYCLES, run_case
from repro.fuzz.gen import FUZZ_PROFILES, generate_case
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


def run_scenario(fault=None, **fault_kwargs):
    """The contended scenario on retcon under the oracle; its oracle."""
    scripts, memory, config = fault_scenario()
    machine = Machine(config, "retcon", scripts, memory, check=True)
    if fault is not None:
        machine.system.fault_injector = FaultInjector(fault, **fault_kwargs)
    machine.run(max_cycles=50_000_000)
    return machine.oracle


class TestCleanRuns:
    def test_contended_retcon_run_is_violation_free(self):
        oracle = run_scenario()
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


class TestCheckedCommits:
    """The oracle checks exactly the commits that happen, on every
    row."""

    @staticmethod
    def run_fuzz_case(system, seed):
        case = generate_case(seed, FUZZ_PROFILES["fuzz-mixed"])
        workload = case.build_workload()
        machine = Machine(
            MachineConfig().with_cores(case.nthreads), system,
            workload.scripts, workload.memory, check=True,
        )
        result = machine.run(max_cycles=FUZZ_MAX_CYCLES)
        assert result.commits == case.txn_count()
        assert machine.oracle.ok, machine.oracle.violations[:3]
        assert machine.oracle.checked_commits == result.commits

    @pytest.mark.parametrize("system, seed", [("datm", 5), ("retcon-fwd", 10)])
    def test_forwarded_commits_are_checked(self, system, seed):
        # A dependent that overwrote the committer's eager store logged
        # the committer's value as its own pre-image: the oracle reads
        # the committed byte there, not the dependent's from memory.
        self.run_fuzz_case(system, seed)

    def test_a_stalled_retcon_commit_is_checked_once(self):
        # RETCON used to check a commit before its drain conflicts were
        # resolved; a stall there retried and re-checked it: 21 checks
        # for 16 commits here.
        self.run_fuzz_case("retcon", 0)

    def test_a_commit_checked_twice_is_a_stats_divergence(self, monkeypatch):
        check_commit = RepairOracle.check_commit

        def twice(self, *args, **kwargs):
            check_commit(self, *args, **kwargs)
            self.checked_commits += 1

        monkeypatch.setattr(RepairOracle, "check_commit", twice)
        case = generate_case(0, FUZZ_PROFILES["fuzz-mixed"])
        outcome = run_case(case, backends=("eager",))
        assert [d.kind for d in outcome.divergences] == ["stats"]


class TestAttempts:
    """``RepairOracle.attempts`` counts every attempt as it begins, and
    ``run_case`` reports it as each run's begins."""

    def test_restarts_are_counted(self):
        # fuzz-rmw seed 0 aborts and restarts transactions on all three.
        case = generate_case(0, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(case, backends=("eager", "lazy-vb", "retcon"))
        assert outcome.ok, outcome.divergences
        for run in outcome.runs:
            assert run.aborts > 0
            assert run.begins == run.commits + run.aborts

    def test_a_skipped_begin_is_a_stats_divergence(self, monkeypatch):
        on_txn_begin = RepairOracle.on_txn_begin
        skipped = []

        def skip_first(self, *args):
            if not skipped:
                skipped.append(args)
                return []
            return on_txn_begin(self, *args)

        monkeypatch.setattr(RepairOracle, "on_txn_begin", skip_first)
        case = generate_case(0, FUZZ_PROFILES["fuzz-mixed"])
        outcome = run_case(case, backends=("eager",))
        assert skipped
        assert any(
            d.kind == "stats" and d.detail.startswith("begins=")
            for d in outcome.divergences
        ), outcome.divergences


class TestViolationReporting:
    def test_plan_store_skew_reports_store_drain(self):
        oracle = run_scenario(fault="plan-store-skew")
        assert not oracle.ok
        # The faulting commit reports first; later commits replay
        # against the serial state it corrupted.
        assert "store-drain" in {v.kind for v in oracle.violations}
        violation = oracle.violations[0]
        assert violation.kind == "store-drain" and violation.core >= 0
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

    def test_max_violations_caps_storage_not_counting(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "MAX_VIOLATIONS", 2)
        oracle = run_scenario(fault="plan-store-misdirect")
        assert len(oracle.violations) == 2
        assert oracle.suppressed > 0
        assert oracle.total_violations == 2 + oracle.suppressed

    def test_by_kind_counts_suppressed_violations(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "MAX_VIOLATIONS", 1)
        oracle = RepairOracle()
        oracle._report("store-drain", 0, "t", addr=1)
        oracle._report("store-drain", 0, "t", addr=2)
        oracle._report("final-memory", -1, "-", bytes=1)
        summary = oracle.summary()
        assert len(oracle.violations) == 1
        assert summary["by_kind"] == {"store-drain": 2, "final-memory": 1}
        assert sum(summary["by_kind"].values()) == summary["violations"] == 3


class TestRecordingLifecycle:
    def test_commit_without_recording_is_skipped(self):
        # check_commit on a core the oracle never saw begin must be a
        # no-op (system used without the core recording hooks).
        oracle = RepairOracle()
        oracle.check_commit(0, None, None, [])
        assert oracle.checked_commits == 0

    def test_abort_discards_recording(self):
        oracle = RepairOracle()
        # The core appends each completed pc to the list the begin
        # hook hands it.
        oracle.on_txn_begin(0, None, "t", [0] * 16).append(0)
        oracle.on_abort(0)
        assert oracle._records == {}


class TestCommitRecord:
    """Every commit hands the oracle one record: a plan, memory, and
    its dependents' undo pre-images; the replay reads the serial
    state."""

    A, B = 0x4000, 0x8000

    def recorded(self, memory):
        """An oracle started from *memory*, with the committed value 5
        at A, that watched `[B] = [A] + 1` run against it."""
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
        oracle.start(memory)
        oracle.on_txn_begin(0, program, "t", regs).extend(
            replay_program(program, regs, memory.read_bytes).pc_trace
        )
        return oracle

    def test_the_replay_reads_the_serial_state(self):
        from repro.core.engine import CommitPlan
        from repro.mem.memory import MainMemory

        memory = MainMemory()
        memory.write(self.A, 5)
        oracle, wrong = self.recorded(memory), self.recorded(memory)
        # Another (hardware) transaction now holds A dirty: the replay
        # never sees its byte.
        memory.write(self.A, 99)
        oracle.check_commit(0, CommitPlan(stores=[(self.B, 8, 6)]), memory, [])
        assert oracle.checked_commits == 1 and oracle.ok

        # A plan built from the dirty byte is a store-drain.
        wrong.check_commit(0, CommitPlan(stores=[(self.B, 8, 100)]), memory, [])
        assert {v.kind for v in wrong.violations} == {"store-drain"}
        assert wrong.violations[0].detail["sym"] is None  # no engine

    def test_memory_off_the_serial_state_reports_final_memory(self):
        from repro.core.engine import CommitPlan
        from repro.mem.memory import MainMemory

        memory = MainMemory()
        memory.write(self.A, 5)
        oracle = self.recorded(memory)
        oracle.check_commit(0, CommitPlan(stores=[(self.B, 8, 6)]), memory, [])
        memory.write(self.B, 6)  # the drain
        oracle.finish(memory)
        assert oracle.ok

        memory.write(self.A, 7)  # a store no commit replayed
        oracle.finish(memory)
        [violation] = oracle.violations
        assert violation.kind == "final-memory" and violation.core == -1
        assert violation.detail["bytes"] == 1

    def test_only_a_dependent_pre_image_holds_a_committed_byte(self):
        from repro.core.engine import CommitPlan
        from repro.htm.versioning import UndoLog
        from repro.mem.memory import MainMemory

        memory = MainMemory()
        memory.write(self.A, 5)
        # The committer stored B = 6 eagerly; another transaction then
        # overwrote it with 99, logging 6 as its pre-image.
        oracle = self.recorded(memory)
        memory.write(self.B, 6)
        other = UndoLog()
        other.record(memory, self.B, 8)
        memory.write(self.B, 99)

        oracle.check_commit(0, CommitPlan(), memory, [other.pre_image()])
        assert oracle.checked_commits == 1 and oracle.ok

        # Not a dependent: it never consumed B, so 99 is what the
        # committer left in memory.
        plain = self.recorded(memory)
        plain.check_commit(0, CommitPlan(), memory, [])
        assert {v.kind for v in plain.violations} == {"store-drain"}

    def test_every_checked_backend_hands_over_the_same_record(
        self, monkeypatch
    ):
        seen = []
        check_commit = RepairOracle.check_commit

        def spy(self, core, plan, memory, pre_images, engine=None):
            seen.append((type(plan).__name__, engine is not None))
            check_commit(self, core, plan, memory, pre_images, engine)

        monkeypatch.setattr(RepairOracle, "check_commit", spy)
        for system in ("retcon", "stm", "eager", "lazy", "datm",
                       "retcon-fwd"):
            scripts, memory, config = fault_scenario(
                ncores=2, txns_per_core=2
            )
            machine = Machine(config, system, scripts, memory, check=True)
            machine.run(max_cycles=50_000_000)
            oracle = machine.oracle
            assert oracle.checked_commits > 0 and oracle.ok
        assert set(seen) == {("CommitPlan", True), ("CommitPlan", False)}
