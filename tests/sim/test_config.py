"""Machine configuration (Table 1).

Every field enters every result-cache key, so a field earns its place
only when some caller outside the tests sets it to a value other than
its default; a value the paper fixes and nothing varies is a constant
in the module that uses it.  A new field needs such a caller, and
:class:`TestFields` must list it.
"""

import dataclasses

from repro.sim.config import MachineConfig, small_test_config


class TestFields:
    def test_the_fields_are_pinned(self):
        assert [f.name for f in dataclasses.fields(MachineConfig)] == [
            "ncores",
            "l1_bytes",
            "l1_assoc",
            "l2_bytes",
            "l2_assoc",
            "l2_hit_cycles",
            "dram_cycles",
            "perm_cache_bytes",
            "perm_cache_assoc",
            "hop_cycles",
            "ivb_entries",
            "constraint_entries",
            "ssb_entries",
            "read_set_entries",
            "write_set_entries",
            "idealized",
            "retry_budget",
        ]


class TestDefaults:
    def test_table1_values(self):
        config = MachineConfig()
        assert config.ncores == 32
        assert config.l1_bytes == 64 * 1024 and config.l1_assoc == 4
        assert config.l2_bytes == 1024 * 1024
        assert config.l2_hit_cycles == 10
        assert config.dram_cycles == 100
        assert config.perm_cache_bytes == 4 * 1024
        assert config.hop_cycles == 20
        assert (config.ivb_entries, config.constraint_entries,
                config.ssb_entries) == (16, 16, 32)

    def test_rows_render_every_parameter(self):
        rows = dict(MachineConfig().rows())
        assert "32 in-order cores" in rows["Processor"]
        assert "16-entry original value buffer" in rows[
            "RETCON structures"
        ]

    def test_immutable(self):
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            MachineConfig().ncores = 4


class TestDerivedConfigs:
    def test_with_cores(self):
        config = MachineConfig().with_cores(8)
        assert config.ncores == 8
        assert config.l1_bytes == MachineConfig().l1_bytes

    def test_idealize(self):
        config = MachineConfig().idealize()
        assert config.idealized
        assert not MachineConfig().idealized

    def test_small_test_config_overrides(self):
        config = small_test_config(ncores=3, hop_cycles=5)
        assert config.ncores == 3
        assert config.hop_cycles == 5
        assert config.l1_bytes < MachineConfig().l1_bytes
