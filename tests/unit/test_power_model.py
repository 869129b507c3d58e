"""Unit tests for the power/speed models."""

import pytest

from repro.errors import PowerModelError
from repro.power import (
    ContinuousPowerModel,
    DiscretePowerModel,
    make_power_model,
    transmeta_model,
    xscale_model,
)


class TestDiscreteModel:
    def test_xscale_levels(self, xscale):
        assert xscale.levels() == (0.15, 0.4, 0.6, 0.8, 1.0)
        assert xscale.s_min == 0.15
        assert xscale.s_max == 1.0
        assert xscale.f_max_mhz == 1000.0

    def test_transmeta_sixteen_levels(self, transmeta):
        assert len(transmeta.levels()) == 16
        assert transmeta.s_min == pytest.approx(200 / 700)

    def test_snap_up_rounds_to_next_level(self, xscale):
        assert xscale.snap_up(0.41) == 0.6
        assert xscale.snap_up(0.4) == 0.4
        assert xscale.snap_up(0.05) == 0.15  # below s_min clamps up
        assert xscale.snap_up(0.99) == 1.0
        assert xscale.snap_up(1.0) == 1.0

    def test_bracket(self, xscale):
        assert xscale.bracket(0.5) == (0.4, 0.6)
        assert xscale.bracket(0.6) == (0.4, 0.6)
        assert xscale.bracket(0.05) == (0.15, 0.15)

    def test_power_is_v_squared_f(self, xscale):
        # at 600 MHz / 1.3 V: (1.3/1.8)^2 * 0.6
        assert xscale.power(0.6) == pytest.approx((1.3 / 1.8) ** 2 * 0.6)
        assert xscale.power(1.0) == pytest.approx(1.0)

    def test_power_nonlinear_vs_cubic(self, xscale):
        # the real table saves less than the idealized cubic model at
        # low speed (voltage does not fall proportionally)
        assert xscale.power(0.4) > 0.4 ** 3

    def test_task_energy_quadratic_effect(self, xscale):
        # energy of the same work shrinks when run slower
        e_fast = xscale.task_energy(1.0, work_at_max=10)
        e_slow = xscale.task_energy(0.6, work_at_max=10)
        assert e_slow < e_fast

    def test_idle_energy_five_percent(self, xscale):
        assert xscale.idle_power == pytest.approx(0.05)
        assert xscale.idle_energy(100) == pytest.approx(5.0)

    def test_level_index_rejects_non_level(self, xscale):
        with pytest.raises(PowerModelError, match="not an available level"):
            xscale.level_index(0.5)

    def test_cycles_to_time(self, xscale):
        # 300 cycles at 1000 MHz = 0.3 us
        assert xscale.cycles_to_time(300, 1.0) == pytest.approx(0.3)
        assert xscale.cycles_to_time(300, 0.15) == pytest.approx(2.0)

    def test_invalid_tables_rejected(self):
        with pytest.raises(PowerModelError, match="at least two"):
            DiscretePowerModel([(100, 1.0)])
        with pytest.raises(PowerModelError, match="duplicate"):
            DiscretePowerModel([(100, 1.0), (100, 1.2)])
        with pytest.raises(PowerModelError, match="positive"):
            DiscretePowerModel([(100, 1.0), (-5, 0.8)])
        with pytest.raises(PowerModelError, match="non-decreasing"):
            DiscretePowerModel([(100, 1.2), (200, 1.0)])

    def test_levels_closer_than_the_level_tolerance_rejected(self):
        # 1000 and 1000.0000005 MHz normalize to speeds 5e-10 apart:
        # within level_index's 1e-9, so no speed could name either level
        with pytest.raises(PowerModelError) as ei:
            DiscretePowerModel([(500, 1.0), (1000, 1.2),
                                (1000.0000005, 1.2)])
        assert "1000 and 1000.0000005 MHz" in str(ei.value)
        # levels 1e-6 apart stay distinct and index exactly
        model = DiscretePowerModel([(1000, 1.2), (1000.001, 1.2)])
        assert [model.level_index(s) for s in model.levels()] == [0, 1]

    def test_negative_energy_inputs_rejected(self, xscale):
        with pytest.raises(PowerModelError):
            xscale.busy_energy(1.0, -1.0)
        with pytest.raises(PowerModelError):
            xscale.task_energy(0.0, 1.0)
        with pytest.raises(PowerModelError):
            xscale.idle_energy(-1.0)


class TestContinuousModel:
    def test_power_cubic(self, continuous):
        assert continuous.power(1.0) == pytest.approx(1.0)
        assert continuous.power(0.5) == pytest.approx(0.125)

    def test_energy_quadratic(self, continuous):
        # halving the speed quarters the energy of fixed work
        assert continuous.task_energy(0.5, 10) == pytest.approx(
            0.25 * continuous.task_energy(1.0, 10))

    def test_snap_respects_s_min(self):
        m = ContinuousPowerModel(s_min=0.3)
        assert m.snap_up(0.1) == 0.3
        assert m.snap_up(0.7) == 0.7
        assert m.snap_up(2.0) == 1.0

    def test_levels_empty(self, continuous):
        assert continuous.levels() == ()
        lo, hi = continuous.bracket(0.42)
        assert lo == hi == pytest.approx(0.42)

    def test_invalid_config(self):
        with pytest.raises(PowerModelError):
            ContinuousPowerModel(s_min=1.0)
        with pytest.raises(PowerModelError):
            ContinuousPowerModel(f_max_mhz=0)
        with pytest.raises(PowerModelError):
            ContinuousPowerModel(idle_fraction=2.0)

    def test_out_of_range_speed_rejected(self, continuous):
        with pytest.raises(PowerModelError):
            continuous.voltage_ratio(1.5)


class TestFactory:
    def test_named_models(self):
        assert make_power_model("transmeta").name == "transmeta"
        assert make_power_model("XSCALE").name == "xscale"
        assert make_power_model("continuous").name == "continuous"

    def test_unknown_name(self):
        with pytest.raises(PowerModelError, match="unknown power model"):
            make_power_model("pentium")

    def test_idle_fraction_passthrough(self):
        m = make_power_model("xscale", idle_fraction=0.1)
        assert m.idle_power == pytest.approx(0.1)

    def test_convenience_builders(self):
        assert transmeta_model().f_max_mhz == 700.0
        assert xscale_model().f_max_mhz == 1000.0
