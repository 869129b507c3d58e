"""FaultPlan mechanics: matching, one-shot accounting, replayability.

The injection layer itself must be deterministic, or a failing chaos
run could not be replayed from its printed seed.  These tests pin the
matching rules (per-process occurrence vs explicit key), the global
``times`` budget through scratch-directory markers, and the inert
behaviour when no plan is installed.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.faults import (
    ACTIONS,
    SITE_ACTIONS,
    SITES,
    FaultPlan,
    FaultSpec,
    active,
    fire,
    install,
    uninstall,
)


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


class TestValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault site"):
            FaultSpec(site="disk-write", action="raise")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault action"):
            FaultSpec(site="worker-chunk", action="explode")

    def test_action_must_suit_the_site(self):
        # a worker-chunk spec can only crash; anything else would be
        # a spec that never does what it says
        with pytest.raises(ConfigError, match="worker-chunk"):
            FaultSpec(site="worker-chunk", action="raise")
        for site, actions in SITE_ACTIONS.items():
            for action in actions:
                FaultSpec(site=site, action=action)

    def test_occurrence_is_one_based(self):
        with pytest.raises(ConfigError, match="1-based"):
            FaultSpec(site="online-admit", action="raise", occurrence=0)

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigError, match="times"):
            FaultSpec(site="online-admit", action="raise", times=0)


class TestMatching:
    def test_fires_on_nth_occurrence_only(self):
        install(FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", occurrence=3),)))
        assert fire("online-admit") is None
        assert fire("online-admit") is None
        assert fire("online-admit") == "raise"
        assert fire("online-admit") is None  # times=1: budget spent

    def test_occurrence_counts_are_per_site(self):
        install(FaultPlan(specs=(
            FaultSpec(site="cache-read", action="corrupt", occurrence=2),)))
        assert fire("worker-chunk") is None  # does not advance cache-read
        assert fire("cache-read") is None
        assert fire("cache-read") == "corrupt"

    def test_key_match_overrides_occurrence(self):
        install(FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=30),)))
        assert fire("online-admit", key=0) is None
        assert fire("online-admit", key=10) is None
        assert fire("online-admit", key=30) == "raise"

    def test_times_budget_without_scratch(self):
        install(FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=7, times=2),)))
        assert fire("online-admit", key=7) == "raise"
        assert fire("online-admit", key=7) == "raise"
        assert fire("online-admit", key=7) is None

    def test_reinstall_resets_local_accounting(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", occurrence=1),))
        install(plan)
        assert fire("online-admit") == "raise"
        install(plan)  # a fresh worker process starts from scratch
        assert fire("online-admit") == "raise"

    def test_no_plan_is_inert(self):
        for site in SITES:
            assert fire(site) is None
            assert fire(site, key=123) is None
        assert active() is None


class TestScratchAccounting:
    def test_markers_make_times_global(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", occurrence=1),),
            scratch=str(tmp_path))
        install(plan)
        assert fire("online-admit") == "raise"
        # simulate a second process (or a re-dispatched chunk in a
        # rebuilt pool): counters reset, but the marker file persists
        install(plan)
        assert fire("online-admit") is None
        assert list(tmp_path.iterdir()), "marker file expected"

    def test_times_slots_with_scratch(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=5, times=2),),
            scratch=str(tmp_path))
        install(plan)
        assert fire("online-admit", key=5) == "raise"
        install(plan)
        assert fire("online-admit", key=5) == "raise"
        install(plan)
        assert fire("online-admit", key=5) is None

    def test_filtered_plan_does_not_steal_other_specs_markers(self, tmp_path):
        """Regression: marker names must survive :meth:`FaultPlan.only`.

        The parent installs a filtered copy of the plan; if markers
        were named by spec *position*, the parent's first spec would
        claim the slot belonging to the full plan's first spec and
        silently disarm a worker-side fault.
        """
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=10),
            FaultSpec(site="cache-read", action="corrupt", occurrence=1),
        ), scratch=str(tmp_path))
        install(plan.only("cache-read"))  # the parent's copy fires first
        assert fire("cache-read") == "corrupt"
        install(plan)  # a worker's full copy must keep its own budget
        assert fire("online-admit", key=10) == "raise"

    def test_unwritable_scratch_never_fires(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", occurrence=1),),
            scratch=str(tmp_path / "does-not-exist"))
        install(plan)
        assert fire("online-admit") is None


class TestActions:
    def test_crash_action_is_matched(self):
        # exercised via check() — fire() would os._exit this process;
        # the real crash path runs in tests/chaos/test_recovery.py
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", occurrence=1),))
        assert plan.check("worker-chunk", None, {}, {}) == "crash"


class TestPlanTools:
    def test_only_filters_sites(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash"),
            FaultSpec(site="cache-read", action="corrupt"),
            FaultSpec(site="online-admit", action="raise"),
        ), scratch="/tmp/x", seed=9)
        parent = plan.only("cache-read")
        assert [s.site for s in parent.specs] == ["cache-read"]
        assert parent.scratch == plan.scratch
        assert parent.seed == plan.seed

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(seed=424242, n_faults=3)
        b = FaultPlan.random(seed=424242, n_faults=3)
        assert a == b
        assert a.seed == 424242
        for spec in a.specs:
            assert spec.site in SITES
            assert spec.action in ACTIONS

    def test_describe_carries_seed_and_specs(self):
        plan = FaultPlan.random(seed=31337, n_faults=2)
        text = plan.describe()
        assert "31337" in text
        for spec in plan.specs:
            assert spec.site in text
            assert spec.action in text
