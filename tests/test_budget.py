import math

import pytest

from btsearch.budget import Budget, SchedulerConfig, select_budget


def defaults(num_workers=12, **kw):
    return SchedulerConfig(num_workers=num_workers, **kw)


class TestSelectBudget:
    def test_short_list_keeps_initial_budgets(self):
        # size = 12 + 2 = 14; 5 < 14*1 keeps the depth limit
        b = select_budget(5, defaults())
        assert (b.max_depth, b.max_nodes) == (2, 5000)

    def test_medium_list_drops_depth_limit(self):
        # 14 <= 20 <= 42: depth unbounded, node budget unscaled
        b = select_budget(20, defaults())
        assert b.max_depth is None
        assert b.max_nodes == 5000

    def test_long_list_scales_node_budget(self):
        # 50 > 42: nodes scaled to 40 * 5000
        b = select_budget(50, defaults())
        assert b.max_depth is None
        assert b.max_nodes == 200000

    def test_policy_is_stateless_in_list_length(self):
        cfg = defaults()
        grown = select_budget(100, cfg)
        assert grown.max_nodes == 200000
        reverted = select_budget(5, cfg)
        assert (reverted.max_depth, reverted.max_nodes) == (2, 5000)
        assert select_budget(5, cfg) == reverted

    def test_boundaries_are_strict(self):
        cfg = defaults()  # size = 14
        assert select_budget(13, cfg).max_depth == 2
        assert select_budget(14, cfg).max_depth is None
        assert select_budget(42, cfg).max_nodes == 5000
        assert select_budget(43, cfg).max_nodes == 200000

    def test_static_config_never_changes(self):
        cfg = defaults(base_max_depth=None, base_max_nodes=50, scale=1)
        for n in (0, 5, 100, 10000):
            b = select_budget(n, cfg)
            assert b.max_depth is None and b.max_nodes == 50

    def test_unbounded_base_nodes_stay_unbounded(self):
        cfg = defaults(base_max_nodes=None)
        assert select_budget(1000, cfg).max_nodes is None

    def test_budget_kind_passthrough(self):
        cfg = defaults(budget_kind="conflicts")
        assert select_budget(0, cfg).kind == "conflicts"


class TestValidation:
    def test_lmin_above_lmax_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(lmin=3.0, lmax=1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_workers": 0},
            {"scale": 0},
            {"base_max_nodes": 0},
            {"base_max_depth": 0},
            {"lmin": 0.0},
            {"stop_after_jobs": 0},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            SchedulerConfig(**kw)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_depth=0, max_nodes=5)
        with pytest.raises(ValueError):
            Budget(max_depth=None, max_nodes=0)
        with pytest.raises(ValueError):
            Budget(max_depth=1, max_nodes=1, kind="steps")

    def test_infinite_lmin_lmax_allowed_for_static_budgets(self):
        cfg = SchedulerConfig(lmin=math.inf, lmax=math.inf)
        assert select_budget(10**9, cfg).max_depth == 2
