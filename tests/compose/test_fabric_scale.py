"""build_fabric end-to-end, including the n >= 100,000 target regime.

The 100k build stays fast because the block lands in ``solve_orp``'s
trivial clique regime (no annealing) and the predictor works from one
block APSP instead of a fabric one.
"""

from __future__ import annotations

import pytest

from repro.campaign.store import CampaignStore
from repro.compose.fabric import ComposeResult, build_fabric
from repro.core.metrics import h_aspl_and_diameter
from repro.obs import clock as obs_clock


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path, "scale")


class TestBuildFabric:
    def test_measured_equals_predicted(self, store):
        result = build_fabric(
            96, 12, block_hosts=24, steps=200, store=store, measure=True
        )
        assert result.measured_h_aspl == result.predicted_h_aspl
        assert result.measured_diameter == result.predicted_diameter
        assert result.h_aspl == result.measured_h_aspl

    def test_bounds_bracket_measurement(self, store):
        result = build_fabric(
            96, 12, block_hosts=24, steps=200, store=store, measure=True
        )
        assert result.h_aspl_lower_bound <= result.measured_h_aspl + 1e-9
        assert result.shimizu_mori_bound <= result.measured_h_aspl + 1e-9
        assert result.diameter_lower_bound <= result.measured_diameter

    def test_warm_rerun_reuses_block(self, store):
        cold = build_fabric(96, 12, block_hosts=24, steps=200, store=store)
        warm = build_fabric(96, 12, block_hosts=24, steps=200, store=store)
        assert not cold.block_cached
        assert warm.block_cached and warm.block_source == "store"
        assert warm.block_digest == cold.block_digest
        assert warm.predicted_h_aspl == cold.predicted_h_aspl
        assert "cached" in warm.summary()

    def test_result_round_trips_without_graph(self, store):
        result = build_fabric(96, 12, block_hosts=24, steps=200, store=store)
        assert result.graph is not None
        back = ComposeResult.from_dict(result.to_dict())
        assert back.graph is None
        assert back.to_dict() == result.to_dict()
        assert back.h_aspl == result.h_aspl
        assert back.gap == result.gap

    def test_measure_matches_independent_apsp(self, store):
        result = build_fabric(
            128, 14, block_hosts=32, steps=200, store=store, measure=True
        )
        aspl, diam = h_aspl_and_diameter(result.graph)
        assert result.measured_h_aspl == aspl
        assert result.measured_diameter == diam


class TestHundredThousandHosts:
    def test_100k_fabric_under_a_minute(self, tmp_path):
        # Block n_b=2500 at r_b=100 is clique-feasible (solve_orp's trivial
        # regime, no annealing), so 40 copies reach n=100,000 exactly at
        # fabric radix 139.  Acceptance: valid fabric, closed-form
        # prediction, bounds bracket — in well under a minute.
        store = CampaignStore(tmp_path, "big")
        t0 = obs_clock()
        result = build_fabric(100_000, 139, block_hosts=2500, store=store)
        wall = obs_clock() - t0
        assert result.n == 100_000 and result.copies == 40
        assert result.graph is not None
        assert result.graph.num_hosts == result.n
        result.graph.validate()
        assert result.predicted_h_aspl < 5.0
        assert result.h_aspl_lower_bound <= result.predicted_h_aspl
        assert result.shimizu_mori_bound <= result.predicted_h_aspl + 1e-9
        assert wall < 60.0

        # Warm re-run: the 2500-host block must come from the store.
        warm = build_fabric(100_000, 139, block_hosts=2500, store=store)
        assert warm.block_cached
        assert warm.predicted_h_aspl == result.predicted_h_aspl
