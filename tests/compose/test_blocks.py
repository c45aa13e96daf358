"""Block memoization through the campaign store."""

from __future__ import annotations

import pytest

from repro.campaign.spec import SpecError, point_digest
from repro.campaign.store import CampaignStore
from repro.compose.blocks import resolve_block
from repro.compose.fabric import build_fabric
from repro.obs import TelemetryRegistry


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path, "blocks")


class TestBlockPoint:
    def test_is_plain_orp_point(self):
        point = resolve_block(24, 6, steps=200).point
        assert "kind" not in point
        assert point["n"] == 24 and point["r"] == 6 and point["steps"] == 200

    def test_digest_matches_campaign_digest(self):
        # A compose block and a campaign sweeping the same parameters must
        # share one store key.
        point = resolve_block(24, 6, steps=200, seed=3).point
        assert point_digest(point) == point_digest(
            {"n": 24, "r": 6, "steps": 200, "seed": 3}
        )

    @pytest.mark.parametrize("keyword", ["stepz", "kind"])
    @pytest.mark.parametrize("build", [resolve_block, build_fabric])
    def test_unknown_solver_keyword_names_the_field(self, build, keyword):
        # A kind would file the block's solution under a compose digest.
        with pytest.raises(SpecError, match=keyword):
            build(24, 6, steps=200, **{keyword: "compose"})


class TestResolveBlock:
    def test_miss_solves_and_stores(self, store):
        block = resolve_block(24, 6, store=store, steps=200)
        assert block.source == "solved" and not block.cached
        assert store.has_result(block.digest)
        assert block.graph.num_hosts == 24

    def test_hit_is_cached_by_digest(self, store):
        first = resolve_block(24, 6, store=store, steps=200)
        again = resolve_block(24, 6, store=store, steps=200)
        assert again.cached and again.source == "store"
        assert again.digest == first.digest
        assert again.h_aspl == first.h_aspl
        assert again.graph == first.graph

    def test_different_params_fork_digests(self, store):
        a = resolve_block(24, 6, store=store, steps=200)
        b = resolve_block(24, 6, store=store, steps=300, use_best=False)
        assert a.digest != b.digest
        assert b.source == "solved"  # steps differ -> no exact hit

    def test_best_fallback_without_best_disabled(self, store):
        resolve_block(24, 6, store=store, steps=200)
        strict = resolve_block(24, 6, store=store, steps=300, use_best=False)
        assert strict.source == "solved"

    def test_best_fallback_serves_best_known(self, store):
        seeded = resolve_block(24, 6, store=store, steps=200)
        served = resolve_block(24, 6, store=store, steps=999)
        assert served.cached and served.source == "store-best"
        assert served.digest == seeded.digest
        assert served.h_aspl == seeded.h_aspl
        assert served.graph == seeded.graph

    def test_no_store_always_solves(self):
        block = resolve_block(24, 6, steps=200)
        assert block.source == "solved" and not block.cached

    def test_telemetry_events(self, store):
        tel = TelemetryRegistry("t")
        resolve_block(24, 6, store=store, steps=200, telemetry=tel)
        resolve_block(24, 6, store=store, steps=200, telemetry=tel)
        names = [e["name"] for e in tel.snapshot()["events"]]
        assert "compose.block_solved" in names
        assert "compose.block_cached" in names


class TestBestFor:
    def test_empty_store(self, store):
        assert store.best_for(24, 6) is None

    def test_picks_minimum_h_aspl(self, store):
        worse = resolve_block(24, 6, store=store, steps=50, seed=9)
        better = resolve_block(24, 6, store=store, steps=400, use_best=False)
        expected = min(
            (worse, better), key=lambda b: (b.h_aspl, b.digest)
        )
        best = store.best_for(24, 6)
        assert best is not None
        assert best.digest == expected.digest
        assert best.h_aspl == expected.h_aspl

    def test_filters_other_shapes(self, store):
        resolve_block(24, 6, store=store, steps=200)
        assert store.best_for(25, 6) is None
        assert store.best_for(24, 7) is None

    def test_skips_kinded_points(self, store, tmp_path):
        # A compose result at the same (n, r) must not masquerade as an
        # ORP block (it has no graph artifact and carries a kind).
        result = build_fabric(24, 8, copies=2, steps=100)
        store.save_result(
            "f" * 64,
            {"kind": "compose", "n": 24, "r": 8},
            result,
        )
        assert store.best_for(24, 8) is None
