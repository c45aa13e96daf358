"""``kind: "compose"`` campaign points: normalize, run, cache, report."""

from __future__ import annotations

import pytest

from repro.campaign.report import format_report
from repro.campaign.spec import (
    SpecError,
    load_spec,
    normalize_point,
    point_digest,
    solve_point,
)
from repro.campaign.store import CampaignStore
from repro.campaign.executor import run_campaign
from repro.compose.fabric import ComposeResult
from repro.core.serialization import graph_to_text


def compose_spec(**overrides):
    document = {
        "format": "repro.campaign.spec/v1",
        "name": "compose-unit",
        "kind": "compose",
        "grid": {"n": [96], "r": [12]},
        "defaults": {"block_hosts": 24, "steps": 200, "measure": True},
    }
    document.update(overrides)
    return load_spec(document)


class TestNormalization:
    def test_keeps_kind_and_fills_defaults(self):
        point = normalize_point({"kind": "compose", "n": 96, "r": 12})
        assert point["kind"] == "compose"
        assert point["copies"] is None and point["block_hosts"] is None
        assert point["steps"] == 20_000 and point["measure"] is False

    def test_measure_accepts_only_bool(self):
        with pytest.raises(SpecError, match="measure"):
            normalize_point({"kind": "compose", "n": 96, "r": 12, "measure": 1})
        point = normalize_point(
            {"kind": "compose", "n": 96, "r": 12, "measure": True}
        )
        assert point["measure"] is True

    def test_bool_smuggled_as_int_rejected(self):
        with pytest.raises(SpecError, match="copies"):
            normalize_point({"kind": "compose", "n": 96, "r": 12, "copies": True})

    def test_range_checks(self):
        with pytest.raises(SpecError, match="n >= 2"):
            normalize_point({"kind": "compose", "n": 1, "r": 12})
        with pytest.raises(SpecError, match="radix >= 3"):
            normalize_point({"kind": "compose", "n": 96, "r": 2})
        with pytest.raises(SpecError, match="block_hosts"):
            normalize_point(
                {"kind": "compose", "n": 96, "r": 12, "block_hosts": 1}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown compose point field"):
            normalize_point({"kind": "compose", "n": 96, "r": 12, "mode": "link"})

    def test_digest_stable_and_kind_forked(self):
        compose = {"kind": "compose", "n": 96, "r": 12}
        assert point_digest(compose) == point_digest(dict(compose))
        assert point_digest(compose) != point_digest({"n": 96, "r": 12})


class TestRunAndReport:
    def test_run_solves_and_round_trips(self, tmp_path):
        spec = compose_spec()
        result = run_campaign(spec, tmp_path)
        assert result.count("solved") == 1
        store = CampaignStore(tmp_path, spec.name)
        digest = spec.digests()[0]
        back = store.load_result(digest)
        assert isinstance(back, ComposeResult)
        assert back.measured_h_aspl == back.predicted_h_aspl
        assert back.graph is None  # fabric graph is not persisted

    def test_second_pass_is_cached(self, tmp_path):
        spec = compose_spec()
        run_campaign(spec, tmp_path)
        again = run_campaign(spec, tmp_path)
        assert again.count("cached") == 1
        assert not again.solver_work_done

    def test_block_lands_as_plain_orp_point(self, tmp_path):
        spec = compose_spec()
        run_campaign(spec, tmp_path)
        store = CampaignStore(tmp_path, spec.name)
        digest = spec.digests()[0]
        fabric_result = store.load_result(digest)
        # The block's own ORP artifact exists and best_for finds it.
        assert store.has_result(fabric_result.block_digest)
        best = store.best_for(fabric_result.block_n, fabric_result.block_r)
        assert best is not None and best.digest == fabric_result.block_digest

    def test_block_takes_every_solver_field(self, tmp_path):
        # Every solver field off its default: a field the compose branch
        # dropped would give the block the default's digest and graph.  A
        # (64, 9) block, because the default spec's (24, 9) block is too
        # small for its anneal to depend on the temperatures.
        solver = {
            "m": 16,
            "steps": 150,
            "restarts": 2,
            "seed": 5,
            "operation": "swap",
            "construction": "regular",
            "initial_temperature": 0.5,
            "final_temperature": 0.05,
        }
        spec = compose_spec(
            grid={"n": [128], "r": [10]}, defaults={"block_hosts": 64, **solver}
        )
        run_campaign(spec, tmp_path)
        store = CampaignStore(tmp_path, spec.name)
        fabric_result = store.load_result(spec.digests()[0])
        block = normalize_point(
            {"n": fabric_result.block_n, "r": fabric_result.block_r, **solver}
        )
        assert fabric_result.block_digest == point_digest(block)
        stored = store.load_result(point_digest(block))
        expected = solve_point(block)
        assert graph_to_text(stored.graph) == graph_to_text(expected.graph)
        assert stored.h_aspl == expected.h_aspl

    def test_report_renders_compose_rows(self, tmp_path):
        spec = compose_spec()
        run_campaign(spec, tmp_path)
        text = format_report(spec, tmp_path)
        assert "copies=auto block=24" in text
        assert "1/1 points solved" in text

    def test_report_best_column(self, tmp_path):
        spec = compose_spec()
        run_campaign(spec, tmp_path)
        text = format_report(spec, tmp_path, best=True)
        assert "best(n,r)" in text
        # The fabric's (96, 12) has no plain-ORP result, only the block's
        # (24, 9) does, so this row's best column is empty.
        assert text.count("@") == 0
