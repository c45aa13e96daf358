"""Tests for campaign spec validation, grid expansion, and point digests."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import (
    CAMPAIGN_SPEC_FORMAT,
    POINT_FIELDS,
    ExecutorConfig,
    SpecError,
    canonical_json,
    expand_grid,
    load_spec,
    normalize_point,
    point_digest,
    solve_point,
)
from repro.core.annealing import AnnealingSchedule
from repro.core.serialization import graph_to_text
from repro.core.solver import solve_orp


class TestNormalizePoint:
    def test_defaults_made_explicit(self):
        out = normalize_point({"n": 64, "r": 8})
        assert out == {
            "n": 64,
            "r": 8,
            "m": None,
            "steps": 20_000,
            "restarts": 1,
            "seed": 0,
            "operation": "two-neighbor-swing",
            "construction": "random",
            "initial_temperature": 0.05,
            "final_temperature": 1e-4,
        }

    def test_explicit_defaults_digest_identically(self):
        implicit = normalize_point({"n": 64, "r": 8})
        explicit = normalize_point(
            {"n": 64, "r": 8, "steps": 20_000, "seed": 0, "restarts": 1}
        )
        assert point_digest(implicit) == point_digest(explicit)

    def test_missing_required_field(self):
        with pytest.raises(SpecError, match="required field 'r'"):
            normalize_point({"n": 64})

    def test_unknown_field(self):
        with pytest.raises(SpecError, match="unknown point field"):
            normalize_point({"n": 64, "r": 8, "temperature": 1.0})

    def test_wrong_type(self):
        with pytest.raises(SpecError, match="'steps' must be"):
            normalize_point({"n": 64, "r": 8, "steps": "many"})

    def test_bool_is_not_int(self):
        with pytest.raises(SpecError, match="'seed' must be"):
            normalize_point({"n": 64, "r": 8, "seed": True})

    def test_out_of_range(self):
        with pytest.raises(SpecError, match="'n' must be >= 1"):
            normalize_point({"n": 0, "r": 8})
        with pytest.raises(SpecError, match="'m' must be >= 1"):
            normalize_point({"n": 64, "r": 8, "m": 0})

    @pytest.mark.parametrize("kind", [None, "resilience", "compose"])
    @pytest.mark.parametrize(
        "n,r,message", [(1, 8, "n >= 2"), (64, 2, "radix >= 3")]
    )
    def test_every_kind_needs_a_runnable_shape(self, kind, n, r, message):
        # No run can take fewer than 2 hosts or a radix below 3; such a
        # point used to fail every retry of every run instead of the spec.
        point = {"n": n, "r": r} if kind is None else {"kind": kind, "n": n, "r": r}
        with pytest.raises(SpecError, match=message):
            normalize_point(point)
        with pytest.raises(SpecError, match=message):
            load_spec({"name": "unrunnable", "grid": point})

    def test_bad_operation_and_construction(self):
        with pytest.raises(SpecError, match="operation"):
            normalize_point({"n": 64, "r": 8, "operation": "shuffle"})
        with pytest.raises(SpecError, match="construction"):
            normalize_point({"n": 64, "r": 8, "construction": "clever"})

    def test_bad_temperature_ordering(self):
        with pytest.raises(SpecError, match="final_temperature"):
            normalize_point(
                {"n": 64, "r": 8, "initial_temperature": 0.01,
                 "final_temperature": 0.1}
            )

    def test_int_temperatures_coerced_to_float(self):
        out = normalize_point(
            {"n": 64, "r": 8, "initial_temperature": 1, "final_temperature": 1}
        )
        assert isinstance(out["initial_temperature"], float)
        assert isinstance(out["final_temperature"], float)

    def test_int_temperature_digests_like_float(self):
        a = point_digest({"n": 64, "r": 8, "initial_temperature": 1,
                          "final_temperature": 1})
        b = point_digest({"n": 64, "r": 8, "initial_temperature": 1.0,
                          "final_temperature": 1.0})
        assert a == b


class TestSolvePoint:
    def test_maps_every_field_onto_the_solver(self):
        # Every field off its default, against a hand-written solve_orp
        # call: a field solve_point dropped would run the default instead.
        # At (64, 9) the anneal accepts a different number of moves under
        # each temperature, so a dropped temperature shows too.
        point = normalize_point(
            {"n": 64, "r": 9, "m": 16, "steps": 150, "restarts": 2, "seed": 5,
             "operation": "swap", "construction": "regular",
             "initial_temperature": 0.5, "final_temperature": 0.05}
        )
        schedule = AnnealingSchedule(
            num_steps=150, initial_temperature=0.5, final_temperature=0.05
        )
        expected = solve_orp(
            64, 9, m=16, schedule=schedule, restarts=2, seed=5,
            operation="swap", construction="regular",
        )
        solved = solve_point(point)
        assert graph_to_text(solved.graph) == graph_to_text(expected.graph)
        assert solved.h_aspl == expected.h_aspl
        assert [(s.accepted, s.h_aspl) for s in solved.restarts] == [
            (s.accepted, s.h_aspl) for s in expected.restarts
        ]


class TestPointDigest:
    def test_key_order_does_not_matter(self):
        a = point_digest({"n": 64, "r": 8, "seed": 3})
        b = point_digest({"seed": 3, "r": 8, "n": 64})
        assert a == b

    def test_value_change_changes_digest(self):
        base = point_digest({"n": 64, "r": 8})
        for override in ({"seed": 1}, {"steps": 100}, {"m": 12},
                         {"operation": "swap"}):
            assert point_digest({"n": 64, "r": 8, **override}) != base

    def test_digest_is_stable_across_processes(self):
        # A golden value: the digest is content, not an id() — changing it
        # silently orphans every existing store.
        assert point_digest({"n": 64, "r": 8}) == (
            point_digest(dict(normalize_point({"n": 64, "r": 8})))
        )
        assert len(point_digest({"n": 64, "r": 8})) == 64

    @pytest.mark.parametrize(
        "point,digest",
        [
            ({"n": 1024, "r": 15},
             "a0d077e20293bc0f125914831ef8eb80125d3ede83cf284673c1a03e05b1670b"),
            ({"kind": "resilience", "n": 256, "r": 12},
             "03a91bf050360e38fdaa72fa940c629c991d70d1191fd23f78e99709dd7d8af9"),
            ({"kind": "compose", "n": 100000, "r": 139},
             "bdfd07720eb2715c51674c42c6814d0cb0722bbfdff2a9b8c5ee44b45ad6525b"),
        ],
    )
    def test_golden_digests(self, point, digest):
        # Pinned across the removal of the digest-neutral "backend" field:
        # every stored result must stay addressable.
        assert point_digest(point) == digest

    @pytest.mark.parametrize("kind", [None, "resilience", "compose"])
    def test_backend_field_is_unknown(self, kind):
        point = {"n": 256, "r": 12, "backend": "bitset"}
        if kind is not None:
            point["kind"] = kind
        with pytest.raises(SpecError, match="unknown"):
            normalize_point(point)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestExpandGrid:
    def test_cartesian_product_in_sorted_axis_order(self):
        points = expand_grid({"seed": [0, 1], "r": [8, 12]}, {"n": 64})
        # Axes sorted: r before seed; values in listed order.
        combos = [(p["r"], p["seed"]) for p in points]
        assert combos == [(8, 0), (8, 1), (12, 0), (12, 1)]

    def test_scalar_axis_means_single_value(self):
        points = expand_grid({"n": 64, "r": [8, 12]})
        assert [p["n"] for p in points] == [64, 64]

    def test_points_are_normalized(self):
        (point,) = expand_grid({"n": [64], "r": [8]})
        assert set(point) == set(POINT_FIELDS)

    def test_grid_defaults_overlap_rejected(self):
        with pytest.raises(SpecError, match="both grid and defaults"):
            expand_grid({"n": [64], "r": [8]}, {"n": 128})

    def test_duplicate_points_rejected(self):
        with pytest.raises(SpecError, match="duplicate point"):
            expand_grid({"n": [64, 64], "r": [8]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="axis 'seed' is empty"):
            expand_grid({"n": [64], "r": [8], "seed": []})

    def test_empty_grid_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            expand_grid({})


class TestLoadSpec:
    def spec_doc(self, **overrides):
        doc = {
            "name": "unit-spec",
            "grid": {"n": [32], "r": [6], "seed": [0, 1]},
            "defaults": {"steps": 500},
        }
        doc.update(overrides)
        return doc

    def test_valid_spec(self):
        spec = load_spec(self.spec_doc())
        assert spec.name == "unit-spec"
        assert len(spec.points) == 2
        assert len(spec.digests()) == 2
        assert spec.executor == ExecutorConfig()
        assert spec.raw["grid"] == {"n": [32], "r": [6], "seed": [0, 1]}

    def test_spec_round_trips_through_json(self):
        doc = json.loads(json.dumps(self.spec_doc()))
        assert load_spec(doc).digests() == load_spec(self.spec_doc()).digests()

    def test_explicit_format_accepted(self):
        assert load_spec(self.spec_doc(format=CAMPAIGN_SPEC_FORMAT)).name == "unit-spec"

    def test_unknown_format_rejected(self):
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec(self.spec_doc(format="repro.campaign.spec/v99"))

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            load_spec(["not", "a", "spec"])

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            load_spec(self.spec_doc(points=[{"n": 1}]))

    @pytest.mark.parametrize("name", [None, "", "with space", "/abs", ".dot", 7])
    def test_bad_names_rejected(self, name):
        with pytest.raises(SpecError, match="name"):
            load_spec(self.spec_doc(name=name))

    def test_executor_parsed(self):
        spec = load_spec(
            self.spec_doc(
                executor={"jobs": 3, "checkpoint_every": 50, "timeout_s": 10,
                          "retries": 2, "backoff_s": 0.5}
            )
        )
        assert spec.executor == ExecutorConfig(
            jobs=3, checkpoint_every=50, timeout_s=10, retries=2, backoff_s=0.5
        )

    def test_unknown_executor_field_rejected(self):
        with pytest.raises(SpecError, match="unknown executor field"):
            load_spec(self.spec_doc(executor={"workers": 4}))

    def test_executor_type_check(self):
        with pytest.raises(SpecError, match="executor field 'jobs'"):
            load_spec(self.spec_doc(executor={"jobs": "all"}))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"checkpoint_every": 0},
            {"timeout_s": 0},
            {"retries": -1},
            {"backoff_s": -0.1},
        ],
    )
    def test_executor_range_check(self, kwargs):
        with pytest.raises(SpecError):
            ExecutorConfig(**kwargs)
