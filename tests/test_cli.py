"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestBounds:
    def test_prints_all_quantities(self, capsys):
        assert main(["bounds", "1024", "24"]) == 0
        out = capsys.readouterr().out
        assert "diameter lower bound" in out
        assert "h-ASPL lower bound" in out
        assert "m_opt" in out
        assert "79" in out  # known m_opt for (1024, 24)


class TestSolve:
    def test_solve_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "g.hsg"
        code = main(
            ["solve", "24", "8", "--steps", "150", "--seed", "1",
             "--out", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ORP(n=24, r=8)" in out
        assert out_file.exists()
        from repro import load_graph

        g = load_graph(out_file)
        assert g.num_hosts == 24

    def test_m_override(self, capsys):
        assert main(["solve", "24", "8", "--m", "10", "--steps", "100"]) == 0
        assert "m=10" in capsys.readouterr().out


class TestOdp:
    def test_odp_summary(self, capsys):
        assert main(["odp", "16", "4", "--steps", "150"]) == 0
        out = capsys.readouterr().out
        assert "ODP(n=16, d=4)" in out and "Moore bound" in out


class TestTopology:
    def test_torus(self, capsys):
        code = main(["topology", "torus", "--dimension", "2", "--base", "3",
                     "--radix", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "torus" in out and "h-ASPL" in out

    def test_fat_tree(self, capsys):
        assert main(["topology", "fat-tree", "--k", "4"]) == 0
        assert "fat-tree" in capsys.readouterr().out

    def test_dragonfly_with_hosts(self, capsys):
        assert main(["topology", "dragonfly", "--a", "4", "--hosts", "32"]) == 0
        assert "attached hosts: 32" in capsys.readouterr().out

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["topology", "klein-bottle"])

    def test_out_saves_graph(self, capsys, tmp_path):
        path = tmp_path / "torus.hsg"
        code = main(["topology", "torus", "--dimension", "2", "--base", "3",
                     "--radix", "8", "--out", str(path)])
        assert code == 0
        from repro import load_graph

        g = load_graph(path)
        assert g.num_switches == 9

    def test_hypercube_dimension_flag_maps_to_dim(self, capsys):
        assert main(["topology", "hypercube", "--dimension", "4",
                     "--radix", "10"]) == 0
        assert "hypercube" in capsys.readouterr().out

    def test_jellyfish_flags(self, capsys):
        code = main(["topology", "jellyfish", "--switches", "12", "--radix",
                     "8", "--hosts-per-switch", "3", "--seed", "2"])
        assert code == 0
        assert "attached hosts: 36" in capsys.readouterr().out


class TestSimulate:
    def test_default_network(self, capsys):
        assert main(["simulate", "ep", "--ranks", "16"]) == 0
        out = capsys.readouterr().out
        assert "EP class A" in out and "Mop/s" in out

    def test_loaded_graph(self, capsys, tmp_path):
        from repro import save_graph
        from repro.topologies import torus

        path = tmp_path / "net.hsg"
        save_graph(torus(2, 3, 8, num_hosts=18, fill="round-robin")[0], path)
        code = main(["simulate", "mg", "--graph", str(path), "--ranks", "16",
                     "--mapping", "linear"])
        assert code == 0
        assert "simulated time" in capsys.readouterr().out

    def test_routing_option(self, capsys):
        assert main(["simulate", "ep", "--ranks", "4", "--routing", "ecmp"]) == 0


class TestTraffic:
    def test_uniform(self, capsys):
        code = main(["traffic", "uniform", "--messages", "3", "--load", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean latency" in out and "throughput" in out

    def test_valiant_routing(self, capsys):
        assert main(["traffic", "uniform", "--messages", "2",
                     "--routing", "valiant"]) == 0


class TestCampaign:
    @pytest.fixture
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-unit",
            "grid": {"n": [24], "r": [6], "seed": [0, 1]},
            "defaults": {"steps": 300, "restarts": 2},
            "executor": {"checkpoint_every": 100},
        }))
        return path

    def test_run_status_report_cycle(self, capsys, tmp_path, spec_file):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", str(spec_file), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out and "2 solved" in out

        # Warm re-run: everything served from the store.
        assert main(["campaign", "run", str(spec_file), "--store", store]) == 0
        assert "2 cached" in capsys.readouterr().out

        assert main(["campaign", "status", str(spec_file), "--store", store]) == 0
        assert "2 solved" in capsys.readouterr().out

        assert main(["campaign", "report", str(spec_file), "--store", store]) == 0
        assert "2/2 points solved" in capsys.readouterr().out

    def test_interrupted_run_exits_130_then_resumes(self, capsys, tmp_path,
                                                    spec_file):
        store = str(tmp_path / "store")
        code = main(["campaign", "run", str(spec_file), "--store", store,
                     "--stop-after-checkpoints", "2"])
        assert code == 130
        assert "resume to continue" in capsys.readouterr().out

        assert main(["campaign", "resume", str(spec_file), "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(spec_file), "--store", store]) == 0
        assert "2 solved" in capsys.readouterr().out

    def test_resume_without_a_store_fails(self, tmp_path, spec_file):
        store = str(tmp_path / "missing")
        assert main(["campaign", "resume", str(spec_file),
                     "--store", store]) == 1

    def test_invalid_spec_exits_via_spec_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "grid": {"n": [8]}}')  # r missing
        from repro.campaign import SpecError

        with pytest.raises(SpecError):
            main(["campaign", "run", str(path)])


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_available(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestTrafficFaults:
    def test_fault_flags_report_drops(self, capsys):
        code = main(["traffic", "uniform", "--messages", "3",
                     "--fail-links", "1", "--fail-switches", "1",
                     "--fault-seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "2 injected" in out

    def test_no_fault_flags_no_fault_line(self, capsys):
        assert main(["traffic", "uniform", "--messages", "3"]) == 0
        assert "injected" not in capsys.readouterr().out


class TestResilience:
    def test_random_graph_sweep(self, capsys):
        code = main(["resilience", "--n", "48", "--r", "6",
                     "--trials", "5", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline h-ASPL" in out
        assert "disconnection probability" in out

    def test_switch_mode_json(self, capsys):
        import json

        code = main(["resilience", "--n", "48", "--r", "6", "--mode", "switch",
                     "--trials", "4", "--seed", "2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "switch"
        assert len(doc["connected_h_aspl"]) == 4

    def test_saved_graph_input(self, capsys, tmp_path):
        from repro import save_graph
        from repro.topologies import torus

        g, _ = torus(2, 4, 8, num_hosts=32, fill="round-robin")
        path = tmp_path / "g.npz"
        save_graph(g, path)
        assert main(["resilience", "--graph", str(path), "--trials", "3"]) == 0
        assert "degraded h-ASPL" in capsys.readouterr().out

    def test_requires_graph_or_n_r(self, capsys):
        assert main(["resilience", "--trials", "2"]) == 2


class TestTelemetryValidate:
    def test_clean_trace_exits_zero(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        assert main(["solve", "24", "8", "--steps", "150", "--seed", "1",
                     "--telemetry-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "schema-valid" in out
        assert json.loads(trace.read_text().splitlines()[0])  # well-formed file

    def test_corrupt_trace_exits_nonzero_with_per_line_counts(self, capsys, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            'not json at all\n'
            '{"schema": "wrong/v0", "kind": "event", "name": "x", "ts": 0}\n'
        )
        assert main(["telemetry", "validate", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "problem(s)" in out
        assert "line 1:" in out and "line 2:" in out
        assert "  line 1: 1 problem(s)" in out


class TestTelemetryAnalyze:
    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["solve", "24", "8", "--steps", "200", "--seed", "1",
                     "--restarts", "2", "--telemetry-out", str(path)]) == 0
        return path

    def test_analyze_renders_span_report(self, capsys, trace):
        capsys.readouterr()
        assert main(["telemetry", "analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span trees" in out
        assert "anneal.run" in out
        assert "critical path" in out

    def test_flamegraph_to_stdout_and_file(self, capsys, trace, tmp_path):
        capsys.readouterr()
        assert main(["telemetry", "flamegraph", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "anneal.run" in out
        folded = tmp_path / "stacks.folded"
        assert main(["telemetry", "flamegraph", str(trace),
                     "--out", str(folded)]) == 0
        lines = folded.read_text().splitlines()
        assert lines and all(len(line.rsplit(" ", 1)) == 2 for line in lines)
        # Folded values are integer microseconds (flamegraph.pl input).
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


class TestTelemetryRegress:
    def _write_bench(self, path, seconds):
        import json

        path.write_text(json.dumps(
            {"schema": 2, "meta": {"git_commit": "test", "timestamp": None},
             "benchmarks": {name: {"seconds": s} for name, s in seconds.items()}}
        ))

    def test_clean_run_exits_zero(self, capsys, tmp_path):
        current, baseline = tmp_path / "cur.json", tmp_path / "base.json"
        self._write_bench(current, {"bench_x": 1.0})
        self._write_bench(baseline, {"bench_x": 1.0})
        assert main(["telemetry", "regress", str(current),
                     "--baseline", str(baseline)]) == 0
        assert "0/1 check(s) failed" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        current, baseline = tmp_path / "cur.json", tmp_path / "base.json"
        self._write_bench(current, {"bench_x": 2.0})
        self._write_bench(baseline, {"bench_x": 1.0})
        assert main(["telemetry", "regress", str(current),
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "2.00x" in out


class TestMonitorCommand:
    def test_once_on_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["solve", "24", "8", "--steps", "200", "--seed", "1",
                     "--restarts", "2", "--telemetry-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "monitoring" in out
        assert "solver: restart 2/2 done" in out

    def test_once_on_campaign_store(self, capsys, tmp_path):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-mon",
            "grid": {"n": [24], "r": [6], "seed": [0]},
            "defaults": {"steps": 200, "restarts": 1},
        }))
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(store / "cli-mon"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign cli-mon: 1/1 points done" in out
        assert "1 solved" in out

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["monitor", str(tmp_path / "nope"), "--once"])


class TestBoundsJson:
    def test_json_keys_and_values(self, capsys):
        import json

        assert main(["bounds", "1024", "24", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 1024 and data["r"] == 24
        assert data["m_opt"] == 79
        for key in ("diameter_lower_bound", "h_aspl_lower_bound",
                    "continuous_moore_bound", "shimizu_mori_bound",
                    "lacin_switch_count", "lacin_baseline"):
            assert key in data

    def test_json_inf_becomes_null(self, capsys):
        import json

        # LACIN cliques cap out at ((r+1)//2)((r+2)//2) hosts; (79, 8)
        # is over capacity, so the baseline is null, not "inf".
        assert main(["bounds", "79", "8", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["lacin_switch_count"] is None
        assert data["lacin_baseline"] is None

    def test_table_gains_new_rows(self, capsys):
        assert main(["bounds", "1024", "24"]) == 0
        out = capsys.readouterr().out
        assert "Shimizu-Mori d3 bound @ m_opt" in out
        assert "LACIN clique size" in out
        assert "LACIN baseline (achievable)" in out


class TestComposeCommand:
    def test_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = ["compose", "96", "12", "--block-hosts", "24",
                "--steps", "200", "--store", store]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "solved" in cold and "predicted h-ASPL" in cold

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cached" in warm

    def test_json_output(self, capsys, tmp_path):
        import json

        assert main(["compose", "96", "12", "--block-hosts", "24",
                     "--steps", "200", "--store", str(tmp_path / "s"),
                     "--measure", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "repro.compose.result/v1"
        assert data["n"] == 96 and data["copies"] == 4
        assert data["measured_h_aspl"] == data["predicted_h_aspl"]
        assert data["h_aspl_lower_bound"] <= data["measured_h_aspl"] + 1e-9

    def test_no_store_and_out(self, capsys, tmp_path):
        from repro.core.serialization import load_graph

        out_path = tmp_path / "fabric.json"
        assert main(["compose", "48", "10", "--block-hosts", "12",
                     "--steps", "200", "--no-store",
                     "--out", str(out_path)]) == 0
        graph = load_graph(out_path)
        assert graph.num_hosts == 48
        graph.validate()


class TestTopologyCompose:
    def test_builds_composed_fabric(self, capsys):
        assert main(["topology", "compose", "--copies", "3",
                     "--block-hosts", "12", "--radix", "10"]) == 0
        out = capsys.readouterr().out
        assert "compose(C=3, n_b=12, r_b=8)" in out
        assert "attached hosts: 36" in out


class TestCampaignReportBest:
    def test_best_column(self, capsys, tmp_path):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-best",
            "grid": {"n": [24], "r": [6], "seed": [0]},
            "defaults": {"steps": 200, "restarts": 1},
        }))
        store = str(tmp_path / "store")
        assert main(["campaign", "run", str(spec), "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(spec), "--store", store,
                     "--best"]) == 0
        out = capsys.readouterr().out
        assert "best(n,r)" in out
        assert "@" in out  # the point's own result is the best known
