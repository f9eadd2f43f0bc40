"""Every paper artifact regenerates and carries plausible data."""

import numpy as np
import pytest

from repro.experiments import (
    biopepa_experiment,
    classic_models_experiment,
    optimization_experiment,
    fig1_validation,
    fig2_activity_diagram,
    fig3_cdf_mapping_a,
    fig4_cdf_mapping_b,
    fig5_gpepa_scalability,
    fig6_hub_collection,
    overhead_experiment,
    run_experiment,
    table1,
)


class TestTable1:
    def test_structure(self):
        result = table1()
        assert set(result.data["mappings"]) == {"A", "B"}
        for rows in result.data["mappings"].values():
            assert set(rows) == {"M1", "M2", "M3", "M4", "M5"}
            for row in rows.values():
                assert row["mean"] > row["nominal"] > 0
                assert 0 < row["robustness"] < 1

    def test_text_contains_table(self):
        text = table1().text
        assert "Mapping A" in text and "Mapping B" in text
        assert "a5, a9, a12, a17, a20" in text


class TestFigures:
    def test_fig1_container_identical(self):
        result = fig1_validation()
        assert result.data["passed"] is True
        assert "steady-state" in result.data["stdout"]

    def test_fig2_activity_diagram(self):
        result = fig2_activity_diagram()
        # M3 runs 3 apps: Stage0..2 + Done = 4 machine activities.
        assert result.data["nodes"] == 4
        assert "digraph" in result.data["dot"]

    def test_fig3_fig4_cdfs(self):
        f3 = fig3_cdf_mapping_a()
        f4 = fig4_cdf_mapping_b()
        for fig in (f3, f4):
            cdf = np.array(fig.data["cdf"])
            assert cdf[0] == pytest.approx(0.0, abs=1e-9)
            assert (np.diff(cdf) >= -1e-12).all()
            assert cdf[-1] > 0.9
            assert fig.data["mean"] > 0
        # Different mappings give different curves.
        assert f3.data["mean"] != pytest.approx(f4.data["mean"])

    def test_fig5_container_fluid_run(self):
        result = fig5_gpepa_scalability(50, 5)
        assert result.data["exit_code"] == 0
        assert result.data["stdout"].startswith("time ")

    def test_fig6_hub_collection(self):
        result = fig6_hub_collection()
        assert sorted(result.data["entries"]) == [
            "pepa-containers/biopepa:1.0",
            "pepa-containers/gpanalyser:1.0",
            "pepa-containers/pepa:1.0",
        ]
        assert all(result.data["verified"].values())


class TestSupplementary:
    def test_biopepa_inhibition_direction(self):
        result = biopepa_experiment()
        assert result.data["P_inhibited_final"] < result.data["P_plain_final"]
        assert result.data["validation_passed"]

    def test_classic_models(self):
        result = classic_models_experiment()
        assert result.data["validation_passed"]
        assert result.data["models"]["pc_lan_4"]["states"] == 16

    def test_optimization_beats_table1(self):
        result = optimization_experiment()
        assert result.data["greedy"] < result.data["A"]
        assert result.data["greedy"] < result.data["B"]

    def test_overhead_times_solves_not_cache_hits(self):
        from repro.engine import cache_override, get_registry

        reg = get_registry()
        with cache_override(True):
            hits = reg.counter("cache.hit")
            result = overhead_experiment(repetitions=2)
            assert reg.counter("cache.hit") == hits
        assert result.data["native_s"] > 0 and result.data["container_s"] > 0


class TestDispatch:
    def test_run_experiment_returns_text(self):
        assert "digraph" in run_experiment("fig2")

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")
