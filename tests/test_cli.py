"""End-to-end CLI tests (the `repro` command)."""

import json

import pytest

from repro.cli import build_arg_parser, main

PEPA_MODEL = "P = (a, 1.0).Q;\nQ = (b, 3.0).P;\nP\n"


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.pepa"
    path.write_text(PEPA_MODEL)
    return str(path)


@pytest.fixture()
def built_image(tmp_path):
    out = tmp_path / "pepa.img.json"
    code = main(["build", "--builtin", "pepa", "--tag", "t", "-o", str(out)])
    assert code == 0
    return str(out)


class TestToolSubcommands:
    def test_pepa_solve(self, model_file, capsys):
        assert main(["pepa", "solve", model_file]) == 0
        out = capsys.readouterr().out
        assert "steady-state distribution" in out

    def test_biopepa_ode(self, tmp_path, capsys):
        f = tmp_path / "m.biopepa"
        f.write_text("k = 1.0;\nkineticLawOf d : fMA(k);\nA = (d, 1) << A;\nA[5]\n")
        assert main(["biopepa", "ode", str(f), "2", "5"]) == 0
        assert "time A" in capsys.readouterr().out

    def test_gpa_fluid(self, tmp_path, capsys):
        f = tmp_path / "m.gpepa"
        f.write_text("A = (x, 1.0).B;\nB = (y, 2.0).A;\nG{A[10]}\n")
        assert main(["gpa", "fluid", str(f), "5", "6"]) == 0
        assert "time G.A G.B" in capsys.readouterr().out

    def test_tool_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.pepa"
        f.write_text("@@@")
        assert main(["pepa", "solve", str(f)]) == 1


class TestSolveSubcommand:
    def test_list_backends(self, capsys):
        assert main(["solve", "--list-backends"]) == 0
        out = capsys.readouterr().out
        for line in ("steady", "transient", "passage", "ssa", "ode"):
            assert line in out
        assert "uniformization (default)" in out

    def test_steady_default_backend(self, model_file, capsys):
        assert main(["solve", model_file]) == 0
        out = capsys.readouterr().out
        assert "steady state: 2 states" in out
        # Power iteration cannot finish a 2-state chain in 2 mat-vecs, so
        # the sparse LU serves it, and the CLI says so.
        assert "backend sparse" in out
        assert "fell back from uniformization" in out

    def test_steady_backend_override(self, model_file, capsys):
        assert main(["solve", model_file, "--backend", "gmres"]) == 0
        assert "backend gmres" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--backend", "--shadow"])
    def test_removed_dense_backend_is_refused_in_one_line(
        self, model_file, capsys, flag
    ):
        assert main(["solve", model_file, flag, "dense"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: no 'steady' backend named 'dense'; available: "
            "['gmres', 'sparse', 'uniformization']"
        ]

    def test_unknown_backend_is_a_library_error(self, model_file, capsys):
        assert main(["solve", model_file, "--backend", "quantum"]) == 1
        assert "available" in capsys.readouterr().err

    def test_resilience_flags(self, model_file, capsys):
        assert main(
            ["solve", model_file, "--workers", "2", "--retries", "1",
             "--task-timeout", "30"]
        ) == 0
        assert "steady state" in capsys.readouterr().out

    def test_negative_retries_is_a_usage_error(self, model_file):
        with pytest.raises(SystemExit):
            main(["solve", model_file, "--retries", "-1"])

    def test_transient_and_ssa(self, model_file, capsys):
        assert main(
            ["solve", model_file, "--capability", "transient",
             "--horizon", "2", "--points", "5"]
        ) == 0
        assert "transient distribution at t=2" in capsys.readouterr().out
        assert main(
            ["solve", model_file, "--capability", "ssa", "--runs", "10",
             "--horizon", "2", "--points", "3", "--seed", "4"]
        ) == 0
        assert "ssa ensemble mean" in capsys.readouterr().out

    def test_biopepa_ode_by_suffix(self, tmp_path, capsys):
        f = tmp_path / "m.biopepa"
        f.write_text(
            "k = 1.0;\nkineticLawOf d : fMA(k);\n"
            "A = (d, 1) << A;\nB = (d, 1) >> B;\nA[5] <*> B[0]\n"
        )
        assert main(["solve", str(f), "--capability", "ode",
                     "--horizon", "3"]) == 0
        assert "ode solution at t=3" in capsys.readouterr().out

    def test_gpepa_rejects_markov_capabilities(self, tmp_path, capsys):
        f = tmp_path / "m.gpepa"
        f.write_text("A = (x, 1.0).B;\nB = (y, 2.0).A;\nG{A[10]}\n")
        assert main(["solve", str(f)]) == 2
        assert "ode or ssa" in capsys.readouterr().err
        assert main(["solve", str(f), "--capability", "ode"]) == 0

    def test_unknown_suffix_needs_formalism(self, tmp_path, capsys):
        f = tmp_path / "model.txt"
        f.write_text(PEPA_MODEL)
        assert main(["solve", str(f)]) == 2
        assert "--formalism" in capsys.readouterr().err
        assert main(["solve", str(f), "--formalism", "pepa"]) == 0

    def test_no_model_is_usage_error(self, capsys):
        assert main(["solve"]) == 2


class TestTrustFlags:
    def test_diagnostics_flag_prints_measurements(self, model_file, capsys):
        assert main(["solve", model_file, "--diagnostics"]) == 0
        out = capsys.readouterr().out
        assert "diagnostics:" in out
        assert "residual" in out
        assert "condition_estimate" in out

    def test_shadow_flag_cross_checks(self, model_file, capsys):
        assert main(
            ["solve", model_file, "--shadow", "gmres", "--diagnostics"]
        ) == 0
        out = capsys.readouterr().out
        assert "shadow_backend           gmres" in out
        assert "shadow_max_abs" in out

    def test_ode_shadow_across_integrators(self, tmp_path, capsys):
        f = tmp_path / "m.gpepa"
        f.write_text("A = (x, 1.0).B;\nB = (y, 2.0).A;\nG{A[10]}\n")
        assert main(
            ["solve", str(f), "--capability", "ode", "--shadow", "rk4",
             "--diagnostics"]
        ) == 0
        assert "shadow_backend           rk4" in capsys.readouterr().out


class TestManifestFlags:
    def test_emit_manifest_writes_json(self, model_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["solve", model_file, "--emit-manifest", str(out)]) == 0
        assert "wrote manifest" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["kind"] == "solve"
        assert data["capability"] == "steady"
        assert data["replayable"] is True
        assert data["model"]["formalism"] == "pepa"

    def test_replay_verify_round_trip(self, model_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["solve", model_file, "--emit-manifest", str(out)]) == 0
        capsys.readouterr()
        assert main(["replay", str(out), "--verify"]) == 0
        printed = capsys.readouterr().out
        assert "reproduced bit-for-bit" in printed
        assert "identity" in printed

    def test_replay_without_verify_reports_match(self, model_file, tmp_path,
                                                 capsys):
        out = tmp_path / "run.json"
        assert main(["solve", model_file, "--emit-manifest", str(out)]) == 0
        capsys.readouterr()
        assert main(["replay", str(out)]) == 0
        assert "result digest matches" in capsys.readouterr().out

    def test_replay_missing_manifest_is_library_error(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "absent.json")]) == 1
        assert "cannot read manifest" in capsys.readouterr().err

    def test_replay_tampered_digest_fails_verify(self, model_file, tmp_path,
                                                 capsys):
        out = tmp_path / "run.json"
        assert main(["solve", model_file, "--emit-manifest", str(out)]) == 0
        data = json.loads(out.read_text())
        data["result"]["digest"] = "result-ffffffffffffffff"
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(out), "--verify"]) == 1
        assert "diverged" in capsys.readouterr().err

    def test_solve_transport_flag(self, model_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(
            ["solve", model_file, "--workers", "2", "--transport", "pool",
             "--emit-manifest", str(out)]
        ) == 0
        assert json.loads(out.read_text())["transport"] == "pool"

    def test_removed_subprocess_transport_is_a_usage_error(self, model_file,
                                                            capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", model_file, "--transport", "subprocess"])
        assert excinfo.value.code != 0
        assert "invalid choice: 'subprocess'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--shed-threshold", "--shed-priority"])
    def test_removed_serve_flags_are_usage_errors(self, tmp_path, flag, capsys):
        # Parse only: a parser that still accepted the flag would
        # otherwise start a server that never returns.
        with pytest.raises(SystemExit) as excinfo:
            build_arg_parser().parse_args(["serve", "--dir", str(tmp_path), flag, "3"])
        assert excinfo.value.code != 0
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_replay_transport_flag(self, model_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["solve", model_file, "--emit-manifest", str(out)]) == 0
        capsys.readouterr()
        assert main(
            ["replay", str(out), "--verify", "--transport", "inline"]
        ) == 0
        assert "reproduced bit-for-bit" in capsys.readouterr().out


class TestValidateModels:
    def test_pepa_model_is_well_formed(self, model_file, capsys):
        assert main(["validate", model_file]) == 0
        assert "well-formed (0 warning(s))" in capsys.readouterr().out

    def test_biopepa_model_with_warnings(self, tmp_path, capsys):
        f = tmp_path / "m.biopepa"
        f.write_text(
            "k = 0.0;\nkineticLawOf d : fMA(k);\nA = (d, 1) << A;\nA[5]\n"
        )
        assert main(["validate", str(f)]) == 0
        out = capsys.readouterr().out
        assert "warning:" in out
        assert "deadlocked" in out

    def test_gpepa_model_with_warnings(self, tmp_path, capsys):
        f = tmp_path / "m.gpepa"
        f.write_text(
            "ra = 1.0;\nA = (a, ra).A;\nC = (c, ra).C;\n"
            "G1{A[5]} <a> G2{C[0]}\n"
        )
        assert main(["validate", str(f), "--lax"]) == 0
        out = capsys.readouterr().out
        assert "zero total population" in out
        assert "well-formed (2 warning(s))" in out

    def test_parse_error_is_a_library_error(self, tmp_path, capsys):
        f = tmp_path / "bad.pepa"
        f.write_text("@@@")
        assert main(["validate", str(f)]) == 1

    def test_image_validation_still_requires_tool(self, tmp_path, capsys):
        f = tmp_path / "img.json"
        f.write_text("{}")
        assert main(["validate", str(f)]) == 2
        assert "--tool is required" in capsys.readouterr().err


class TestBuildRunTest:
    def test_build_writes_image(self, built_image, capsys):
        doc = json.loads(open(built_image).read())
        assert doc["name"] == "pepa"
        assert doc["tag"] == "t"

    def test_run_inside_image(self, built_image, model_file, capsys):
        assert main(["run", built_image, "pepa", "solve", model_file]) == 0
        assert "steady-state" in capsys.readouterr().out

    def test_run_output_dir_exports_container_writes(
        self, built_image, model_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "outputs"
        # NB: options must precede the image path — everything after it
        # belongs to the in-container command line (argparse.REMAINDER).
        code = main(
            [
                "run",
                "--output-dir",
                str(out_dir),
                built_image,
                "pepa",
                "prism",
                model_file,
                "/out/chain",
            ]
        )
        assert code == 0
        tra = out_dir / "out/chain.tra"
        assert tra.exists()
        assert tra.read_text().splitlines()[0] == "2 2"

    def test_run_runscript_default(self, built_image, model_file, capsys):
        assert main(["run", built_image]) == 2  # runscript without args: usage
        # usage goes to stderr
        assert "usage" in capsys.readouterr().err

    def test_test_section(self, built_image, capsys):
        assert main(["test", built_image]) == 0
        assert "selftest OK" in capsys.readouterr().out

    def test_validate(self, built_image, capsys):
        assert main(["validate", built_image, "--tool", "pepa"]) == 0
        assert "cases identical" in capsys.readouterr().out

    def test_build_from_recipe_file(self, tmp_path, capsys):
        recipe = tmp_path / "my.def"
        recipe.write_text(
            "Bootstrap: library\nFrom: ubuntu:18.04\n%post\n    apt-get install graphviz\n"
        )
        out = tmp_path / "my.img.json"
        assert main(["build", str(recipe), "-o", str(out)]) == 0
        assert out.exists()

    def test_build_without_recipe_is_usage_error(self, capsys):
        assert main(["build"]) == 2

    def test_build_from_dockerfile(self, tmp_path, capsys):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(
            "FROM ubuntu:18.04\nRUN apt-get install graphviz\nCMD [\"pepa\"]\n"
        )
        out = tmp_path / "docker.img.json"
        assert main(["build", str(dockerfile), "--name", "d", "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "graphviz=2.38" in captured

    def test_build_format_override(self, tmp_path, capsys):
        # A Dockerfile under a non-Dockerfile name still builds with --format.
        recipe = tmp_path / "my.txt"
        recipe.write_text("FROM ubuntu:18.04\nRUN mkdir /x\n")
        out = tmp_path / "x.img.json"
        assert main(
            ["build", str(recipe), "--format", "dockerfile", "-o", str(out)]
        ) == 0

    def test_build_conflict_reports_error(self, tmp_path, capsys):
        recipe = tmp_path / "conflict.def"
        recipe.write_text(
            "Bootstrap: library\nFrom: ubuntu:18.04\n%post\n"
            "    apt-get install pepa-eclipse-plugin\n"
            "    apt-get install gpanalyser\n"
        )
        assert main(["build", str(recipe)]) == 1
        assert "version conflict" in capsys.readouterr().err


class TestSbomCli:
    def test_export_and_verify(self, built_image, tmp_path, capsys):
        sbom_path = tmp_path / "sbom.json"
        assert main(["sbom", built_image, "-o", str(sbom_path)]) == 0
        assert sbom_path.exists()
        assert main(["sbom", built_image, "--verify", str(sbom_path)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_mismatch_fails(self, built_image, tmp_path, capsys):
        other = tmp_path / "other.img.json"
        assert main(["build", "--builtin", "biopepa", "-o", str(other)]) == 0
        sbom_path = tmp_path / "sbom.json"
        assert main(["sbom", str(other), "-o", str(sbom_path)]) == 0
        assert main(["sbom", built_image, "--verify", str(sbom_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestSandboxCli:
    def test_sandbox_and_repack(self, built_image, tmp_path, capsys):
        box = tmp_path / "box"
        assert main(["sandbox", built_image, str(box)]) == 0
        assert (box / ".repro-image.json").exists()
        out = tmp_path / "repacked.img.json"
        assert main(["repack", str(box), "--tag", "mod", "-o", str(out)]) == 0
        assert out.exists()
        # The repacked image still passes its self-test.
        assert main(["test", str(out)]) == 0


class TestHub:
    def test_push_list_pull(self, built_image, tmp_path, capsys):
        hub_root = str(tmp_path / "hub")
        assert main(["hub", "--root", hub_root, "push", "col", built_image]) == 0
        assert main(["hub", "--root", hub_root, "list", "col"]) == 0
        out = capsys.readouterr().out
        assert "col/pepa:t" in out
        dest = tmp_path / "pulled.img.json"
        assert main(
            ["hub", "--root", hub_root, "pull", "col", "pepa", "t", "-o", str(dest)]
        ) == 0
        assert dest.exists()

    def test_pull_unknown_errors(self, tmp_path, capsys):
        hub_root = str(tmp_path / "hub")
        assert main(["hub", "--root", hub_root, "pull", "c", "x", "1"]) == 1


class TestExperimentCommand:
    def test_table1_like_output(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_choices_are_the_experiment_registry(self):
        from repro import cli, experiments

        assert list(cli._EXPERIMENT_NAMES) == list(experiments._EXPERIMENTS) + ["all"]

    def test_building_the_parser_does_not_import_experiments(self):
        import subprocess
        import sys

        code = (
            "import sys; from repro.cli import build_arg_parser; "
            "build_arg_parser(); print('repro.experiments' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestProfileCommand:
    def test_json_report(self, tmp_path, capsys, monkeypatch):
        from repro.pepa import statespace
        from repro.pepa.models import get_source

        def oracle(*args, **kwargs):
            raise AssertionError("profile must not run the test oracle")

        monkeypatch.setattr(statespace, "derive_reference", oracle)
        path = tmp_path / "lan.pepa"
        path.write_text(get_source("pc_lan_4"))
        assert main(["profile", str(path), "--repeat", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "model", "repeat", "n_states", "n_transitions", "fast_seconds",
            "states_per_second", "csr_assembly_seconds", "memo_hits",
            "memo_misses", "memo_hit_rate", "auto_backend",
            "population_seconds", "population_states",
            "population_reduction",
        }
        assert report["repeat"] == 1
        assert report["auto_backend"] == "population"
        assert report["population_states"] < report["n_states"]
        assert report["population_reduction"] == pytest.approx(
            report["n_states"] / report["population_states"]
        )
        assert 0.0 <= report["memo_hit_rate"] <= 1.0
        assert report["csr_assembly_seconds"] >= 0.0

    def test_each_repetition_derives_once(self, model_file, capsys):
        # Regression: the CSR-assembly timing derived every repetition's
        # space a second time.
        from repro.engine import get_registry

        registry = get_registry()

        def calls(name):
            return (registry.timer_stat(name) or {"calls": 0})["calls"]

        derives, assemblies = calls("derive"), calls("derive.csr_assembly")
        assert main(["profile", model_file, "--repeat", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["csr_assembly_seconds"] > 0.0
        assert calls("derive") - derives == 5
        assert calls("derive.csr_assembly") - assemblies == 5

    def test_text_report_without_symmetry(self, model_file, capsys):
        assert main(["profile", model_file, "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "states           : 2" in out
        assert "auto backend     : explicit" in out
        assert "population" not in out
