"""Run manifests: assembly, (de)serialization, and — the acceptance
property — replay bit-identity, verified in *fresh* subprocesses so no
warm in-process state (caches, imports, RNG pools) can mask divergence.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import repro
from repro.allocation.cdf import makespan_cdf
from repro.allocation.mapping import MAPPING_A
from repro.allocation.workload import synthetic_workload
from repro.biopepa.examples import enzyme_kinetics_source
from repro.engine import faults, parallel
from repro.errors import NumericsError, ReplayError
from repro.manifest import (
    RunManifest,
    last_manifest,
    load_manifest,
    replay,
    run_from_source,
)
from repro.pepa.models import get_source

GRID = list(np.linspace(0.0, 4.0, 17))
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
_SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _verify_in_fresh_process(manifest_path, extra_env=None):
    """`repro replay --verify` in a cold interpreter: the real
    reproduce-elsewhere scenario."""
    env = dict(os.environ, PYTHONPATH=_SRC_ROOT)
    env.pop("REPRO_FAULT_PLAN", None)  # replays run unperturbed
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "replay", str(manifest_path),
         "--verify"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    assert "verified" in proc.stdout
    return proc.stdout


def _refused_replay(manifest_path):
    """stderr lines of a `repro replay --verify` that must fail cleanly."""
    env = dict(os.environ, PYTHONPATH=_SRC_ROOT)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "replay", str(manifest_path),
         "--verify"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    return proc.stderr.strip().splitlines()


class TestManifestAssembly:
    def test_solve_attaches_replayable_manifest(self):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        manifest = result.meta["manifest"]
        assert manifest is last_manifest()
        assert manifest.kind == "solve"
        assert manifest.capability == "steady"
        assert manifest.replayable
        assert manifest.model["formalism"] == "pepa"
        assert manifest.model["source"] == get_source("active_badge")
        assert manifest.backend["used"] in manifest.backend["chain"]
        assert set(manifest.environment) == {"numpy", "python", "scipy"}
        assert manifest.result["digest"]

    def test_ensemble_manifest_records_full_seed_spec(self):
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=GRID, n_runs=60, seed=7,
        )
        manifest = result.meta["manifest"]
        assert manifest.seed == {
            "root_entropy": 7,
            "spawned": 60,
            "assignment": "SeedSequence(root).spawn(n)[i] -> realization i",
        }
        assert manifest.chunks["count"] == 3  # 60 runs / 25 per chunk
        assert manifest.chunks["chunk_runs"] == 25

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_transient_time_is_a_numerics_error(self, bad):
        # Regression: inf escaped as a bare OverflowError from int().
        with pytest.raises(NumericsError, match="finite"):
            run_from_source(
                "pepa", get_source("pc_lan_4"), "transient", times=[0.0, bad]
            )

    def test_identity_digest_stable_across_reruns(self):
        src = get_source("active_badge")
        first = run_from_source("pepa", src, "steady").meta["manifest"]
        second = run_from_source("pepa", src, "steady").meta["manifest"]
        assert first.identity_digest() == second.identity_digest()

    def test_identity_digest_transport_invariant(self, monkeypatch):
        import repro.engine.remote as remote

        monkeypatch.setenv("REPRO_REMOTE_SPAWN", "2")
        src = enzyme_kinetics_source()
        digests = []
        try:
            for name in ("inline", "pool", "remote"):
                with parallel(workers=2, transport=name):
                    result = run_from_source(
                        "biopepa", src, "ssa",
                        mode="ensemble", times=GRID, n_runs=60, seed=5,
                    )
                digests.append(result.meta["manifest"].identity_digest())
        finally:
            remote.shutdown_fleet()
        assert digests[0] == digests[1] == digests[2]


class TestSerialization:
    def test_json_round_trip_preserves_identity(self, tmp_path):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        manifest = result.meta["manifest"]
        path = manifest.save(tmp_path / "run.json")
        loaded = load_manifest(path)
        assert loaded == manifest
        assert loaded.identity_digest() == manifest.identity_digest()

    def test_params_round_trip_ndarrays_exactly(self, tmp_path):
        times = np.linspace(0.0, 3.0, 11)
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=times, n_runs=30, seed=1,
        )
        path = result.meta["manifest"].save(tmp_path / "run.json")
        decoded = load_manifest(path).decoded_params()
        assert isinstance(decoded["times"], np.ndarray)
        assert_array_equal(decoded["times"], times)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReplayError, match="not valid JSON"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReplayError, match="cannot read"):
            load_manifest(tmp_path / "absent.json")

    def test_wrong_version_rejected(self):
        with pytest.raises(ReplayError, match="version"):
            RunManifest.from_dict({"version": 99})

    def test_unknown_fields_rejected(self, tmp_path):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        data = result.meta["manifest"].to_dict()
        data["surprise"] = True
        with pytest.raises(ReplayError, match="unknown fields.*surprise"):
            RunManifest.from_dict(data)

    def test_missing_fields_rejected(self):
        with pytest.raises(ReplayError, match="missing fields"):
            RunManifest.from_dict({"version": 1, "kind": "solve"})

    def test_tampered_source_rejected_at_replay(self, tmp_path):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        data = json.loads(result.meta["manifest"].to_json())
        data["model"]["source"] += "\n% edited after the fact\n"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ReplayError, match="sha256"):
            replay(path)


class TestReplay:
    def test_steady_solve_replays_bit_identical(self, tmp_path):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        path = result.meta["manifest"].save(tmp_path / "steady.json")
        report = replay(path, verify=True)
        assert report.verified
        assert_array_equal(report.result.pi, result.pi)

    def test_ssa_ensemble_replays_bit_identical(self, tmp_path):
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=GRID, n_runs=60, seed=11,
        )
        path = result.meta["manifest"].save(tmp_path / "ssa.json")
        report = replay(path, verify=True)
        assert report.verified
        assert_array_equal(report.result.mean, result.mean)
        assert_array_equal(report.result.var, result.var)

    def test_makespan_cdf_replays_bit_identical(self, tmp_path):
        times = np.linspace(0.0, 2000.0, 50)
        result = makespan_cdf(MAPPING_A, synthetic_workload(), times)
        path = result.meta["manifest"].save(tmp_path / "makespan.json")
        report = replay(path, verify=True)
        assert report.verified
        assert_array_equal(report.result.cdf, result.cdf)

    def test_fallback_chain_run_replays_on_backend_used(self, tmp_path):
        # Force the population derivation to fail its trust check: the
        # registry degrades to explicit, the derive dispatch records that
        # chain, and the solve's manifest names the strategy that ran so
        # an unperturbed replay derives the same chain.
        from repro.ir import solve
        from repro.pepa import parse_model

        with faults.inject(
            faults.FaultSpec("sentinel_violation", backend="population", times=2)
        ) as plan:
            solve(parse_model(get_source("pc_lan_4")), "derive",
                  backend="population")
            derive = last_manifest()
            result = run_from_source(
                "pepa", get_source("pc_lan_4"), "steady",
                derive_backend="population",
            )
            assert plan.fired("sentinel_violation") == 2
        assert derive.backend["requested"] == "population"
        assert derive.backend["used"] == "explicit"
        assert derive.backend["chain"] == ["population", "explicit"]
        assert derive.backend["fallback_error"]
        manifest = result.meta["manifest"]
        assert manifest.model["derive_backend"] == "explicit"
        path = manifest.save(tmp_path / "fallback.json")
        report = replay(path, verify=True)
        assert report.verified
        assert_array_equal(report.result.pi, result.pi)

    def test_sweep_manifest_documents_but_does_not_replay(self):
        from repro.pepa import parse_model, sweep, throughput

        model = parse_model("r = 1.0; P = (a, r).Q; Q = (b, 3.0).P; P")
        result = sweep(model, {"r": [1.0, 2.0]},
                       measure=lambda chain: throughput(chain, "a"))
        manifest = result.meta["manifest"]
        assert manifest.kind == "sweep"
        assert not manifest.replayable
        with pytest.raises(ReplayError, match="not self-contained"):
            replay(manifest)

    def test_verify_raises_on_divergence(self, tmp_path):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        data = json.loads(result.meta["manifest"].to_json())
        data["result"]["digest"] = "result-0000000000000000"
        path = tmp_path / "diverged.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ReplayError, match="diverged"):
            replay(path, verify=True)


class TestFreshProcessVerification:
    """The paper's claim, executed literally: a manifest emitted here is
    re-run bit-for-bit by a cold interpreter with no shared state."""

    def test_edinburgh_steady_solve(self, tmp_path):
        result = run_from_source("pepa", get_source("active_badge"), "steady")
        path = result.meta["manifest"].save(tmp_path / "steady.json")
        _verify_in_fresh_process(path)

    def test_table1_makespan_cdf(self, tmp_path):
        times = np.linspace(0.0, 2000.0, 50)
        result = makespan_cdf(MAPPING_A, synthetic_workload(), times)
        path = result.meta["manifest"].save(tmp_path / "makespan.json")
        _verify_in_fresh_process(path)

    def test_batched_ssa_ensemble(self, tmp_path):
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=GRID, n_runs=60, seed=17,
        )
        manifest = result.meta["manifest"]
        assert manifest.backend["kernel"] == "batched"
        assert "kernel" not in manifest.chunks
        path = manifest.save(tmp_path / "batched.json")
        _verify_in_fresh_process(path)

    def test_fallback_chain_solve(self, tmp_path):
        with faults.inject(
            faults.FaultSpec("sentinel_violation", backend="population")
        ):
            result = run_from_source(
                "pepa", get_source("pc_lan_4"), "steady",
                derive_backend="population",
            )
        path = result.meta["manifest"].save(tmp_path / "fallback.json")
        _verify_in_fresh_process(path)

    def test_default_ssa_manifest_of_the_scalar_kernel_verifies(self):
        """A manifest written when the default ``ssa`` path still ran the
        scalar stepper (enzyme, 100 runs; kept verbatim except for the
        observational ``platform.executable``) replays bit-for-bit on
        the batched kernel.  ``environment`` is part of the identity, so
        the replay adopts this process's numerical-stack fingerprint."""
        from repro.engine.environment import environment_fingerprint

        manifest = load_manifest(FIXTURES / "enzyme_ssa_ensemble_manifest.json")
        assert manifest.backend["used"] == "direct"
        assert "kernel" not in manifest.backend
        manifest = dataclasses.replace(
            manifest, environment=environment_fingerprint()
        )
        report = replay(manifest, verify=True)
        assert report.verified
        assert report.replay_manifest.backend["kernel"] == "batched"

    @pytest.mark.parametrize("name", ["batched", "auto"])
    def test_replay_of_removed_ssa_backend_fails_in_one_line(
        self, tmp_path, name
    ):
        data = json.loads(
            (FIXTURES / "enzyme_ssa_ensemble_manifest.json").read_text()
        )
        data["backend"]["requested"] = data["backend"]["used"] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert _refused_replay(path) == [
            f"error: no 'ssa' backend named {name!r}; available: "
            "['direct', 'next-reaction']"
        ]

    def test_replay_verifies_across_transports(self, tmp_path):
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=GRID, n_runs=60, seed=31,
        )
        path = result.meta["manifest"].save(tmp_path / "xtransport.json")
        _verify_in_fresh_process(path, {"REPRO_TRANSPORT": "inline"})
        _verify_in_fresh_process(
            path, {"REPRO_TRANSPORT": "remote", "REPRO_REMOTE_SPAWN": "1"}
        )

    def test_manifest_naming_a_removed_transport_still_verifies(self, tmp_path):
        """``transport`` is observational: a manifest recorded on the
        since-removed ``subprocess`` transport replays on today's."""
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=GRID, n_runs=30, seed=37,
        )
        data = json.loads(result.meta["manifest"].to_json())
        data["transport"] = "subprocess"
        path = tmp_path / "old-transport.json"
        path.write_text(json.dumps(data))
        _verify_in_fresh_process(path)


class TestDeriveBackendRecorded:
    """``auto`` is resolved once, where the model descriptor is built: a
    manifest names the derive backend that ran, so its replay does not
    depend on the selector."""

    @pytest.mark.parametrize(
        "name,expected", [("mm2_queue", "explicit"), ("pc_lan_4", "population")]
    )
    def test_auto_solve_records_resolved_backend(self, tmp_path, name, expected):
        result = run_from_source(
            "pepa", get_source(name), "steady", derive_backend="auto"
        )
        manifest = result.meta["manifest"]
        assert manifest.model["derive_backend"] == expected
        path = manifest.save(tmp_path / f"{name}.json")
        _verify_in_fresh_process(path)

    def test_auto_parses_and_selects_once(self, monkeypatch):
        import repro.pepa
        from repro.engine import cache_disabled
        from repro.pepa import derivation

        calls = {"parse": 0, "select": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            repro.pepa, "parse_model", counted("parse", repro.pepa.parse_model)
        )
        monkeypatch.setattr(
            derivation, "select_derive_backend",
            counted("select", derivation.select_derive_backend),
        )
        with cache_disabled():
            run_from_source(
                "pepa", get_source("pc_lan_4"), "steady", derive_backend="auto"
            )
        assert calls == {"parse": 1, "select": 1}

    @pytest.mark.parametrize(
        "derive_backend", [None, "explicit", "population", "auto"]
    )
    def test_named_derive_backend_hashes_like_the_default(
        self, monkeypatch, derive_backend
    ):
        # Naming a derive backend must not add a manifest (and its model
        # and result digests) for the derivation step: every variant
        # hashes the chain once for the cache key, then the result and
        # the steady manifest.
        from repro.engine import cache, run_manifest
        from repro.ir import registry

        namespaces = []
        real = cache.canonical_key

        def spy(namespace, *parts):
            namespaces.append(namespace)
            return real(namespace, *parts)

        for module in (cache, registry, run_manifest):
            monkeypatch.setattr(module, "canonical_key", spy)
        with cache.cache_override(True):
            result = run_from_source(
                "pepa", get_source("pc_lan_4"), "steady",
                derive_backend=derive_backend,
            )
        assert namespaces == ["ir", "ir.steady", "result", "manifest"]
        expected = "explicit" if derive_backend in (None, "explicit") else "population"
        recorded = result.meta["manifest"].model.get("derive_backend") or "explicit"
        assert recorded == expected

    def test_cli_solve_records_resolved_backend(self, tmp_path, capsys):
        from repro.cli import main

        model = tmp_path / "mm2.pepa"
        model.write_text(get_source("mm2_queue"))
        path = tmp_path / "run.json"
        assert main(["solve", str(model), "--derive", "auto",
                     "--emit-manifest", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["model"]["derive_backend"] == "explicit"
        assert replay(path, verify=True).verified

    def test_replay_of_removed_backend_fails_in_one_line(self, tmp_path):
        result = run_from_source("pepa", get_source("mm2_queue"), "steady")
        data = json.loads(result.meta["manifest"].to_json())
        kronecker = json.loads(json.dumps(data))
        kronecker["model"]["derive_backend"] = "kronecker"
        # A steady run on the retired dense LAPACK backend, as its
        # manifest recorded it (revision 1, so no revision field).
        dense = json.loads(json.dumps(data))
        dense["backend"] = {
            **{k: v for k, v in data["backend"].items() if k != "revision"},
            "requested": "dense", "used": "dense", "chain": ["dense"],
        }
        expected = {
            "kronecker": "error: no 'derive' backend named 'kronecker'; "
            "available: ['auto', 'explicit', 'population']",
            "dense": "error: no 'steady' backend named 'dense'; "
            "available: ['gmres', 'sparse', 'uniformization']",
        }
        for name, manifest in (("kronecker", kronecker), ("dense", dense)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(manifest))
            assert _refused_replay(path) == [expected[name]]


#: Manifests emitted before backends carried a revision (kept verbatim
#: except for the observational ``platform.executable``), each with the
#: identity digest it had then.
PRE_REVISION = json.loads((FIXTURES / "pre_revision_manifests.json").read_text())

#: Identity digest of ``enzyme_ssa_ensemble_manifest.json`` before
#: backends carried a revision.
ENZYME_SSA_IDENTITY = (
    "89102fc521e9842904368fb76665d535bcc23d3c8e969dab1d59a570a1583c1d"
)


class TestBackendRevision:
    """``sparse`` and ``gmres`` steady run revision 2; every other
    backend runs revision 1, which a manifest records by omission."""

    @pytest.mark.parametrize("name", ["steady_sparse", "steady_gmres"])
    def test_pre_revision_steady_manifest_fails_in_one_line(
        self, tmp_path, name
    ):
        manifest = RunManifest.from_dict(PRE_REVISION[name]["manifest"])
        path = manifest.save(tmp_path / f"{name}.json")
        assert _refused_replay(path) == [
            f"error: 'steady' backend {manifest.backend['used']!r} ran "
            "revision 1; this build runs revision 2"
        ]

    @pytest.mark.parametrize("name", ["transient", "passage", "makespan_cdf"])
    def test_revision_one_manifest_keeps_identity_and_verifies(self, name):
        from repro.engine.environment import environment_fingerprint

        manifest = RunManifest.from_dict(PRE_REVISION[name]["manifest"])
        assert manifest.identity_digest() == PRE_REVISION[name]["identity_digest"]
        manifest = dataclasses.replace(
            manifest, environment=environment_fingerprint()
        )
        report = replay(manifest, verify=True)
        assert report.verified
        assert "revision" not in (report.replay_manifest.backend or {})

    def test_committed_ssa_fixture_keeps_its_identity(self):
        manifest = load_manifest(FIXTURES / "enzyme_ssa_ensemble_manifest.json")
        assert manifest.identity_digest() == ENZYME_SSA_IDENTITY
        result = run_from_source(
            "biopepa", enzyme_kinetics_source(), "ssa",
            mode="ensemble", times=GRID, n_runs=20, seed=3,
        )
        assert "revision" not in result.meta["manifest"].backend

    def test_revision_enters_manifest_and_identity_only_when_not_one(self):
        from repro.ir import get_backend

        assert get_backend("steady", "sparse").revision == 2
        assert get_backend("steady", "gmres").revision == 2
        assert get_backend("steady", "uniformization").revision == 1
        manifest = run_from_source(
            "pepa", get_source("active_badge"), "steady"
        ).meta["manifest"]
        assert manifest.backend["revision"] == 2
        bumped = dataclasses.replace(
            manifest, backend={**manifest.backend, "revision": 3}
        )
        assert bumped.identity_digest() != manifest.identity_digest()
        unset = {k: v for k, v in manifest.backend.items() if k != "revision"}
        one = dataclasses.replace(manifest, backend={**unset, "revision": 1})
        assert (
            one.identity_digest()
            == dataclasses.replace(manifest, backend=unset).identity_digest()
        )
