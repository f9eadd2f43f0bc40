"""Job specs: validation, content-addressed identity, execution."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import JobSpec, encode_result, execute_spec

PEPA_SRC = "P = (think, 1.0).Q;\nQ = (work, 2.0).P;\nP\n"


class TestSpecValidation:
    def test_solve_requires_model_fields(self):
        with pytest.raises(ServiceError, match="formalism"):
            JobSpec(kind="solve", source=PEPA_SRC, capability="steady")
        with pytest.raises(ServiceError, match="source"):
            JobSpec(kind="solve", formalism="pepa", capability="steady")
        with pytest.raises(ServiceError, match="capability"):
            JobSpec(kind="solve", formalism="pepa", source=PEPA_SRC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            JobSpec(kind="exec")

    def test_makespan_requires_descriptors_and_times(self):
        with pytest.raises(ServiceError, match="mapping"):
            JobSpec(kind="makespan")
        with pytest.raises(ServiceError, match="times"):
            JobSpec(kind="makespan", model={"mapping": {}, "workload": {}})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown fields"):
            JobSpec.from_dict({"kind": "solve", "shellcode": "boom"})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ServiceError, match="JSON object"):
            JobSpec.from_dict(["solve"])


class TestJobIdentity:
    def _spec(self, **overrides):
        fields = dict(
            kind="solve", formalism="pepa", source=PEPA_SRC, capability="steady"
        )
        fields.update(overrides)
        return JobSpec(**fields)

    def test_identical_specs_share_an_id(self):
        assert self._spec().job_id == self._spec().job_id

    def test_id_depends_on_content(self):
        other = self._spec(source=PEPA_SRC.replace("1.0", "3.0"))
        assert self._spec().job_id != other.job_id
        assert self._spec().job_id != self._spec(capability="transient").job_id

    def test_round_trips_through_dict(self):
        spec = self._spec()
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert JobSpec.from_dict(spec.to_dict()).job_id == spec.job_id


class TestExecuteSpec:
    def test_solve_job_produces_manifest_and_digest(self):
        spec = JobSpec(
            kind="solve", formalism="pepa", source=PEPA_SRC, capability="steady"
        )
        result, manifest, digest = execute_spec(spec)
        assert np.isclose(result.pi.sum(), 1.0)
        assert manifest is not None and manifest.kind == "solve"
        assert digest and digest.startswith("result-")

    def test_execution_is_deterministic(self):
        spec = JobSpec(
            kind="solve",
            formalism="pepa",
            source=PEPA_SRC,
            capability="transient",
            params={"times": [0.0, 0.5, 1.0]},
        )
        _, _, first = execute_spec(spec)
        _, _, second = execute_spec(spec)
        assert first == second

    def test_ssa_job_runs_the_batched_kernel(self):
        from repro.biopepa.examples import enzyme_kinetics_source
        from repro.engine.run_manifest import result_digest
        from repro.ir.backends.ssa import ensemble_moments, reaction_run
        from repro.manifest import lower_for_capability

        params = {"mode": "ensemble", "times": [0.0, 1.0, 2.0],
                  "n_runs": 100, "seed": 5}
        spec = JobSpec(kind="solve", formalism="biopepa",
                       source=enzyme_kinetics_source(), capability="ssa",
                       params=params)
        result, manifest, digest = execute_spec(spec)
        assert result.meta["kernel"] == "batched"
        assert manifest.backend["kernel"] == "batched"
        ir, _ = lower_for_capability(
            "biopepa", enzyme_kinetics_source(), "ssa"
        )
        oracle = ensemble_moments(reaction_run, ir, np.array(params["times"]),
                                  100, 5)
        assert digest == result_digest(oracle)


class TestEncodeResult:
    def test_json_safe_values_pass_through(self):
        encoded = encode_result({"answer": 42})
        assert encoded == {"encoding": "params", "value": {"answer": 42}}

    def test_arrays_encode(self):
        encoded = encode_result(np.arange(3.0))
        assert encoded["encoding"] == "params"

    def test_unencodable_degrades_to_opaque(self):
        encoded = encode_result(object())
        assert encoded == {"encoding": "opaque", "type": "object"}
