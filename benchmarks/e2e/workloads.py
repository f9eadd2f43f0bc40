"""The four workloads: seeded inputs, the entry point each request goes
through, and the independent checks of its output.

Every workload is an endless stream of requests drawn from
``numpy.random.default_rng(seed)``; the first ``warmup`` requests warm
the process up and are not timed.  Rates are jittered per request so no
two requests share a cache key unless the workload repeats one on
purpose (``service_mix`` resubmissions).  The *kind* of each request
(model, Table I mapping, capability, job type) follows one fixed
shuffled order that the seed does not change, so every window holds the
same mix and two seeds differ only in their rates, synthetic workloads
and SSA seeds.

Checks never compare bit patterns with a second run of the same code:
they solve again by an independent method (dense LAPACK, ``expm``, or
an inline ``execute_spec`` for the service) and compare within a
tolerance.
"""

from __future__ import annotations

import re
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Workload"]

#: Transient requests report the distribution on this grid.
SMALL_GRID = np.linspace(0.0, 10.0, 50)

#: One fixed grid for every makespan request; its horizon is long enough
#: for every seeded Table I workload's CDF to pass ``1 - tail_tol``.
MAKESPAN_GRID = np.linspace(0.0, 400.0, 200)
MAKESPAN_TAIL_TOL = 1e-2

SSA_GRID = np.linspace(0.0, 10.0, 21)
SSA_RUNS = 100

#: Dense references are only computed up to this many states.
DENSE_LIMIT = 2000

STEADY_ATOL = 1e-9
RESIDUAL_RTOL = 1e-10
TRANSIENT_ATOL = 1e-9
MAKESPAN_ATOL = 1e-6

_RATE_LINE = re.compile(
    r"^(\s*\w+\s*=\s*)(\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(\s*;)", re.MULTILINE
)


def jitter_rates(source: str, rng, spread: float = 0.2) -> str:
    """Scale each literal constant definition (``name = 0.4;``) by a
    factor drawn from ``[1 - spread, 1 + spread]``; derived definitions
    (``mu2 = 2 * mu;``) follow their inputs."""

    def scaled(match):
        value = float(match.group(2)) * rng.uniform(1.0 - spread, 1.0 + spread)
        return f"{match.group(1)}{value!r}{match.group(3)}"

    return _RATE_LINE.sub(scaled, source)


#: Seed of the request-kind order, deliberately not the workload seed.
ORDER_SEED = 0


def _deck(cards):
    """Endless repetitions of ``cards``, each in a fixed shuffled order."""
    order = np.random.default_rng(ORDER_SEED)
    while True:
        for i in order.permutation(len(cards)):
            yield cards[i]


@dataclass(frozen=True)
class SolveRequest:
    """One ``repro.manifest.run_from_source`` call (``repro solve``)."""

    source: str
    capability: str
    derive_backend: str | None = None

    def params(self) -> dict:
        return {"times": SMALL_GRID} if self.capability == "transient" else {}


@dataclass(frozen=True)
class MakespanRequest:
    mapping: object
    workload: object


@dataclass(frozen=True)
class JobRequest:
    """One service submission; ``original`` is the index of the request
    a resubmission repeats."""

    kind: str
    spec: dict
    original: int | None = None


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def _small_models():
    """``(source, machine)`` pairs: the bundled models and ``pc_lan_8``
    with their source, and each Table I machine model under Mapping A and
    B as ``(None, (mapping, machine))``."""
    from repro.allocation import MAPPING_A, MAPPING_B
    from repro.pepa.models import MODEL_NAMES, get_source

    models = [(get_source(name), None) for name in MODEL_NAMES]
    models.append((get_source("pc_lan_4").replace("PC[4]", "PC[8]"), None))
    return models + [
        (None, (mapping, machine))
        for mapping in (MAPPING_A, MAPPING_B)
        for machine in ("M1", "M2", "M3", "M4", "M5")
    ]


def small_solves(rng, derive=True):
    """Edinburgh models, ``pc_lan_8`` and Table I machines, jittered (a
    machine model gets a seeded synthetic workload): 3 steady to 1
    transient, and (with ``derive``) one in three on
    ``derive_backend="auto"``."""
    from repro.allocation import synthetic_workload
    from repro.allocation.machines import machine_model_source

    backends = ("auto", None, None) if derive else (None,)
    cards = [
        (source, machine, capability, backend)
        for source, machine in _small_models()
        for capability in ("steady", "steady", "steady", "transient")
        for backend in backends
    ]
    for source, machine, capability, backend in _deck(cards):
        if machine is not None:
            mapping, name = machine
            workload = synthetic_workload(seed=int(rng.integers(2**31)))
            text = machine_model_source(mapping, name, workload, absorbing=False)
        else:
            text = jitter_rates(source, rng)
        yield SolveRequest(text, capability, backend)


_LAN_HEADER = """\
lam = {lam!r};
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
"""


def lan_source(segments, lam, mus) -> str:
    """PC-LAN with one medium per segment; ``segments`` gives each
    segment's PC count (``(10,)``, ``(5, 5)``, ``(4, 6)``: 1024 states)."""
    lines = [_LAN_HEADER.format(lam=lam)]
    parts = []
    for k, (pcs, mu) in enumerate(zip(segments, mus), start=1):
        lines.append(f"mu{k} = {mu!r};\nMedium{k} = (send, mu{k}).Medium{k};\n")
        parts.append(f"(PC[{pcs}] <send> Medium{k})")
    return "".join(lines) + " || ".join(parts) + "\n"


LAN_PATTERNS = ((10,), (5, 5), (4, 6))


def lan_solves(rng):
    for segments in _deck(LAN_PATTERNS):
        lam = float(rng.uniform(0.2, 0.6))
        mus = [float(rng.uniform(2.0, 8.0)) for _ in segments]
        yield SolveRequest(lan_source(segments, lam, mus), "steady")


def makespans(rng):
    from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload

    base = int(rng.integers(2**30))
    for i in range(2**30):
        mapping = (MAPPING_A, MAPPING_B)[i % 2]
        yield MakespanRequest(mapping, synthetic_workload(seed=base + i))


def _ssa_spec(seed: int) -> dict:
    from repro.biopepa.examples import enzyme_kinetics_source
    from repro.engine.run_manifest import encode_params

    return {
        "kind": "solve", "formalism": "biopepa",
        "source": enzyme_kinetics_source(), "capability": "ssa",
        "params": encode_params({
            "mode": "ensemble", "times": SSA_GRID, "n_runs": SSA_RUNS,
            "seed": seed,
        }),
    }


def _solve_spec(request: SolveRequest) -> dict:
    from repro.engine.run_manifest import encode_params

    return {
        "kind": "solve", "formalism": "pepa", "source": request.source,
        "capability": request.capability,
        "params": encode_params(request.params()),
    }


def _makespan_spec(request: MakespanRequest) -> dict:
    from repro.engine.run_manifest import dataclass_descriptor, encode_params

    return {
        "kind": "makespan",
        "model": {
            "mapping": dataclass_descriptor(request.mapping),
            "workload": dataclass_descriptor(request.workload),
        },
        "params": encode_params({"times": MAKESPAN_GRID}),
    }


#: Per 20 service requests: 8 small solves, 5 makespans, 3 SSA
#: ensembles, 4 resubmissions.
SERVICE_DECK = ("solve",) * 8 + ("makespan",) * 5 + ("ssa",) * 3 + ("resubmit",) * 4

#: A resubmission repeats a request this many positions back, far enough
#: that the original has almost surely finished (an unfinished one is
#: joined in flight, with the same digest).
RESUBMIT_LAG = (10, 30)


def service_jobs(rng):
    small = small_solves(rng, derive=False)
    makespan_inputs = makespans(rng)
    ssa_base = int(rng.integers(2**30))
    history: list[JobRequest] = []
    kinds = _deck(SERVICE_DECK)
    for index in range(2**30):
        kind = next(kinds)
        if kind == "resubmit" and index < RESUBMIT_LAG[1]:
            kind = "solve"
        if kind == "resubmit":
            lo, hi = RESUBMIT_LAG
            target = index - int(rng.integers(lo, hi + 1))
            original = history[target]
            if original.original is not None:
                target = original.original
            request = JobRequest("resubmit", history[target].spec, target)
        elif kind == "solve":
            request = JobRequest("solve", _solve_spec(next(small)))
        elif kind == "makespan":
            request = JobRequest("makespan", _makespan_spec(next(makespan_inputs)))
        else:
            request = JobRequest("ssa", _ssa_spec(ssa_base + index))
        history.append(request)
        yield request


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def _lowered(request: SolveRequest):
    from repro.manifest import lower_for_capability

    ir, _labels = lower_for_capability(
        "pepa", request.source, request.capability,
        derive_backend=request.derive_backend,
    )
    return ir


def check_steady(request: SolveRequest, result) -> list[str]:
    """Dense LAPACK solve of ``pi Q = 0, sum(pi) = 1`` built here, and
    the residual of the returned vector."""
    Q = _lowered(request).generator.toarray()
    n = Q.shape[0]
    if n > DENSE_LIMIT:
        return []
    pi = np.asarray(result.pi, dtype=np.float64)
    if pi.shape != (n,):
        return [f"steady vector has shape {pi.shape}, chain has {n} states"]
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    reference = np.linalg.solve(A, b)
    failures = []
    error = float(np.abs(pi - reference).max())
    if error > STEADY_ATOL:
        failures.append(f"steady max|pi - pi_dense| = {error:.3e}")
    scale = max(1.0, float(np.abs(np.diag(Q)).max()))
    residual = float(np.abs(pi @ Q).max())
    if residual > RESIDUAL_RTOL * scale:
        failures.append(f"steady residual {residual:.3e} > {RESIDUAL_RTOL:g} x {scale:.3g}")
    return failures


def check_transient(request: SolveRequest, result) -> list[str]:
    """``p0 expm(Q t)`` on every grid point."""
    import scipy.linalg

    ir = _lowered(request)
    if ir.n_states > DENSE_LIMIT:
        return []
    Q = ir.generator.toarray()
    p0 = ir.initial_distribution()
    reference = np.array([p0 @ scipy.linalg.expm(Q * t) for t in SMALL_GRID])
    dist = np.asarray(result, dtype=np.float64)
    if dist.shape != reference.shape:
        return [f"transient shape {dist.shape} != {reference.shape}"]
    error = float(np.abs(dist - reference).max())
    return [f"transient max|p - p_expm| = {error:.3e}"] if error > TRANSIENT_ATOL else []


def makespan_shape(result) -> list[str]:
    """Monotone, inside [0, 1], and past ``1 - tail_tol`` by the horizon
    (the condition under which ``makespan_cdf`` warns)."""
    cdf = np.asarray(result.cdf)
    failures = []
    if cdf.min() < 0.0 or cdf.max() > 1.0:
        failures.append(f"makespan CDF leaves [0, 1]: [{cdf.min()}, {cdf.max()}]")
    if (np.diff(cdf) < 0).any():
        failures.append("makespan CDF decreases")
    if cdf[-1] < 1.0 - MAKESPAN_TAIL_TOL:
        failures.append(f"makespan CDF reaches only {cdf[-1]:.4f}")
    return failures


def check_makespan(request: MakespanRequest, result) -> list[str]:
    from repro.allocation.cdf import makespan_cdf

    reference = makespan_cdf(
        request.mapping, request.workload, MAKESPAN_GRID, method="expm"
    )
    error = float(np.abs(np.asarray(result.cdf) - reference.cdf).max())
    return [f"makespan max|F - F_expm| = {error:.3e}"] if error > MAKESPAN_ATOL else []


def check_job(request: JobRequest, digest: str) -> list[str]:
    """The server's result digest equals an inline ``execute_spec``."""
    from repro.service.jobs import JobSpec, execute_spec

    _result, _manifest, expected = execute_spec(JobSpec.from_dict(request.spec))
    if digest != expected:
        return [f"{request.kind} job digest {digest} != inline {expected}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """How one workload is driven.

    ``check_every`` picks every n-th timed request for the independent
    check (at most ``max_checks`` of them), so the checks cost the same
    whatever the throughput.
    """

    name: str
    requests: Callable  #: ``requests(rng)`` -> the endless request stream
    warmup: int
    check_every: int
    max_checks: int
    imports: tuple[str, ...]

    def execute(self, request, client=None):
        """Send one request through the entry point users call."""
        if isinstance(request, SolveRequest):
            from repro.manifest import run_from_source

            return run_from_source(
                "pepa", request.source, request.capability,
                derive_backend=request.derive_backend, **request.params(),
            )
        if isinstance(request, MakespanRequest):
            from repro.allocation import cdf

            return cdf.makespan_cdf(request.mapping, request.workload, MAKESPAN_GRID)
        return _run_job(client, request)

    def quick_check(self, request, result) -> list[str]:
        """Cheap checks run on every request (outside its timing)."""
        if isinstance(request, MakespanRequest):
            return makespan_shape(result)
        return []

    def check(self, request, result) -> list[str]:
        if isinstance(request, SolveRequest):
            if request.capability == "steady":
                return check_steady(request, result)
            return check_transient(request, result)
        if isinstance(request, MakespanRequest):
            return check_makespan(request, result)
        return check_job(request, result["digest"])


class JobFailed(RuntimeError):
    """A job ended in a state other than ``done``."""


#: How long a job may sit ``queued`` before the client asks whether the
#: server still holds it in its admission queue.
LOST_CHECK_SECONDS = 0.1
JOB_TIMEOUT_SECONDS = 120.0


def _lost(client, job_id: str) -> bool:
    """True when the job is ``queued`` but in no queue.

    ``JobService.submit`` admits a job before it stores the job's
    record; a worker idle in ``take`` can pop the id in between, find no
    record and drop it, leaving the job ``queued`` forever.  A job
    legitimately waiting is in the queue, so ``queue_depth`` is at least
    1 while it waits.
    """
    if client.status(job_id).get("status") != "queued":
        return False
    if client.readyz().get("queue_depth", 1) != 0:
        return False
    return client.status(job_id).get("status") == "queued"


def _run_job(client, request: JobRequest) -> dict:
    """Submit, poll until done, fetch the result.

    A job the server lost (see :func:`_lost`) is cancelled and submitted
    again; the result records how often (``lost_submissions``).
    """
    from repro.errors import ServiceError

    deadline = time.monotonic() + JOB_TIMEOUT_SECONDS
    lost = 0
    reply = client.submit(request.spec, priority=0)
    job_id = reply["job_id"]
    status = reply
    while status.get("status") != "done":
        try:
            status = client.wait(job_id, timeout=LOST_CHECK_SECONDS, poll=0.005)
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            if _lost(client, job_id):
                lost += 1
                client.cancel(job_id)
                status = client.submit(request.spec, priority=0)
            continue
        if status.get("status") != "done":
            raise JobFailed(f"job {job_id} ended {status.get('status')}: {status.get('error')}")
    document = client.result(job_id)
    document["lost_submissions"] = lost
    return document


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve_small", small_solves,
            # warm up on one deck: 17 models x 4 capability x 3 derive cards
            warmup=204, check_every=50, max_checks=40,
            imports=("repro.manifest", "repro.pepa"),
        ),
        Workload(
            "steady_lan1k", lan_solves,
            warmup=len(LAN_PATTERNS), check_every=8, max_checks=15,
            imports=("repro.manifest", "repro.pepa"),
        ),
        Workload(
            "makespan_table1", makespans,
            warmup=4, check_every=20, max_checks=25,
            imports=("repro.allocation", "repro.manifest"),
        ),
        Workload(
            "service_mix", service_jobs,
            warmup=len(SERVICE_DECK), check_every=25, max_checks=12,
            imports=("repro.service",),
        ),
    )
}
