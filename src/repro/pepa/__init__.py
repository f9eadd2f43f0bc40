"""PEPA — Performance Evaluation Process Algebra.

A from-scratch implementation of Hillston's PEPA formalism: parser,
structured operational semantics (with apparent rates and passive
cooperation), explicit state-space derivation, CTMC construction,
steady-state and transient analysis, passage-time CDFs, reward
structures, derivation-graph export and parameter experimentation.

Typical use::

    from repro.pepa import parse_model, derive, ctmc_of

    model = parse_model('''
        r = 2.0;
        mu = 3.0;
        Client = (request, r).(recover, r).Client;
        Server = (request, infty).(serve, mu).Server;
        Client <request> Server
    ''')
    space = derive(model)
    chain = ctmc_of(space)
    pi = chain.steady_state().pi
"""

from repro.pepa.syntax import (
    Model,
    ProcessDef,
    RateDef,
    Prefix,
    Choice,
    Constant,
    Cooperation,
    Hiding,
    Aggregation,
    unparse,
    unparse_model,
)
from repro.pepa.lexer import tokenize
from repro.pepa.parser import parse_model, parse_process
from repro.pepa.semantics import Rate, ActiveRate, PassiveRate, TAU
from repro.pepa.statespace import derive, derive_reference, StateSpace, Transition
from repro.pepa.ctmc import ctmc_of, CTMC
from repro.pepa.passage import passage_time_cdf, passage_time_mean, PassageTimeResult
from repro.pepa.rewards import throughput, utilization, population_average
from repro.pepa.graph import derivation_graph, to_dot, activity_graph
from repro.pepa.experiments import sweep, SweepResult
from repro.pepa.wellformed import check_model
from repro.pepa.lumping import (
    lump,
    LumpedCTMC,
    symmetry_labels,
    verify_population_agreement,
)
from repro.pepa.population import (
    canonical_partition,
    derive_population,
    has_replicated_symmetry,
    population_markov_ir,
    replicated_cluster_count,
)
from repro.pepa.simulation import (
    simulate,
    simulate_ensemble,
    empirical_throughput,
    SimulatedPath,
)
from repro.pepa.probes import attach_probe, probe_passage_time
from repro.pepa import derivation  # registers the 'derive' IR backends
from repro.pepa import csl
from repro.pepa.export import (
    to_prism_tra,
    to_prism_sta,
    to_prism_lab,
    export_prism,
    import_tra,
)

__all__ = [
    "Model",
    "ProcessDef",
    "RateDef",
    "Prefix",
    "Choice",
    "Constant",
    "Cooperation",
    "Hiding",
    "Aggregation",
    "unparse",
    "unparse_model",
    "tokenize",
    "parse_model",
    "parse_process",
    "Rate",
    "ActiveRate",
    "PassiveRate",
    "TAU",
    "derive",
    "derive_reference",
    "derivation",
    "StateSpace",
    "Transition",
    "ctmc_of",
    "CTMC",
    "passage_time_cdf",
    "passage_time_mean",
    "PassageTimeResult",
    "throughput",
    "utilization",
    "population_average",
    "derivation_graph",
    "activity_graph",
    "to_dot",
    "sweep",
    "SweepResult",
    "check_model",
    "lump",
    "LumpedCTMC",
    "symmetry_labels",
    "verify_population_agreement",
    "canonical_partition",
    "derive_population",
    "has_replicated_symmetry",
    "population_markov_ir",
    "replicated_cluster_count",
    "simulate",
    "simulate_ensemble",
    "empirical_throughput",
    "SimulatedPath",
    "attach_probe",
    "probe_passage_time",
    "csl",
    "to_prism_tra",
    "to_prism_sta",
    "to_prism_lab",
    "export_prism",
    "import_tra",
]
