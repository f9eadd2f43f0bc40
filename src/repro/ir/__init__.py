"""Shared intermediate representations and the solver-backend registry.

The paper's three tools (PEPA Eclipse plug-in, Bio-PEPA workbench,
GPAnalyser) solve the same mathematical objects behind incompatible
frontends.  This package is the reproduction's answer to that
fragmentation: every frontend lowers to one of two IRs —

* :class:`MarkovIR` — an explicit labelled CTMC (sparse generator,
  state labels, transition table), produced by ``pepa`` derivation
  graphs and ``biopepa`` population CTMCs;
* :class:`ReactionIR` — a species/reaction vector form (stoichiometry
  plus propensity function), produced by ``biopepa`` kinetics and
  ``gpepa`` fluid semantics —

and every analysis routes through :func:`solve`, which dispatches to a
pluggable backend registry (``steady`` / ``transient`` / ``passage`` /
``ssa`` / ``ode``), wrapping each call in the engine's metrics and
content-addressed cache under one uniform key scheme.

Import layering (enforced by ``repro.devtools.check_import_layering``):
frontends import ``repro.ir``; ``repro.ir`` imports ``repro.numerics``
and ``repro.engine``; never the other way around.
"""

from repro.ir import backends  # noqa: F401  (populates the registry)
from repro.ir.markov import MarkovIR, OrbitInfo
from repro.ir.reaction import ReactionIR
from repro.ir.registry import (
    CAPABILITIES,
    available_backends,
    default_backend,
    fallback_chain,
    get_backend,
    register_backend,
    register_fallback_chain,
    solve,
)

__all__ = [
    "CAPABILITIES",
    "MarkovIR",
    "OrbitInfo",
    "ReactionIR",
    "available_backends",
    "default_backend",
    "fallback_chain",
    "get_backend",
    "register_backend",
    "register_fallback_chain",
    "solve",
]
