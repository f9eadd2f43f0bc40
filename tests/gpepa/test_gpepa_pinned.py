"""Pinned GPEPA bits: sha256 digests of every analysis that evaluates the
Hayden–Bradley normalized-min sharing rule.

Each digest covers the shape and the little-endian float64 bytes of one
result array: fluid trajectories (LSODA and ``rk4``), the fluid
right-hand side at seeded points (some coordinates zeroed so that
throttled-to-zero subtrees are exercised), the LNA mean and covariance,
one SSA ensemble's mean and variance and an action-throughput series,
on both bundled GPAnalyser examples.  The values were computed while
the fluid RHS, the SSA propensities and the LNA diffusion each walked
the composition tree on their own, so any change to how the sharing
rule is evaluated, or to the order its flows are summed, fails here.

To re-pin after an intended semantic change, print ``digest`` for every
case of :func:`cases` and replace :data:`PINNED`; say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gpepa import (
    action_throughput_series,
    client_server_power,
    client_server_scalability,
    fluid_rhs,
    fluid_trajectory,
    gssa_ensemble,
    lna_trajectory,
)

GRID = np.linspace(0.0, 20.0, 101)
LNA_GRID = np.linspace(0.0, 10.0, 21)
SSA_GRID = np.linspace(0.0, 5.0, 11)
MODELS = {
    "scalability": lambda: client_server_scalability(100, 10),
    "power": client_server_power,
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def rhs_points(model, n_points: int = 50) -> np.ndarray:
    """Seeded count vectors; about a quarter of the coordinates are 0."""
    rng = np.random.default_rng(2019)
    x = rng.uniform(0.0, 120.0, size=(n_points, model.n_states))
    x[rng.random(x.shape) < 0.25] = 0.0
    return x


def cases():
    """(name, thunk) pairs; each thunk returns the arrays to digest."""
    out = []
    for tag, build in MODELS.items():
        out += [
            (f"{tag}_fluid_lsoda",
             lambda b=build: (fluid_trajectory(b(), GRID).counts,)),
            (f"{tag}_fluid_rk4",
             lambda b=build: (fluid_trajectory(b(), GRID, method="rk4").counts,)),
            (f"{tag}_rhs_points",
             lambda b=build: (np.array([
                 fluid_rhs(m)(0.0, x) for m in (b(),) for x in rhs_points(m)
             ]),)),
            (f"{tag}_lna",
             lambda b=build: (lambda r: (r.mean, r.covariance))(
                 lna_trajectory(b(), LNA_GRID))),
            (f"{tag}_request_throughput",
             lambda b=build: (action_throughput_series(
                 fluid_trajectory(b(), GRID), "request"),)),
        ]
    out.append((
        "scalability_ssa_ensemble",
        lambda: (lambda e: (e.mean, e.var))(gssa_ensemble(
            client_server_scalability(20, 4), SSA_GRID, n_runs=20, seed=11)),
    ))
    return out


PINNED = {
    'scalability_fluid_lsoda': '2f52948ea0336cbecb544dce434ace6e76b949b7c1fc923662e9ef2f5b635bc4',
    'scalability_fluid_rk4': '323347ee5660292c65f4da9e9b4eccb493530b6f6bc506d3a9da11652fe13437',
    'scalability_rhs_points': 'cfa0dc6f9b93f593a7ea996abd5595c21809de8071fc5c780d8babdd15ad7d91',
    'scalability_lna': '018eadd99ebb9cd682828e7478cbd9f65e5536c0ceda3a86f5a4a39978c0ba20',
    'scalability_request_throughput': 'ac38f28667450d8e3f8b14a563e4585c756b26a65d49dc883a36bfc70afe5986',
    'power_fluid_lsoda': 'e715d66fbdae258ec43be11060fe56b05186bff6d7f9c610f50d1dd0642bd89b',
    'power_fluid_rk4': 'c62712ab5052d30efc9cb3c0f5630332553238ad349bc84cebceefc93d68f771',
    'power_rhs_points': '61998004cec5ca271bb863a4f50ae8e90479899d49798dbd49ceff1854361cb7',
    'power_lna': 'd238a8ecccf5a80d11fdb4c4369f29e90ff3d0fc48e554e8248b39494f9e2bfe',
    'power_request_throughput': '34dc60e86657c3eba02d9e8862a5473efb507b8dff15bfef543f3dbd0683936e',
    'scalability_ssa_ensemble': '1fd9a67c6a4c8e9c4338ec644f4254d6af43afd3a3679d2af2a98bf2fb919045',
}

CASES = cases()


@pytest.mark.parametrize("name,build", CASES, ids=[n for n, _ in CASES])
def test_gpepa_bits_pinned(name, build):
    assert digest(*build()) == PINNED[name]


def test_every_case_is_pinned():
    assert set(PINNED) == {n for n, _ in CASES}
