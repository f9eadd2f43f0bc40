"""Pinned derivation bits: sha256 digests of derived state spaces.

Each digest covers ``states``, the four transition arrays and
``action_names`` of one derivation, encoded with fixed little-endian
dtypes so the bytes do not depend on the platform.  The values were
computed with the per-transition FIFO derivation that preceded the
level-synchronous sweep, so any change to state numbering, transition
order, rates or action coding fails here, not only a disagreement with
``derive_reference`` (which shares the SOS helpers with ``derive``).

To re-pin after an intended semantic change, print ``space_digest`` for
every case of :func:`pinned_corpus` and replace :data:`EXPLICIT` /
:data:`POPULATION`; say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.pepa import derive, parse_model
from repro.pepa.models import MODEL_NAMES, get_model
from repro.pepa.population import derive_population, has_replicated_symmetry

PC_LAN_SOURCE = """
lam = 0.4;
mu  = 5.0;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium  = (send, mu).Medium;
PC[{n}] <send> Medium
"""

# The request benchmark's 1024-state LAN family: one medium per
# segment, segments interleaved (same template as the e2e workload,
# with fixed rates).
LAN_HEADER = """\
lam = 0.4;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
"""
LAN_PATTERNS = ((10,), (5, 5), (4, 6))


def lan_source(segments) -> str:
    lines = [LAN_HEADER]
    parts = []
    for k, pcs in enumerate(segments, start=1):
        lines.append(f"mu{k} = {2.0 + 1.5 * k!r};\nMedium{k} = (send, mu{k}).Medium{k};\n")
        parts.append(f"(PC[{pcs}] <send> Medium{k})")
    return "".join(lines) + " || ".join(parts) + "\n"


def pinned_corpus():
    """(name, model) pairs: bundled models, PC-LAN 4 and 8, the three
    LAN patterns and every Table I machine under both mappings, with
    absorbing and restarting ``Done``."""
    from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload
    from repro.allocation.machines import build_machine_model

    cases = [(name, get_model(name)) for name in MODEL_NAMES]
    for n in (4, 8):
        cases.append((f"pc_lan({n})", parse_model(PC_LAN_SOURCE.format(n=n))))
    for segments in LAN_PATTERNS:
        name = "lan" + "x".join(map(str, segments))
        cases.append((name, parse_model(lan_source(segments))))
    workload = synthetic_workload()
    for mapping in (MAPPING_A, MAPPING_B):
        for machine in sorted(mapping.assignments):
            for absorbing in (True, False):
                tag = "abs" if absorbing else "loop"
                cases.append((
                    f"table1_{mapping.name}_{machine}_{tag}",
                    build_machine_model(mapping, machine, workload, absorbing=absorbing),
                ))
    return cases


def space_digest(space) -> str:
    h = hashlib.sha256()
    states = np.asarray(space.states, dtype="<i8")
    h.update(repr(states.shape).encode())
    h.update(states.tobytes())
    for arr, dtype in (
        (space.trans_source, "<i8"),
        (space.trans_target, "<i8"),
        (space.trans_rate, "<f8"),
        (space.trans_action_code, "<i8"),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update("\0".join(space.action_names).encode())
    return h.hexdigest()


EXPLICIT = {
    'simple_validation': 'c0d6c144608eee121091c50ef308f642b61beb02eee829c163b2b93fab3fc3d2',
    'active_badge': 'bfe8ef82b0d9a0eb113f449e8f221c0a05b7b5eceb64d66c518a975c562acefd',
    'alternating_bit': '6d4fa598e855391b75786fd1cbb8d9db9a8582cdd0b203068d2eb852fb9add4f',
    'pc_lan_4': 'aceb00e0499a385661c90ada446e3fd4ce173f0d592b522dc82a68faed0def6b',
    'mm2_queue': 'c68c69152254a3ce29af0e52c30f59c9d8f2b9ca96c68398725df3de43fa571c',
    'faulty_machine': '9df5fc9ed2947e7839540f2566061710b36727084c844107e91762ba88c41787',
    'pc_lan(4)': 'aceb00e0499a385661c90ada446e3fd4ce173f0d592b522dc82a68faed0def6b',
    'pc_lan(8)': '3a8d77ee92140bb04b987fc6c414d3a3e69f9b054149632d0ef815db091fb2bc',
    'lan10': 'fa02840dd4add00f95307128096414ca78a89da8a7a6d076266282e48859a225',
    'lan5x5': '4667765e44650e319738aaabe23d39df516712e03dc19a6cf9e81c03347891ef',
    'lan4x6': '7aec8fc445a366aea666ad3e121aa87b7e2de1e6cf32165be8e4c806c4c41630',
    'table1_A_M1_abs': '6485dd56598a0f53b6200b07d22eb06df2cfea2334b998dc7019064c5e0c3b8e',
    'table1_A_M1_loop': '7006d6c12323f5bef5519a4ee2eb304756000652a46c6af65f3d868a5230e76b',
    'table1_A_M2_abs': '5d2c377a9d1d90e9613249967f1705b65878681716bc1478b8142e31e7956a38',
    'table1_A_M2_loop': '9466fe33decc737373aad9979c333aa2b79af8bfa2871dc6666549cef59e3ee5',
    'table1_A_M3_abs': 'cdc0da021e9a40d9277d1bd4f1811031edb91cec96d20f5f854fb3ce717490b9',
    'table1_A_M3_loop': 'e06c1343738af7a9340bcc357daca5e6ed0bc718019147b1c06c18f73a5c967b',
    'table1_A_M4_abs': '4f04a31ae7fb8102a94546649f894fa634b1bfafbc8a9782768e35275a179226',
    'table1_A_M4_loop': '5cbbb9bee75872e94330ceca9a4a187476eddec90daed838aa93ae6072529775',
    'table1_A_M5_abs': '8c969578da8099f59c32ef0a78f27ec6219b3e9016dc887a590f6441002662dd',
    'table1_A_M5_loop': 'b4c25c7be03d9142145e9eb1eede625de4823d51e4689881d894a89d577a7c5f',
    'table1_B_M1_abs': '281a04957f2509edbf18301e2075313a4aad20e30c7a18da4d373b506ada8b83',
    'table1_B_M1_loop': 'bfcbcac2ffba41c2e17ac05fa138e60d119a2a45ad109326c1ab0c82f31aa588',
    'table1_B_M2_abs': '0b4ce1a46bbdfcfb4e8b552863e34198101e1a5d15b31f9d2ed733ae2a3c5ca5',
    'table1_B_M2_loop': '8ca4384a207fac8dcc47e767861fe71f95ea5e90d1af0acff0d78a5e2e9474fe',
    'table1_B_M3_abs': 'a836348b0048d0a18b6728518c2d2ddd5abe3aaee0c171038792a8461d5b942e',
    'table1_B_M3_loop': '842f6ecc1d1972005b2d2bf4e28467473f021a17de0fbbf3d9a50e77651b5aaa',
    'table1_B_M4_abs': 'db9c5f7d253f699f5cf0f1fcc90bdfc3ab3d3a6b463c1e5ea1df8b4afed867b6',
    'table1_B_M4_loop': 'a89bff4ea79653d9270f47f1efee6d145f1a68a5ca0cff36bbfc51834833390b',
    'table1_B_M5_abs': '47f167a37bce398781b8a1742678a3b1ff4394b5f11820851962c11d0c9f0458',
    'table1_B_M5_loop': '970d07c104cb3cf6702454081fa891146d3eb746d8424f38576fb7af279476fb',
}
POPULATION = {
    'pc_lan_4': 'e7a874958fe7bf93bbe42d88b14722a8dd03f3c104751ef3d5a4b373ab3d87dc',
    'pc_lan(4)': 'e7a874958fe7bf93bbe42d88b14722a8dd03f3c104751ef3d5a4b373ab3d87dc',
    'pc_lan(8)': 'cf3afd23f56f4f6414296a1cef2deed53485698b2070476baf8d828781291745',
    'lan10': '8811efe518df0119eb2eb795156d83f9ea3a01952a0197f497fb4eb3237fe454',
    'lan5x5': '2a3bafc04d6b99f7f3690c71e497e910baeca14a56146863ef9944b9cbbd58ad',
    'lan4x6': '024bc3bf75115aaad8165a45b7168ddaabf49e3d7bb8262b705d4905a352a41e',
}

CORPUS = pinned_corpus()
SYMMETRIC = [(n, m) for n, m in CORPUS if has_replicated_symmetry(m)]


@pytest.mark.parametrize("name,model", CORPUS, ids=[n for n, _ in CORPUS])
def test_explicit_bits_pinned(name, model):
    assert space_digest(derive(model)) == EXPLICIT[name]


@pytest.mark.parametrize("name,model", SYMMETRIC, ids=[n for n, _ in SYMMETRIC])
def test_population_bits_pinned(name, model):
    assert space_digest(derive_population(model)) == POPULATION[name]


def test_corpus_is_fully_pinned():
    assert set(EXPLICIT) == {n for n, _ in CORPUS}
    assert set(POPULATION) == {n for n, _ in SYMMETRIC}
