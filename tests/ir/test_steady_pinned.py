"""Pinned steady bits of ``uniformization`` revision 1 (power iteration
from the uniform vector, stopped when one step moves ``pi`` by less
than ``tol``, at most ``maxiter`` steps).

Each case pins the iteration count and the sha256 of the shape and the
little-endian float64 bytes of ``pi`` on one bundled model.  The values
were computed while revision 1 was the only power iteration registered,
so a later revision that shares code with it cannot move its bits
unnoticed, and revision-1 manifests keep replaying bit for bit.

To re-pin after an intended semantic change, print ``digest`` for every
bundled model and replace :data:`REVISION_1`; say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import cache_disabled
from repro.ir import solve
from repro.ir.registry import pinned_revision
from repro.pepa import ctmc_of, derive
from repro.pepa.models import MODEL_NAMES, get_model

REVISION_1 = {
    'simple_validation': (30, '59f0163aa5e82ed9d76f255e0ee6078a96c9a57d0073ed733d1893bb7ab5b63b'),
    'active_badge': (16, 'c49e23bdb61d6955a8ca831241d57995c0d3ef5482e5cedb9743c9c2b267e218'),
    'alternating_bit': (193, '08d4f64c88c68eeedbbae09056ac15ceac122b70270eeac4683eba9288b20c6b'),
    'pc_lan_4': (39, 'f216a741cbea02fceaa5666f2c749e7b334320108a0808e2a6511f6c4ba2d882'),
    'mm2_queue': (77, '5de99442abdb551e3bbfc2619be952bfbbb33f13e689919aefb1b620ea5684be'),
    'faulty_machine': (10, '60756e34eb5ea25cefef88ae6f2d7eb6a55a176ec1b36000848e28548c5c6e0b'),
}


def digest(pi) -> str:
    arr = np.ascontiguousarray(pi, dtype="<f8")
    h = hashlib.sha256()
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def test_every_bundled_model_is_pinned():
    assert sorted(REVISION_1) == sorted(MODEL_NAMES)


@pytest.mark.parametrize("name", sorted(REVISION_1))
def test_revision_one_power_bits(name):
    ir = ctmc_of(derive(get_model(name))).lower()
    with cache_disabled(), pinned_revision("steady", "uniformization", 1):
        result = solve(ir, "steady", backend="uniformization", fallback=False)
    assert result.meta["backend"] == "uniformization"
    assert (result.iterations, digest(result.pi)) == REVISION_1[name]
