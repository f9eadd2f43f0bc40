"""Interchange with the PRISM probabilistic model checker.

The paper situates PEPA among quantitative-analysis tools alongside
PRISM (Hinton et al., TACAS 2006).  PRISM consumes CTMCs in its
*explicit* file format; exporting a derived PEPA chain lets users run
CSL model checking on models built here:

* ``.tra`` — transitions: header ``<n> <m>`` then ``src dst rate`` rows;
* ``.sta`` — states: header ``(v0,v1,...)`` naming one variable per
  sequential component, then ``index:(l0,l1,...)`` rows of local-state
  indices;
* ``.lab`` — labels: declares ``init`` (and ``deadlock`` when present)
  and tags the matching states.

All three renderings are deterministic; :func:`import_tra` reads the
transition format back (round-trip tested), so the chain can also be
post-processed by external tooling and re-imported.
"""

from __future__ import annotations

import re

import numpy as np
import scipy.sparse as sp

from repro.errors import PepaError
from repro.numerics.generator import generator_from_rates, off_diagonal
from repro.pepa.ctmc import CTMC

__all__ = ["to_prism_tra", "to_prism_sta", "to_prism_lab", "export_prism", "import_tra"]


def to_prism_tra(chain: CTMC) -> str:
    """Render the chain's transition matrix in PRISM ``.tra`` format."""
    R = off_diagonal(chain.generator)
    order = np.lexsort((R.col, R.row))
    lines = [f"{chain.n_states} {R.nnz}"]
    for k in order:
        lines.append(f"{R.row[k]} {R.col[k]} {R.data[k]:.12g}")
    return "\n".join(lines) + "\n"


def to_prism_sta(chain: CTMC) -> str:
    """Render the state table in PRISM ``.sta`` format.

    One variable per sequential component, valued by the interned local
    derivative index (the ``.sta`` header names the variables after the
    component leaves).
    """
    space = chain.space
    names = ",".join(_sanitize(leaf.name) for leaf in space.leaves)
    lines = [f"({names})"]
    for i, state in enumerate(space.states):
        lines.append(f"{i}:(" + ",".join(str(v) for v in state) + ")")
    return "\n".join(lines) + "\n"


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def to_prism_lab(chain: CTMC) -> str:
    """Render the label file: ``init`` plus ``deadlock`` when present."""
    space = chain.space
    deadlocks = space.deadlocked_states()
    decls = ['0="init"']
    if deadlocks:
        decls.append('1="deadlock"')
    lines = [" ".join(decls)]
    lines.append(f"{space.initial_state}: 0")
    for s in deadlocks:
        if s == space.initial_state:
            lines[-1] = f"{s}: 0 1"
        else:
            lines.append(f"{s}: 1")
    return "\n".join(lines) + "\n"


def export_prism(chain: CTMC, basename: str) -> dict[str, str]:
    """Write ``basename.tra/.sta/.lab`` to disk; returns path → content."""
    import pathlib

    out = {
        f"{basename}.tra": to_prism_tra(chain),
        f"{basename}.sta": to_prism_sta(chain),
        f"{basename}.lab": to_prism_lab(chain),
    }
    for path, content in out.items():
        pathlib.Path(path).write_text(content)
    return out


def import_tra(text: str) -> sp.csr_matrix:
    """Parse a PRISM ``.tra`` document back into a CTMC generator.

    Returns the full generator (diagonal restored from row sums).

    Raises
    ------
    PepaError
        On malformed headers or rows, out-of-range indices, or a row
        count that disagrees with the header.
    """
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise PepaError("empty .tra document")
    header = lines[0].split()
    if len(header) != 2:
        raise PepaError(f"malformed .tra header {lines[0]!r} (expected '<n> <m>')")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise PepaError(f"malformed .tra header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise PepaError(f".tra declares {m} transitions but contains {len(lines) - 1}")
    rows = np.empty(m, dtype=np.intp)
    cols = np.empty(m, dtype=np.intp)
    vals = np.empty(m, dtype=np.float64)
    for k, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 3:
            raise PepaError(f"malformed .tra row {line!r}")
        try:
            src, dst, rate = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise PepaError(f"malformed .tra row {line!r}") from None
        if not (0 <= src < n and 0 <= dst < n):
            raise PepaError(f".tra row {line!r} references a state outside 0..{n - 1}")
        if rate <= 0:
            raise PepaError(f".tra row {line!r} has a non-positive rate")
        rows[k], cols[k], vals[k] = src, dst, rate
    return generator_from_rates(n, rows, cols, vals)
