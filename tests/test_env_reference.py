"""The environment-variable reference names exactly what the code reads.

``docs/engine.md``'s reference tables are the one list of ``REPRO_*``
settings.  A variable the code reads but the tables omit is an
undocumented knob; a variable the tables list but nothing reads is a
knob that no longer exists.  Prefixes such as ``REPRO_SERVE_`` are
not variables and do not count.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")


def _names(text: str) -> set[str]:
    return {name for name in NAME.findall(text) if not name.endswith("_")}


def _read_by_src() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names |= _names(path.read_text(encoding="utf-8"))
    return names


def _reference_tables() -> set[str]:
    text = (ROOT / "docs" / "engine.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables (complete reference)", 1)[1]
    section = re.split(r"^## ", section, maxsplit=1, flags=re.M)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.M))


def test_reference_tables_name_every_variable_src_reads():
    documented, read = _reference_tables(), _read_by_src()
    assert not read - documented, "read under src/ but missing from docs/engine.md"
    assert not documented - read, "in docs/engine.md but read nowhere under src/"
