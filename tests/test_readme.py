"""README.md matches the library: its backticked module-qualified names exist, and its
config-key table lists each config section's keys in order."""

import importlib
import pkgutil
import re
from pathlib import Path

import kinverify

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = {m.name for m in pkgutil.iter_modules(kinverify.__path__)}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
FILE_SUFFIXES = (".py", ".csv", ".json", ".kinc", ".md")


def readme_names() -> list[str]:
    """Backticked dotted names whose first component is ``kinverify`` or one of its modules."""
    names = DOTTED.findall(README.read_text(encoding="utf-8"))
    heads = SUBMODULES | {"kinverify"}
    return [n for n in names if n.split(".")[0] in heads and not n.endswith(FILE_SUFFIXES)]


def resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[0] == "kinverify":
        parts.pop(0)
    obj = kinverify
    if parts[0] in SUBMODULES:
        obj = importlib.import_module(f"kinverify.{parts.pop(0)}")
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_resolve():
    names = readme_names()
    assert "training.CHUNK" in names  # the scan finds the names it is meant to check
    assert [n for n in names if not resolves(n)] == []


def readme_config_rows() -> dict[str, list[str]]:
    """Section -> keys of README's config-key table, parenthesized value lists left out."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"\| `(\w+)`\s*\| (.*) \|", line)
        if match:
            keys = re.sub(r"\([^)]*\)", "", match.group(2))
            rows[match.group(1)] = re.findall(r"`(\w+)`", keys)
    return rows


def test_readme_config_table_lists_every_section_key():
    from dataclasses import fields

    from kinverify.config import _SECTIONS

    expected = {name: [f.name for f in fields(cls)] for name, cls in _SECTIONS.items()}
    assert readme_config_rows() == expected
