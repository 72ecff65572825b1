"""Every entry of ``scripts/mutate.py`` still applies to the tree: its
old text occurs exactly once in its file, and old and new are distinct
single lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutation_applies_exactly_once():
    spec = importlib.util.spec_from_file_location(
        "mutate", ROOT / "scripts" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert mutate.MUTATIONS
    for m in mutate.MUTATIONS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m
        assert m.old != m.new and "\n" not in m.old + m.new, m
