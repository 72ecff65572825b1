"""No floating point anywhere in the package: every verdict is
number-theoretic, and one rounding error would silently flip it.  The
source is read as syntax, so a float can enter neither as a literal, nor
by true division ``/`` (or ``/=``), nor through ``float()`` or ``round()``.
Rationals stay at the Q/Z boundary: only ``linkform`` (which renders form
values) and ``pipeline`` (which renders them into the report) import
``fractions``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gamma4"


def float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            yield node.lineno, f"{node.func.id}()"


def test_the_package_source_has_no_floating_point():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{line}: {what}" for path in modules
             for line, what in float_sites(ast.parse(path.read_text()))]
    assert found == []


def fractions_imports(tree):
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(alias.name == "fractions" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "fractions")]


def test_only_linkform_and_pipeline_import_fractions():
    importers = sorted(path.name for path in SRC.glob("*.py")
                       if fractions_imports(ast.parse(path.read_text())))
    assert importers == ["linkform.py", "pipeline.py"]
    sample = "import os, fractions\nfrom fractions import Fraction\nimport math\n"
    assert fractions_imports(ast.parse(sample)) == [1, 2]


def test_the_guard_sees_each_kind_of_float():
    sample = "x = 1.5\ny = a / b\ny /= 2\nz = float(s) + round(t)\nw = 2j\n"
    assert sorted(float_sites(ast.parse(sample))) == [
        (1, "float literal 1.5"), (2, "true division"), (3, "true division"),
        (4, "float()"), (4, "round()"), (5, "float literal 2j")]
