#!/usr/bin/env python3
"""Apply each of a fixed list of one-line mutations to a copy of the tree
and report whether the tier-1 tests notice it.

    python3 scripts/mutate.py

Each entry of ``MUTATIONS`` names a file, a text that occurs exactly once
in it (``tests/test_mutate.py`` checks that, so the list cannot rot
silently), the one-line text that replaces it, and why a test should
notice.  The tree is copied once to a temporary directory.  Per entry the
file is mutated there, the test files that name the mutated module run
first, and all of tier-1 runs only when those pass.  An entry is CAUGHT
when any test fails or errors other than those in ``NOT_COUNTED``, and
SURVIVED otherwise.  ``NOT_COUNTED`` holds the two documented 11n131
failures, which fail on the unmutated tree too, and the check of this
list itself, which fails whenever a mutation removes its old text.  The
exit status is 1 when an entry survived.

This is not part of tier-1: a full tier-1 run takes about 35 s.  A change
to a kernel or a verdict adds its own entries, and a survivor is either
killed by a new test or written down as open.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_DIRS = ("tests", "perfbench")
NOT_COUNTED = frozenset({
    "tests/test_acceptance.py::test_obstruction_table_verdicts[11n131]",
    "tests/test_acceptance.py::test_theorem_counts_published",
    "tests/test_mutate.py::test_every_mutation_applies_exactly_once",
})
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    ".hypothesis", ".bench_tmp*", "*.egg-info")


class Mutation(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


EXACTALG = "src/gamma4/exactalg.py"
KNOTIO = "src/gamma4/knotio.py"
MUTATIONS = (
    Mutation(EXACTALG,
             "a[i] = [(pivot * x - f * y) // level[i]",
             "a[i] = [(pivot * x - f * y) // prev",
             "_pivot: a row that sat out a pivot must be divided by its own "
             "level, not by the last pivot"),
    Mutation(EXACTALG, "sign = -sign", "sign = +sign",
             "_eliminate: an odd number of row swaps negates det"),
    Mutation(EXACTALG, "return sign * prev", "return prev",
             "_eliminate: det is the last pivot times the swap sign"),
    Mutation(EXACTALG, "f = a[i][k]", "f = top[i]",
             "_pivot: the fused update scales f with the row's own stale "
             "entry, not the caught-up pivot row's"),
    Mutation(EXACTALG, "if level[k] != prev:", "if False:",
             "_pivot: a pivot row left at an older level must be caught up "
             "before it eliminates"),
    Mutation("src/gamma4/planar.py",
             "g = [row[1:] for row in gfull[1:]]",
             "g = [row[1:] for row in gfull[1:]]; g = [[exactalg.det(g) if "
             "i == j == len(g) - 1 else int(i == j) for j in range(len(g))] "
             "for i in range(len(g))]",
             "goeritz: diag(1, ..., 1, det G) keeps det and the signature's "
             "parity but makes H1 cyclic; the Fox H1 of a corpus diagram "
             "with H1 = Z7 + Z49 differs"),
    Mutation("src/gamma4/planar.py",
             "types.append(2 if parallel == TYPE_II_IS_PARALLEL else 1)",
             "types.append(2 if parallel == TYPE_II_IS_PARALLEL or w1 == w2 "
             "else 1)",
             "checkerboard: a nugatory crossing is type I, so it adds nothing "
             "to mu; counted as type II it shifts the signature of a kinked "
             "diagram by its eta"),
    Mutation("src/gamma4/medial.py",
             "region_corners.setdefault(u, base + (1 - a) % 4)",
             "region_corners.setdefault(u, base + (3 - a) % 4)",
             "medial_pd: region u's corner is at slot (1 - a) % 4; the one "
             "at (3 - a) % 4 lies in region v, so rooting there colors the "
             "other class white"),
    Mutation("src/gamma4/medial.py", "if eta == 1:", "if eta == -1:",
             "medial_pd: eta = +1 puts the BEFORE-BEFORE strand underneath; "
             "swapping the strands mirrors the diagram, which negates G'"),
    Mutation(EXACTALG,
             "a = [row + b for row, b in zip(integer_copy(m), "
             "integer_copy(rhs))]",
             "a = [row + unit_row(n, i) for i, row in "
             "enumerate(integer_copy(m))]",
             "inverse: the right-hand side, not the identity, goes beside A"),
    Mutation("src/gamma4/linkform.py",
             "units = [[int(i == k) for k in keep] for i in range(len(g))]",
             "units = [[int(i == k) for k in range(len(keep))] "
             "for i in range(len(g))]",
             "linking_form: the unit columns stand at the positions of the "
             "generators of order > 1, which the SNF puts last, not first"),
    Mutation("src/gamma4/linkform.py", "disc = (a * c - b * b) % p",
             "disc = (a * c + b * b) % p",
             "klein_discriminant: the discriminant of the form on Zp + Zp "
             "is ac - b^2"),
    Mutation(KNOTIO,
             'problems.append(f"ladder violation: {lo_name} {lo} > {hi_name} '
             '{hi}")',
             "pass",
             "KnotRecord: a record off the ladder g4 <= c4 <= us <= u is "
             "rejected when it is built, which is why clasp_number needs no "
             "check of its own"),
    Mutation(KNOTIO, "if len(entered) < edges:", "if False:",
             "over_directions: a code whose strands enter some label twice "
             "has no orientation and is rejected"),
    Mutation(KNOTIO, " and (edges > 2 or b != a):", ":",
             "over_directions: for n = 1 both readings pass the successor "
             "test, and the over-strand enters at the label the under-strand "
             "does not"),
    Mutation(KNOTIO,
             'row = [cell.strip() for cell in row] + [""] * (width - len(row))',
             'row = row + [""] * (width - len(row))',
             "_load_rows: the row reader is the one place a cell's padding "
             "is stripped"),
)


def failures(tree, tests):
    """Ids of the tests under ``tests`` (all of tier-1 when empty) that
    fail or error in ``tree``; a run that ends without a test result gives
    its exit status instead."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE",
         "-p", "no:cacheprovider", "--continue-on-collection-errors", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if run.returncode not in (0, 1) and not failed:
        failed.add(f"pytest exit status {run.returncode}")
    return failed


def affected_tests(tree, file):
    """The test files that name the mutated module."""
    stem = Path(file).stem
    return [str(path.relative_to(tree)) for folder in TEST_DIRS
            for path in sorted((tree / folder).glob("test_*.py"))
            if stem in path.read_text()]


def main():
    survived = 0
    with tempfile.TemporaryDirectory(prefix="gamma4-mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=NOT_COPIED)
        for index, mutation in enumerate(MUTATIONS):
            path = tree / mutation.file
            original = path.read_text()
            path.write_text(original.replace(mutation.old, mutation.new))
            try:
                first = affected_tests(tree, mutation.file)
                failed = failures(tree, first) - NOT_COUNTED
                if not failed and first:
                    failed = failures(tree, []) - NOT_COUNTED
            finally:
                path.write_text(original)
            verdict = "CAUGHT" if failed else "SURVIVED"
            survived += not failed
            detail = (f" ({len(failed)} failing, e.g. {min(failed)})"
                      if failed else "")
            print(f"{verdict:8} {index} {mutation.file}: "
                  f"{mutation.reason}{detail}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
