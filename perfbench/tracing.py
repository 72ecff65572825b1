"""Spans around calls into gamma4's layers, recorded from the benchmark.

``Tracer.installed()`` replaces each traced function by a recording
wrapper in every namespace that binds it: the defining module, the other
gamma4 modules that imported it by name (``pipeline`` imports its
``linkform`` functions that way) and the benchmark's own modules.  Spans
stay in memory; ``layer_totals`` folds them into self time and call counts
per function when the run ends.
"""

import sys
from contextlib import contextmanager
from functools import wraps
from importlib import import_module
from pathlib import Path
from time import perf_counter

# The public functions of each module that the per-layer metrics name.
# Small helpers they call (xgcd, copy_matrix, ...) count as their callers'
# self time, which keeps the wrappers off the innermost loops.
LAYERS = {
    "knotio": ("load_dataset", "parse_pd"),
    "planar": ("faces", "checkerboard", "goeritz", "signature_via_goeritz"),
    "exactalg": ("det", "smith_normal_form", "inverse", "mat_mul", "signature"),
    "linkform": ("homology", "linking_form", "mobius_obstruction_cyclic",
                 "mobius_obstruction_p2q", "definiteness_consistency",
                 "generator_values"),
    "bounds": ("classify",),
    "pipeline": ("analyze_diagram", "resolve_sign_convention",
                 "run_classification", "report_json"),
    "medial": ("medial_pd",),
}

BENCH_DIR = str(Path(__file__).resolve().parent)


class Tracer:
    """One span per call: [name, start, end, parent index, phase]."""

    def __init__(self):
        self.spans = []
        self.phase = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    @contextmanager
    def installed(self):
        # import every traced module first: one imported while wrappers are
        # in place would bind them by name and keep them after restoring
        owners = {module: import_module(f"gamma4.{module}") for module in LAYERS}
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "gamma4" or name.startswith("gamma4.")
                      or str(getattr(m, "__file__", "")).startswith(BENCH_DIR)]
        replaced = []
        for module, names in LAYERS.items():
            for fn_name in names:
                original = getattr(owners[module], fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            replaced.append((ns, attr, original))
        try:
            yield self
        finally:
            for ns, attr, original in replaced:
                setattr(ns, attr, original)


def layer_totals(spans):
    """{(phase, name): [self seconds, calls]}.  Self time is a span's
    duration minus the time its direct children cover; calls nest without
    overlap in one thread, so the children's durations simply add."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _phase in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _parent, phase) in enumerate(spans):
        entry = totals.setdefault((phase, name), [0.0, 0])
        entry[0] += end - start - child_time[i]
        entry[1] += 1
    return totals
