"""In-memory span tracer that wraps wielandt_lab's public functions.

Functions are wrapped on every module attribute that binds them, so a call
through ``from .matcore import herm_eig`` is traced as well as one through
``matcore.herm_eig``.  Each span is ``(name, start_ns, end_ns, parent)``; self
time is a span's duration minus the durations of its direct children.  The
tracer only sees the calling process, so traced runs use one worker.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

import numpy as np

ROOT = "cli"

# (module, attribute, span name); a callable span name picks the name per call.
_FUNCTIONS = (
    ("wielandt_lab.cli", "main", ROOT),
    ("wielandt_lab.matcore", "herm_eig",
     lambda args, kwargs: "matcore.herm_eig.closed_form"
     if np.shape(args[0])[-1] <= 2 else "matcore.herm_eig.jacobi"),
    ("wielandt_lab.matcore", "eig_pow_pd", "matcore.eig_pow"),
    ("wielandt_lab.matcore", "eig_pow_psd", "matcore.eig_pow"),
    ("wielandt_lab.matcore", "op_norm", "matcore.op_norm"),
    ("wielandt_lab.sampling", "mix_seed", "sampling.mix_seed"),
    ("wielandt_lab.sampling", "rng_from", "sampling.rng_from"),
    ("wielandt_lab.sampling", "complex_gaussian", "sampling.complex_gaussian"),
    ("wielandt_lab.sampling", "qr_positive", "sampling.qr_positive"),
    ("wielandt_lab.instances", "gen_instance", "instances.gen_instance"),
    ("wielandt_lab.instances", "instance_to_json", "instances.instance_to_json"),
    ("wielandt_lab.maps", "random_unital_cp", "maps.random_unital_cp"),
    ("wielandt_lab.search", "objective_value", "search.objective"),
    ("wielandt_lab.bounds", "compressed_products", "bounds.compressed_products"),
    ("wielandt_lab.bounds", "run_instance_checks", "bounds.run_instance_checks"),
    ("wielandt_lab.bounds", "run_lemma_trial", "bounds.run_lemma_trial"),
)
# Map classes whose own ``apply`` is traced as "maps.apply".
_APPLY_CLASSES = ("StinespringMap", "IdentityMap")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                spans[idx] = (label, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every target on every wielandt_lab module that binds it."""
        modules = [m for key, m in sys.modules.items() if key.startswith("wielandt_lab")]
        for module_name, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        maps = sys.modules["wielandt_lab.maps"]
        for cls_name in _APPLY_CLASSES:
            cls = getattr(maps, cls_name)
            original = cls.__dict__["apply"]
            self._patches.append((cls, "apply", original))
            setattr(cls, "apply", self._wrap(original, "maps.apply"))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def drain(self) -> dict:
        """Per span name ``[calls, total_ns, self_ns]`` for the spans recorded
        since the last drain; clears them."""
        self_ns = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        totals: dict = {}
        for (name, start, end, _), own in zip(self.spans, self_ns):
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        self.spans.clear()
        return totals
