"""Tracing of ``z2z4`` from outside: wrap public functions, record spans.

``install`` replaces each function in ``TARGETS`` by a wrapper in every
``z2z4`` module namespace that holds it, so calls made through
``from .x import f`` are seen too.  Nothing under ``src/`` changes.  A
target missing from the program (renamed or removed) is skipped and reads
zero calls; so are the oracle mode counters when the program lacks
``linimage.ORACLE_ENUM_LIMIT``.  Both are listed in ``missing_targets``.

Each wrapped call is a span: an id, its parent span, the layer it belongs
to, start and end in nanoseconds, and its self time (its duration minus
the duration of its child spans).  All spans of a run share one run id.
Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (layer, module, attribute): one layer may gather several functions.
TARGETS = [
    ("polyring.gcd2", "z2z4.polyring", "gcd2"),
    ("polyring.bezout_lift", "z2z4.polyring", "bezout_lift"),
    ("cyclofield.tensor_square", "z2z4.cyclofield", "tensor_square"),
    ("cyclofield.factor_xn_minus_1_z4", "z2z4.cyclofield", "factor_xn_minus_1_z4"),
    ("cycliccode.realize", "z2z4.cycliccode", "realize"),
    ("cycliccode.code_type", "z2z4.cycliccode", "code_type"),
    ("cycliccode.order_two_generators", "z2z4.cycliccode", "order_two_generators"),
    ("cycliccode.three_generator_form", "z2z4.cycliccode", "three_generator_form"),
    ("cycliccode.violations", "z2z4.cycliccode", "violations"),
    ("cycliccode.enumerate_all_cyclic", "z2z4.cycliccode", "enumerate_all_cyclic"),
    ("additive.span", "z2z4.additive", "Code.from_matrix"),
    ("additive.span", "z2z4.additive", "Code.from_vectors_span"),
    ("additive.span", "z2z4.cycliccode", "span_words"),
    ("additive.gray_is_linear_oracle", "z2z4.additive", "gray_is_linear_oracle"),
    ("additive.gray_image_is_linear", "z2z4.additive", "gray_image_is_linear"),
    ("additive.Code.is_cyclic", "z2z4.additive", "Code.is_cyclic"),
    ("additive.standard_form", "z2z4.additive", "standard_form"),
    ("linimage.z4_gray_linear_oracle", "z2z4.linimage", "z4_gray_linear_oracle"),
    ("linimage.wolfmann_linear", "z2z4.linimage", "wolfmann_linear"),
    ("linimage.ext_psi_image", "z2z4.linimage", "ext_psi_image"),
    ("linimage.is_double_cyclic", "z2z4.linimage", "is_double_cyclic"),
    ("linimage.double_cyclic_span", "z2z4.linimage", "double_cyclic_span"),
    ("linimage.gray_linear_criterion", "z2z4.linimage", "gray_linear_criterion"),
    ("linimage.search_by_type", "z2z4.linimage", "search_by_type"),
    ("linimage.psi_image_generators", "z2z4.linimage", "psi_image_generators"),
    ("linimage.solve_cyclic_z4_lexmin", "z2z4.linimage", "solve_cyclic_z4_lexmin"),
    ("reproduce.check_candidate", "z2z4.reproduce", "check_candidate"),
    ("reproduce.check_z4", "z2z4.reproduce", "check_z4"),
]
LAYERS = list(dict.fromkeys(layer for layer, _, _ in TARGETS))
ROOT = "bench.op"
SPAN_GROUP = "additive.span"


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, run_id: str, valid_counts: dict[tuple[int, int], int]):
        self.run_id = run_id
        self.valid_counts = valid_counts
        self.names = [ROOT] + LAYERS
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = {
            "additive.span.words": 0,
            "linimage.z4_gray_linear_oracle.enumerate_calls": 0,
            "linimage.z4_gray_linear_oracle.algebraic_calls": 0,
            "cycliccode.candidates.yielded": 0,
            "cycliccode.candidates.skipped": 0,
        }
        # one row per span: id, parent id, layer index, start, end, self time
        self.spans = [array("q") for _ in range(6)]
        self._stack: list[list[int]] = []  # [id, layer, start, child time]
        self._next_id = 1
        self._group_depth = 0
        self.enum_limit = None  # set by install() from the program

    # -- spans ----------------------------------------------------------
    def enter(self, idx: int) -> None:
        self._stack.append([self._next_id, idx, time.perf_counter_ns(), 0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter_ns()
        sid, idx, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        own = dur - child
        self.self_ns[idx] += own
        for col, val in zip(self.spans, (sid, parent[0] if parent else 0, idx, start, end, own)):
            col.append(val)

    def op(self, fn, *args):
        """Root span around one call the workload makes."""
        self.calls[0] += 1
        self.enter(0)
        try:
            return fn(*args)
        finally:
            self.exit()

    # -- wrappers -------------------------------------------------------
    def wrap(self, layer: str, attr: str, func):
        idx = self.index[layer]
        if attr == "enumerate_all_cyclic":
            return self._wrap_generator(idx, func)
        count_words = layer == SPAN_GROUP
        count_mode = attr == "z4_gray_linear_oracle"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.calls[idx] += 1
            if count_mode:
                self._oracle_mode(args, kwargs)
            self._group_depth += count_words
            self.enter(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
                self._group_depth -= count_words
            # only the outermost span-engine call counts its words
            if count_words and self._group_depth == 0:
                self.counters["additive.span.words"] += len(result)
            return result

        return wrapper

    def _oracle_mode(self, args, kwargs) -> None:
        h, g = args[1], args[2]
        mode = args[4] if len(args) > 4 else kwargs.get("mode", "auto")
        if mode == "auto":
            if self.enum_limit is None:  # the program has no size rule to mirror
                return
            dg = int(g.degree) if not g.is_zero else 0
            size = 1 << (2 * dg + int(h.degree))
            mode = "enumerate" if size <= self.enum_limit else "algebraic"
        key = f"linimage.z4_gray_linear_oracle.{mode}_calls"
        if key in self.counters:
            self.counters[key] += 1

    def _wrap_generator(self, idx: int, func):
        tracer = self

        class TracedIterator:
            """Times each next() as a span; counts tuples yielded and skipped."""

            def __init__(self, gen, cell):
                self.gen, self.cell, self.yielded = gen, cell, 0

            def __iter__(self):
                return self

            def __next__(self):
                tracer.enter(idx)
                try:
                    item = next(self.gen)
                except StopIteration:
                    valid = tracer.valid_counts.get(self.cell)
                    if valid is not None:
                        tracer.counters["cycliccode.candidates.skipped"] += valid - self.yielded
                    raise
                finally:
                    tracer.exit()
                self.yielded += 1
                tracer.counters["cycliccode.candidates.yielded"] += 1
                return item

        @functools.wraps(func)
        def wrapper(alpha, beta, *args, **kwargs):
            tracer.calls[idx] += 1
            return TracedIterator(func(alpha, beta, *args, **kwargs), (alpha, beta))

        return wrapper

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            i = self.index[layer]
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self.self_ns[i] / 1e9
        words = self.counters["additive.span.words"]
        span_s = out[f"{SPAN_GROUP}.self_s"]
        out[f"{SPAN_GROUP}.words"] = words
        out[f"{SPAN_GROUP}.words_per_s"] = words / span_s if span_s > 0 else 0.0
        for mode in ("enumerate", "algebraic"):
            key = f"linimage.z4_gray_linear_oracle.{mode}_calls"
            out[key] = self.counters[key]
        checks = out["cycliccode.violations.calls"]
        yielded = self.counters["cycliccode.candidates.yielded"]
        out["cycliccode.candidates.accept_ratio"] = yielded / checks if checks else 0.0
        out["cycliccode.candidates.skipped"] = self.counters["cycliccode.candidates.skipped"]
        return out

    def write(self, path) -> int:
        """Write every span as one JSON line (gzip); return the span count."""
        count = len(self.spans[0])
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "layers": self.names,
                                 "columns": ["id", "parent", "layer", "start_ns", "end_ns", "self_ns"]}))
            fh.write("\n")
            cols = self.spans
            for i in range(count):
                fh.write("[%d,%d,%d,%d,%d,%d]\n" % tuple(c[i] for c in cols))
        return count


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in place; return the targets the program lacks."""
    missing = []
    for _, modname, _ in TARGETS:
        try:
            importlib.import_module(modname)
        except ImportError:
            pass
    # the oracle's size rule: codes up to this many words are enumerated
    tracer.enum_limit = getattr(sys.modules.get("z2z4.linimage"), "ORACLE_ENUM_LIMIT", None)
    if tracer.enum_limit is None:
        missing.append("z2z4.linimage.ORACLE_ENUM_LIMIT")
    z2z4_modules = [m for name, m in list(sys.modules.items())
                    if m is not None and (name == "z2z4" or name.startswith("z2z4."))]
    for layer, modname, attr in TARGETS:
        module = sys.modules.get(modname)
        owner, name = _resolve(module, attr) if module is not None else (None, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{modname}.{attr}")
            continue
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(tracer.wrap(layer, name, raw.__func__)))
            continue
        wrapper = tracer.wrap(layer, name, raw)
        if owner is not module:  # a method: the class object is shared
            setattr(owner, name, wrapper)
            continue
        for mod in z2z4_modules:
            for key, val in list(vars(mod).items()):
                if val is raw:
                    setattr(mod, key, wrapper)
    return missing
