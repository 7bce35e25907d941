"""Spans around coarsek's public functions, installed only for traced ops.

The wrappers are set at run time in every coarsek module namespace that
holds the original function (``pages`` imports ``smith_normal_form`` by
name, for example); ``src/`` is never edited.  Each span records its name,
start, end, parent span and op id in flat arrays that stay in memory until
``save`` writes them out.  Anything costly to observe (entry bits of SNF
transforms, cell comparisons, nerve counts) is computed after the op's
clock has stopped.
"""

from __future__ import annotations

import sys
import tracemalloc
from array import array
from itertools import combinations
from math import comb
from time import perf_counter

TARGETS = {
    "abelian": ("smith_normal_form", "cokernel"),
    "pages": ("subquotient", "turn_page", "run_to_infinity"),
    "assembly": ("build_mv_e1", "build_ideal_chain_e1", "assemble_target"),
    "coarse": ("intersect", "roe_k_theory", "check_excision"),
}
JSONIO_SUFFIXES = ("_from_json", "_to_json", "_to_table")

PER_LAYER = {
    "assembly.e1_s": "s",
    "assembly.index_sets": "count",
    "assembly.nonzero_summand_frac": "ratio",
    "coarse.rule_calls": "count",
    "coarse.rule_s": "s",
    "jsonio.emit_s": "s",
    "jsonio.out_bytes": "bytes",
    "jsonio.parse_s": "s",
    "abelian.snf_calls": "count",
    "abelian.snf_s": "s",
    "abelian.snf_max_bits": "bits",
    "abelian.snf_max_dim": "count",
    "abelian.snf_repeat_frac": "ratio",
    "abelian.snf_diag_only_frac": "ratio",
    "pages.turn_s": "s",
    "pages.turns": "count",
    "pages.subquotient_calls": "count",
    "pages.cells_unchanged_frac": "ratio",
    "coarse.excision_s": "s",
    "coarse.excision_points_per_s": "1/s",
    "coarse.excision_peak_alloc_mb": "MB",
    "cli.self_s": "s",
    "trace.slowdown": "ratio",
    "bench.repeat_frac": "ratio",
}


def _bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for x in m.entries), default=0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._op_first_span = 0
        self._snf: list = []  # (matrix, SnfResult)
        self._turns: list = []  # (page in, page out)
        self._mv_inputs: list = []
        self._excision: list = []  # (points checked, peak traced bytes)
        self.totals: dict[str, float] = {}
        self.maxima = {"abelian.snf_max_bits": 0, "abelian.snf_max_dim": 0, "coarse.excision_peak_alloc_mb": 0.0}
        self.ops = 0
        self._modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("coarsek.")]
        self._wrappers = {}  # original function -> wrapper
        for layer, names in TARGETS.items():
            mod = sys.modules[f"coarsek.{layer}"]
            for fname in names:
                self._add(mod, fname)
        jsonio = sys.modules["coarsek.jsonio"]
        for fname in sorted(vars(jsonio)):
            if fname.endswith(JSONIO_SUFFIXES) or fname == "dumps":
                self._add(jsonio, fname)
        self._saved: list = []

    # -- wrappers --------------------------------------------------------

    def _add(self, mod, fname: str) -> None:
        fn = getattr(mod, fname)
        span_name = f"{mod.__name__.rsplit('.', 1)[1]}.{fname}"
        observe = {
            "abelian.smith_normal_form": lambda a, r: self._snf.append((a[0], r)),
            "pages.turn_page": lambda a, r: self._turns.append((a[0], r)),
            "assembly.build_mv_e1": lambda a, r: self._mv_inputs.append(a[0]),
        }.get(span_name)
        wrapper = self._span(span_name, fn, observe)
        if span_name == "coarse.check_excision":
            wrapper = self._traced_alloc(wrapper)
        self._wrappers[fn] = wrapper

    def _span(self, span_name: str, fn, observe):
        self.names.append(span_name)
        nid = len(self.names) - 1

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self._op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _traced_alloc(self, wrapper):
        def excision(*args, **kwargs):
            tracemalloc.start()
            try:
                result = wrapper(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self._excision.append((result.points_checked, peak))
            return result

        return excision

    def install(self) -> None:
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    # -- per-op accounting -----------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_first_span = len(self.start)
        self._stack = [-1]

    def end_op(self, wall: float, out_bytes: int) -> None:
        """Fold the op's spans and deferred observations into the run totals.

        Call after ``uninstall``: counting nonzero summands re-evaluates the
        input's K-data rule, which must not open spans of its own.
        """
        t = self.totals
        add = lambda key, v: t.__setitem__(key, t.get(key, 0) + v)  # noqa: E731
        names = self.names
        top_level = 0.0
        for i in range(self._op_first_span, len(self.start)):
            name = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            par = self.parent[i]
            layer = name.split(".", 1)[0]
            outer = par < 0 or not names[self.name[par]].startswith(layer + ".")
            if par < 0:
                top_level += dur
            if name in ("assembly.build_mv_e1", "assembly.build_ideal_chain_e1"):
                add("assembly.e1_s", dur)
            elif name in ("coarse.intersect", "coarse.roe_k_theory"):
                add("coarse.rule_calls", 1)
                add("coarse.rule_s", dur)
            elif name == "coarse.check_excision":
                add("coarse.excision_s", dur)
            elif name == "abelian.smith_normal_form":
                add("abelian.snf_calls", 1)
                add("abelian.snf_s", dur)
                if par >= 0 and names[self.name[par]] == "abelian.cokernel":
                    add("abelian.snf_diag_only", 1)
            elif name == "pages.turn_page":
                add("pages.turns", 1)
                add("pages.turn_s", dur)
            elif name == "pages.subquotient":
                add("pages.subquotient_calls", 1)
            elif layer == "jsonio" and outer:
                add("jsonio.parse_s" if name.endswith("_from_json") else "jsonio.emit_s", dur)
        add("cli.self_s", wall - top_level)
        add("jsonio.out_bytes", out_bytes)

        seen = set()
        for matrix, res in self._snf:
            key = (matrix.rows, matrix.cols, matrix.entries)
            add("abelian.snf_repeat", key in seen)
            seen.add(key)
            bits = _bits((res.U, res.V, res.U_inv, res.V_inv, res.D))
            self.maxima["abelian.snf_max_bits"] = max(self.maxima["abelian.snf_max_bits"], bits)
            self.maxima["abelian.snf_max_dim"] = max(self.maxima["abelian.snf_max_dim"], matrix.rows, matrix.cols)
        for before, after in self._turns:
            for key, cell in before.cells.items():
                add("pages.cells_recomputed", 1)
                add("pages.cells_unchanged", after.cells.get(key) == cell)
        for inp in self._mv_inputs:
            labels = sorted(inp.labels)
            for p in range(inp.cap + 1):
                add("assembly.index_sets", comb(len(labels), p + 1))
            nonzero = 0
            for p in range(inp.cap + 1):
                for j in combinations(labels, p + 1):
                    nonzero += any(not g.is_zero for g in inp.graded_for(j).values())
            add("assembly.nonzero_summands", nonzero)
        for points, peak in self._excision:
            add("coarse.excision_points", points)
            self.maxima["coarse.excision_peak_alloc_mb"] = max(
                self.maxima["coarse.excision_peak_alloc_mb"], peak / 2**20
            )
        self._snf.clear()
        self._turns.clear()
        self._mv_inputs.clear()
        self._excision.clear()
        self.ops += 1

    def metrics(self, slowdown: float, repeat_frac: float) -> dict[str, float]:
        """Per-op means of times and counts; ratios over the whole run (0 when empty)."""
        t, n = self.totals, max(self.ops, 1)
        ratio = lambda a, b: t.get(a, 0) / t[b] if t.get(b) else 0.0  # noqa: E731
        out = {
            key: t.get(key, 0) / n
            for key in (
                "assembly.e1_s", "assembly.index_sets", "coarse.rule_calls", "coarse.rule_s",
                "jsonio.emit_s", "jsonio.out_bytes", "jsonio.parse_s", "abelian.snf_calls",
                "abelian.snf_s", "pages.turn_s", "pages.turns", "pages.subquotient_calls",
                "coarse.excision_s", "cli.self_s",
            )
        }
        out.update(self.maxima)
        out["assembly.nonzero_summand_frac"] = ratio("assembly.nonzero_summands", "assembly.index_sets")
        out["abelian.snf_repeat_frac"] = ratio("abelian.snf_repeat", "abelian.snf_calls")
        out["abelian.snf_diag_only_frac"] = ratio("abelian.snf_diag_only", "abelian.snf_calls")
        out["pages.cells_unchanged_frac"] = ratio("pages.cells_unchanged", "pages.cells_recomputed")
        out["coarse.excision_points_per_s"] = ratio("coarse.excision_points", "coarse.excision_s")
        out["trace.slowdown"] = slowdown
        out["bench.repeat_frac"] = repeat_frac
        return {key: out[key] for key in PER_LAYER}

    def save(self, path: str, op_labels: list[str]) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            op_labels=np.array(op_labels),
        )
