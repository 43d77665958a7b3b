"""Per-layer spans and counters for one benchmark job, from outside the package.

The package is not instrumented.  Tracer.install() wraps a fixed list of
coarse public entry points per layer (the package modules) and rebinds
each wrapper in every zigzaghh module namespace that holds the original,
so calls made through `from .x import f` copies are seen too.  Hot
helpers (make_path, loop_count, ...) and helpers the roadmap plans to
delete are deliberately not wrapped.  An entry point that no longer
exists is reported by name as missing, never silently counted as zero.

The timed end-to-end runs never import this module.  As a script it is
the shim of a traced cold job:

    python3 hhbench/tracer.py OUT.json <zigzaghh cli arguments>

runs zigzaghh.cli.main on the arguments, writes the job's raw layer
counters to OUT.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

from stats import Span, layer_totals

# layer -> "module:qualname" entry points; methods are patched on their class
ENTRY_POINTS = {
    "cli": ["zigzaghh.cli:main"],
    "quiver": ["zigzaghh.quiver:catalog", "zigzaghh.quiver:parse_label",
               "zigzaghh.quiver:load_graph", "zigzaghh.quiver:orient_bipartite",
               "zigzaghh.quiver:orient_by_edge_order",
               "zigzaghh.quiver:DoubledQuiver.__init__",
               "zigzaghh.quiver:GinzburgQuiver.__init__"],
    "pathalg": ["zigzaghh.pathalg:all_words", "zigzaghh.pathalg:words_by_endpoints",
                "zigzaghh.pathalg:all_cycles", "zigzaghh.pathalg:basis_of_bidegree",
                "zigzaghh.pathalg:paths_between"],
    "preproj": ["zigzaghh.preproj:trace_piece", "zigzaghh.preproj:lambda_piece",
                "zigzaghh.preproj:koszul_dual_zigzag_piece",
                "zigzaghh.preproj:trace_piece_general",
                "zigzaghh.preproj:cycle_class_in_trace_is_zero"],
    "ginzburg": ["zigzaghh.ginzburg:hh2_dim", "zigzaghh.ginzburg:hh2_complex",
                 "zigzaghh.ginzburg:h0_dim"],
    "zigzag": ["zigzaghh.zigzag:build_zigzag", "zigzaghh.zigzag:hochschild_dim",
               "zigzaghh.zigzag:cochain_basis", "zigzaghh.zigzag:delta_columns",
               "zigzaghh.zigzag:is_cocycle", "zigzaghh.zigzag:is_coboundary"],
    "ainfty": ["zigzaghh.ainfty:check_stasheff", "zigzaghh.ainfty:extended_d4_m4",
               "zigzaghh.ainfty:class_of"],
    "exactla": ["zigzaghh.exactla:echelonize", "zigzaghh.exactla:in_span",
                "zigzaghh.exactla:span_info", "zigzaghh.exactla:ExactMatrix.rank",
                "zigzaghh.exactla:ExactMatrix.kernel_basis",
                "zigzaghh.exactla:ExactMatrix.solve",
                "zigzaghh.exactla:ExactMatrix.image_profile"],
}

ECHELONIZE = "zigzaghh.exactla:echelonize"
COCHAIN_BASIS = "zigzaghh.zigzag:cochain_basis"


def _field_char(args):
    """Characteristic of the first FieldSpec argument, or of self.field."""
    for a in args:
        c = getattr(a, "characteristic", None)
        if c is None:
            c = getattr(getattr(a, "field", None), "characteristic", None)
        if isinstance(c, int):
            return c
    return None


def _size(result) -> int:
    if isinstance(result, dict):
        return sum(len(v) for v in result.values())
    return len(result)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[tuple[int, str]] = []
        self.next_sid = 0
        self.counts: dict[str, float] = {}
        self.missing: dict[str, list[str]] = {}
        # returned objects by entry point, kept alive so ids stay unique
        self.returned: dict[str, dict[int, object]] = {}

    def bump(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self):
        importlib.import_module("zigzaghh.cli")   # loads every layer module
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zigzaghh" or name.startswith("zigzaghh."))]
        for layer, names in ENTRY_POINTS.items():
            for name in names:
                modname, _, qual = name.partition(":")
                owner, _, attr = qual.rpartition(".")
                holder = sys.modules.get(modname)
                if holder is not None and owner:
                    holder = getattr(holder, owner, None)
                fn = getattr(holder, attr, None) if holder is not None else None
                if fn is None:
                    self.missing.setdefault(layer, []).append(name)
                    continue
                wrapped = self._wrap(layer, name, fn)
                if owner:
                    setattr(holder, attr, wrapped)
                    continue
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        sig = inspect.signature(fn) if name == ECHELONIZE else None
        if sig is not None and not {"rows", "ncols"} <= set(sig.parameters):
            raise RuntimeError("tracer: %s lost its rows/ncols parameters" % name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                rows = bound.arguments["rows"] = list(bound.arguments["rows"])
                tracer.bump("exactla.rows_in", len(rows))
                tracer.bump("exactla.nnz_in", sum(len(r) for r in rows))
                tracer.bump("exactla.cols", bound.arguments["ncols"])
                args, kwargs = bound.args, bound.kwargs
            char = _field_char(args) if layer == "exactla" else None
            parent = tracer.stack[-1] if tracer.stack else None
            sid = tracer.next_sid
            tracer.next_sid += 1
            tracer.stack.append((sid, layer))
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                tracer.stack.pop()
            outer = parent is None or parent[1] != layer
            tracer._count_result(layer, name, result, char, outer)
            t3 = perf_counter()
            tracer.spans.append(Span(sid, parent[0] if parent else None, layer,
                                     t1, t2, (t1 - t0) + (t3 - t2), char))
            return result

        return wrapper

    def _count_result(self, layer, name, result, char, outer):
        if name == ECHELONIZE:
            self.bump("exactla.rank", result.rank)
            if char == 0:
                bits = max((abs(v).bit_length() for r in result.rows for v in r.values()),
                           default=0)
                self.counts["exactla.max_coeff_bits"] = max(
                    self.counts.get("exactla.max_coeff_bits", 0), bits)
        elif layer == "pathalg":
            seen = self.returned.setdefault(name, {})
            self.bump("pathalg.lookups")
            if id(result) in seen:
                self.bump("pathalg.hits")
            else:
                seen[id(result)] = result
            if outer:
                self.bump("pathalg.paths_out", _size(result))
        elif name == COCHAIN_BASIS:
            seen = self.returned.setdefault(name, {})
            if id(result) not in seen:
                seen[id(result)] = result
                self.bump("zigzag.cochain_basis_size", len(result))

    def report(self) -> dict:
        """Raw counters of this process: layer self times, calls, counts."""
        raw = dict(self.counts)
        raw.update(layer_totals(self.spans))
        absent = [layer for layer, names in ENTRY_POINTS.items()
                  if len(self.missing.get(layer, [])) == len(names)]
        return {"raw": raw, "missing": self.missing, "absent": absent}


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("zigzaghh.cli")
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
