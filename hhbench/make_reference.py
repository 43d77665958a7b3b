"""Regenerate hhbench/reference.json, cross-validating every stored value.

    PYTHONPATH=src python3 hhbench/make_reference.py

Computes each reference answer the benchmark checks and refuses to write
unless the values hold up independently of any single pipeline:

* ginzburg equals trace on every stored HH^{2,q} cell, and zigzag agrees
  on the tree cells of the crosscheck grid;
* ADE graphs in good characteristic have HH^{2,q} = 0;
* E8 over F5 (a bad characteristic) and every extended graph are nonzero
  somewhere in the searched range;
* the explicit extended-D4 m_4 is a cocycle and not a coboundary, and
  satisfies the Stasheff identities.

Takes about a minute on a 2-core x86 machine.
"""

from __future__ import annotations

import json
import os
import re
import sys

from zigzaghh import ainfty, ginzburg, preproj, zigzag
from zigzaghh.exactla import FieldSpec
from zigzaghh.quiver import bad_characteristics, orient_bipartite, parse_label

from workloads import CATALOG, FIELDS, GRID_QS

# (graph, char) -> Adams degrees stored, beyond the crosscheck grid
DEEP_CELLS = {("E~8", 0): range(1, 11), ("D~8", 3): range(1, 11), ("E8", 5): range(1, 11),
              ("E~6", 2): [10], ("D~6", 0): [10], ("D~4", 0): [7, 8]}
PREPROJ = {("E~8", 0): 10, ("D~4", 0): 8}
AINFTY_ARITY = 7


def dumps(ref: dict) -> str:
    """Sorted JSON with every innermost object or list on one line."""
    text = json.dumps(ref, sort_keys=True, indent=1)
    return re.sub(r"[{\[][^{}\[\]]*[}\]]", lambda m: " ".join(m.group(0).split()), text) + "\n"


def hh2_cell(label: str, char: int, q: int, with_zigzag: bool) -> int:
    g = parse_label(label)
    quiv = orient_bipartite(g)
    fld = FieldSpec(char)
    dims = {"ginzburg": ginzburg.hh2_dim(quiv, q, fld).dimension,
            "trace": preproj.trace_piece(quiv, q + 2, fld, want_witnesses=False).dimension}
    if with_zigzag:
        dims["zigzag"] = zigzag.hochschild_dim(zigzag.build_zigzag(g, fld), 2, q).dimension
    if len(set(dims.values())) != 1:
        raise SystemExit("pipelines disagree on %s char %d q %d: %s" % (label, char, q, dims))
    return dims["ginzburg"]


def main() -> int:
    hh2: dict[str, dict[str, dict[str, int]]] = {}
    cells = [(g, c, q, True) for g in CATALOG for c in FIELDS for q in GRID_QS]
    cells += [(g, c, q, (g, c) == ("D~4", 0)) for (g, c), qs in DEEP_CELLS.items() for q in qs]
    for g, c, q, with_zigzag in cells:
        hh2.setdefault(g, {}).setdefault(str(c), {})[str(q)] = hh2_cell(g, c, q, with_zigzag)
        print("hh2", g, c, q, hh2[g][str(c)][str(q)], flush=True)

    for g, by_char in hh2.items():
        for c, table in by_char.items():
            nonzero = any(table.values())
            extended = "~" in g
            good_ade = not extended and int(c) not in bad_characteristics(g)
            if good_ade and nonzero:
                raise SystemExit("ADE graph %s in good char %s has nonzero HH^2: %s" % (g, c, table))
            if extended and not nonzero:
                raise SystemExit("extended graph %s char %s shows no class: %s" % (g, c, table))
    if not any(hh2["E8"]["5"].values()):
        raise SystemExit("E8 over F5 shows no class up to q=10")

    pre: dict[str, dict[str, dict]] = {}
    for (g, c), top in PREPROJ.items():
        quiv = orient_bipartite(parse_label(g))
        fld = FieldSpec(c)
        lam = [preproj.lambda_piece(quiv, n, fld).dimension for n in range(top + 1)]
        tr = [preproj.trace_piece(quiv, n, fld, want_witnesses=False).dimension
              for n in range(top + 1)]
        for n in range(3, top + 1):
            if tr[n] != hh2[g][str(c)].get(str(n - 2), tr[n]):
                raise SystemExit("trace piece %s degree %d disagrees with HH^{2,%d}" % (g, n, n - 2))
        finite = any(lam[n:n + 3] == [0, 0, 0] for n in range(top - 1))
        pre.setdefault(g, {})[str(c)] = {"lambda": lam, "trace": tr, "finite": finite}

    cand = ainfty.extended_d4_m4(FieldSpec(0))
    cochain = ainfty.class_of(cand, 4)
    cocycle, coboundary = zigzag.is_cocycle(cochain), zigzag.is_coboundary(cochain)
    violations = len(ainfty.check_stasheff(cand, AINFTY_ARITY).violations)
    if not cocycle or coboundary or violations:
        raise SystemExit("extended-D4 m4: cocycle=%s coboundary=%s violations=%d"
                         % (cocycle, coboundary, violations))
    ref = {"hh2": hh2, "preproj": pre,
           "ainfty": {"cocycle": cocycle, "coboundary": coboundary,
                      "dim": [0 if coboundary else 1], "violations": violations}}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(ref))
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
