"""Probes of the process-wide memos, for tests that check which tables a call builds.

Every table that outlives a call is a `functools.cache` on a module
function, so a call's new tables are the growth of those caches' sizes.
The caches are never cleared here: the tables other tests built stay.  A
test that needs nothing built yet renames its graph or quiver with
`fresh`, and since doubles are keyed by value, gets a new double.
"certified" counts the quivers given a record of certified Ginzburg cells,
not the cells recorded.  Labels and orientations are interned: a graph or
quiver they return is shared, so a test that needs its own builds it with
`Graph` or `Quiver`, or renames it with `fresh`.  `zigzag._c2_bases` keeps
the last graph's C^{2,q} bases only, so its size tells nothing and it is
not listed; its misses count the graphs it walked for.
"""

import itertools

from zigzaghh import ginzburg, pathalg, preproj, quiver
from zigzaghh.quiver import Graph, Quiver

MEMOS = {"all_words": pathalg.all_words, "words_by_endpoints": pathalg.words_by_endpoints,
         "all_cycles": pathalg.all_cycles, "all_necklaces": pathalg.all_necklaces,
         "lambda": preproj._table, "hh2_complex": ginzburg.hh2_complex,
         "certified": ginzburg._certified, "parse_label": quiver.parse_label,
         "orient_bipartite": quiver.orient_bipartite,
         "orient_by_edge_order": quiver.orient_by_edge_order}

_names = itertools.count()


def memo_sizes() -> dict[str, int]:
    return {name: memo.cache_info().currsize for name, memo in MEMOS.items()}


def built_since(before: dict[str, int]) -> dict[str, int]:
    """The tables each memo gained since `memo_sizes()` returned before."""
    return {name: size - before[name] for name, size in memo_sizes().items()}


def fresh(x):
    """An equal copy of a graph or quiver under a name nothing else uses."""
    name = "%s (fresh %d)" % (x.name, next(_names))
    if isinstance(x, Graph):
        return Graph(x.vertex_count, x.edges, name=name)
    return Quiver(x.vertex_count, x.arrows, name=name)
