"""Probes of the package's kept state, for tests that check which tables a call builds.

Every table that outlives a call lives in one `functools.lru_cache(maxsize=1)`
state per pipeline module (`STATES`), keyed by the graph or quiver the
tables hang from; each returns a plain dict keyed by what varies within
that graph (Adams degree, relation kind and field, cycle budget, q), so a
call's tables are the keys of its graph's dict.  The orientations and
doubles are bounded to the last graph too (`BOUNDED`).  `pathalg` keeps
nothing: its walks are counted with `walk_spy`.  A test that needs
nothing built yet renames its graph or quiver with `fresh`, which gives
it a new state.  Labels are interned for the process, so a test that needs
its own graph builds it with `Graph`, or renames it with `fresh`.
"""

import itertools

from zigzaghh import ginzburg, pathalg, preproj, quiver, zigzag
from zigzaghh.quiver import Graph, Quiver

STATES = {"ginzburg": ginzburg._cells, "preproj": preproj._tables, "zigzag": zigzag._tables}
BOUNDED = dict(STATES, orient_bipartite=quiver.orient_bipartite,
               orient_by_edge_order=quiver.orient_by_edge_order, double=quiver.double)

_names = itertools.count()


def kept(state, key):
    """The keys of the tables `state` holds for the graph or quiver key, or
    None when it holds none for key; the probe leaves it holding key."""
    hits = state.cache_info().hits
    tables = state(key)
    return set(tables) if state.cache_info().hits > hits else None


def asked() -> dict[str, int]:
    """How often each pipeline state has been asked so far."""
    return {name: state.cache_info().hits + state.cache_info().misses
            for name, state in STATES.items()}


def recorded_cells(q) -> dict:
    """Adams degree -> the `exactla.Record` (|E|, E's free coordinates, the
    residual S) that a Q elimination left in each cell of q, read from the
    Ginzburg state, which must hold q."""
    assert kept(ginzburg._cells, q) is not None, "the Ginzburg state does not hold %r" % (q,)
    return {adams: cell[1] for adams, cell in ginzburg._cells(q).items() if cell[1] is not None}


def eliminations(monkeypatch, *modules) -> list:
    """(field, rows) of every elimination started from now on, from the
    modules named or from `exactla` itself (a record's residual)."""
    from zigzaghh import exactla

    seen = []
    real = exactla.echelonize

    def spy(fld, rows, ncols):
        rows = list(rows)
        seen.append((fld, rows))
        return real(fld, rows, ncols)

    for m in (exactla,) + modules:
        monkeypatch.setattr(m, "echelonize", spy)
    return seen


def walk_spy(monkeypatch) -> list:
    """(quiver, length, mode) of every `pathalg._walk` started from now on."""
    walks = []
    walk = pathalg._walk

    def spy(q, n, mode="open"):
        walks.append((q, n, mode))
        return walk(q, n, mode)

    monkeypatch.setattr(pathalg, "_walk", spy)
    return walks


def fresh(x):
    """An equal copy of a graph or quiver under a name nothing else uses."""
    name = "%s (fresh %d)" % (x.name, next(_names))
    if isinstance(x, Graph):
        return Graph(x.vertex_count, x.edges, name=name)
    return Quiver(x.vertex_count, x.arrows, name=name)
