"""Graphs, the ADE / extended-ADE catalog, quivers, doubles, Ginzburg extension.

Vertices are 1-based.  Catalog indexing convention: star-shaped diagrams
(D4, extended D4, the E family, D_n forks) put the branch vertex at the
highest index, so for the extended D4 star the four leaves are 1..4 and
the hub is 5; "e4" always means the fourth leaf.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Optional

from .reports import Frozen


class NonBipartiteError(ValueError):
    """Raised when a sink/source orientation is requested for an odd-cycle graph."""


def two_coloring(vertex_count: int, pairs) -> Optional[list[int]]:
    """colors[v] in {0,1} for v = 1..vertex_count, each pair (s, t) joining the
    two colors and each component's least vertex colored 0; None on an odd
    cycle or a loop."""
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, vertex_count + 1)}
    for s, t in pairs:
        nbrs[s].append(t)
        nbrs[t].append(s)
    colors = [-1] * (vertex_count + 1)
    for root in nbrs:
        if colors[root] != -1:
            continue
        colors[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if colors[w] == -1:
                    colors[w] = 1 - colors[v]
                    stack.append(w)
                elif colors[w] == colors[v]:
                    return None
    return colors


class Graph(Frozen):
    """A finite connected graph without loops or multiple edges."""

    __slots__ = ("vertex_count", "edges", "name")
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    name: Optional[str]

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...],
                 name: Optional[str] = None):
        n = vertex_count
        if n < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        norm = []
        for e in edges:
            i, j = e
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("edge %r out of range" % (e,))
            if i == j:
                raise ValueError("loops are not allowed: %r" % (e,))
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError("multiple edge: %r" % (e,))
            seen.add(key)
            norm.append(key)
        super().__init__(n, tuple(norm), name)
        # fewer than n - 1 edges cannot connect n vertices; testing that first
        # refuses a huge vertex count without building its adjacency
        if len(norm) < n - 1 or not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        n = self.vertex_count
        adj = self.adjacency()
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.vertex_count + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for v in adj:
            adj[v].sort()
        return adj

    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1

    def two_coloring(self) -> Optional[list[int]]:
        """A 2-coloring (colors[v] in {0,1}, colors[1] = 0), or None."""
        return two_coloring(self.vertex_count, self.edges)

    def is_bipartite(self) -> bool:
        return self.two_coloring() is not None


class Quiver(Frozen):
    """A finite quiver; arrow k runs arrows[k][0] -> arrows[k][1]."""

    __slots__ = ("vertex_count", "arrows", "name")
    vertex_count: int
    arrows: tuple[tuple[int, int], ...]
    name: Optional[str]

    def __init__(self, vertex_count: int, arrows: tuple[tuple[int, int], ...],
                 name: Optional[str] = None):
        for s, t in arrows:
            if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
                raise ValueError("arrow (%d,%d) out of range" % (s, t))
        super().__init__(vertex_count, arrows, name)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)


class DoubledQuiver:
    """Double quiver: base arrow k is index 2k, its reverse (star) is 2k+1."""

    def __init__(self, base: Quiver):
        self.base = base
        self.vertex_count = base.vertex_count
        src: list[int] = []
        tgt: list[int] = []
        names: list[str] = []
        for k, (s, t) in enumerate(base.arrows):
            src.append(s)
            tgt.append(t)
            names.append("a%d" % (k + 1))
            src.append(t)
            tgt.append(s)
            names.append("a%d*" % (k + 1))
        self.arrow_source = src
        self.arrow_target = tgt
        self.arrow_names = names

    @property
    def arrow_count(self) -> int:
        return len(self.arrow_source)

    def star(self, k: int) -> int:
        return k ^ 1

    def is_loop(self, k: int) -> bool:
        return False

    def __repr__(self):
        return "DoubledQuiver(%d vertices, %d arrows)" % (self.vertex_count, self.arrow_count)


class GinzburgQuiver:
    """Double quiver plus one loop t_i per vertex.

    Doubled arrows carry bidegree (0, 1); loops carry (-1, 2).  Loop of
    vertex i has arrow index 2m + (i-1) where m is the base arrow count.
    """

    def __init__(self, doubled: DoubledQuiver):
        self.doubled = doubled
        self.vertex_count = doubled.vertex_count
        m2 = doubled.arrow_count
        self.arrow_source = list(doubled.arrow_source)
        self.arrow_target = list(doubled.arrow_target)
        self.arrow_names = list(doubled.arrow_names)
        self.loop_index = {}
        for v in range(1, self.vertex_count + 1):
            idx = m2 + (v - 1)
            self.loop_index[v] = idx
            self.arrow_source.append(v)
            self.arrow_target.append(v)
            self.arrow_names.append("t%d" % v)
        self._first_loop = m2

    @property
    def arrow_count(self) -> int:
        return len(self.arrow_source)

    def is_loop(self, k: int) -> bool:
        return k >= self._first_loop

    def star(self, k: int) -> int:
        if self.is_loop(k):
            raise ValueError("loops have no star")
        return k ^ 1

    def bidegree(self, k: int) -> tuple[int, int]:
        return (-1, 2) if self.is_loop(k) else (0, 1)

    def __repr__(self):
        return "GinzburgQuiver(%d vertices, %d doubled arrows, %d loops)" % (
            self.vertex_count, self._first_loop, self.vertex_count)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _star_with_arms(arm_lengths: list[int], name: str) -> Graph:
    """Tree with a hub and paths of the given edge-lengths; hub gets index n."""
    n = sum(arm_lengths) + 1
    hub = n
    edges = []
    v = 1
    for length in arm_lengths:
        # vertices v .. v+length-1 from tip inward, innermost joins the hub
        for i in range(length - 1):
            edges.append((v + i, v + i + 1))
        edges.append((v + length - 1, hub))
        v += length
    return Graph(n, tuple(edges), name=name)


def _path_graph(n: int, name: str) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(1, n)), name=name)


def _cycle_graph(n: int, name: str) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, tuple(edges), name=name)


def catalog(family: str, n: int) -> Graph:
    """The standard ADE / extended-ADE graph for a (family, rank) pair.

    Families: "A", "D", "E" and the extended "A~", "D~", "E~".
    """
    label = "%s%d" % (family, n)
    if family == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        return _path_graph(n, label)
    if family == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        return _star_with_arms([1, 1, n - 3], label)
    if family == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6,7,8}")
        return _star_with_arms({6: [1, 2, 2], 7: [1, 2, 3], 8: [1, 2, 4]}[n], label)
    if family == "A~":
        if n < 2:
            raise ValueError("extended A_n needs n >= 2 (n = 1 would be a multiple edge)")
        return _cycle_graph(n + 1, label)
    if family == "D~":
        if n < 4:
            raise ValueError("extended D_n needs n >= 4")
        if n == 4:
            return _star_with_arms([1, 1, 1, 1], label)
        # two forks joined by a path: leaves 1,2 at vertex 3; leaves n,n+1 at n-1
        edges = [(1, 3), (2, 3)]
        edges += [(i, i + 1) for i in range(3, n - 1)]
        edges += [(n, n - 1), (n + 1, n - 1)]
        return Graph(n + 1, tuple(edges), name=label)
    if family == "E~":
        if n not in (6, 7, 8):
            raise ValueError("extended E_n needs n in {6,7,8}")
        return _star_with_arms({6: [2, 2, 2], 7: [3, 3, 1], 8: [5, 2, 1]}[n], label)
    raise ValueError("unknown family %r" % (family,))


_LABEL_RE = re.compile(r"^([ADE])(~?)(\d+)$")


# interned: a label is parsed once per process, and equal labels share one Graph
@functools.cache
def parse_label(label: str) -> Graph:
    """Parse a catalog label such as "A5", "D4", "D~4", "E~8"."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ValueError("bad catalog label %r" % (label,))
    fam, tilde, num = m.groups()
    return catalog(fam + ("~" if tilde else ""), int(num))


def bad_characteristics(graph_name: str) -> frozenset[int]:
    """Bad prime characteristics for an ADE family name ("D4", "E7", ...)."""
    m = _LABEL_RE.match(graph_name or "")
    if not m or m.group(2) == "~":
        return frozenset()
    fam, _, num = m.groups()
    if fam == "A":
        return frozenset()
    if fam == "D":
        return frozenset({2})
    n = int(num)
    return frozenset({2, 3}) if n in (6, 7) else frozenset({2, 3, 5})


# ---------------------------------------------------------------------------
# orientations and extensions
# ---------------------------------------------------------------------------

# interned by the graph's value: equal graphs share one quiver
@functools.cache
def orient_bipartite(g: Graph) -> Quiver:
    """Sink/source orientation from the two-coloring rooted at vertex 1.

    Edges run color 0 -> color 1, so every vertex only emits or only
    receives.  Raises NonBipartiteError on graphs with an odd cycle.
    """
    colors = g.two_coloring()
    if colors is None:
        raise NonBipartiteError("graph %r has an odd cycle; no sink/source orientation" % (g.name,))
    arrows = []
    for i, j in g.edges:
        if colors[i] == 0:
            arrows.append((i, j))
        else:
            arrows.append((j, i))
    return Quiver(g.vertex_count, tuple(arrows), name=g.name)


@functools.cache
def orient_by_edge_order(g: Graph) -> Quiver:
    """Fallback orientation: each stored edge (i, j) becomes the arrow i -> j."""
    return Quiver(g.vertex_count, tuple(g.edges), name=g.name)


# Keyed by the frozen quiver's value and kept for the process: equal quivers share one
# double, and so every table keyed by it (pathalg words, preproj Lambda).
@functools.cache
def double(q: Quiver) -> DoubledQuiver:
    return DoubledQuiver(q)


# ---------------------------------------------------------------------------
# graph file ingestion (CLI): JSON or two plain-text lines
# ---------------------------------------------------------------------------

def parse_graph_document(text: str, name: Optional[str] = None) -> Graph:
    """Parse `{"vertices": N, "edges": [[i,j],...]}` or the plain-text form

        vertices: N
        edges: [[i, j], ...]

    with 1-based vertex indices.
    """
    text = text.strip()
    data = None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        pass
    if data is None:
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError("bad graph file line: %r" % (line,))
            key, _, value = line.partition(":")
            fields[key.strip().lower()] = value.strip()
        if "vertices" not in fields or "edges" not in fields:
            raise ValueError("graph file needs 'vertices:' and 'edges:' entries")
        data = {"vertices": int(fields["vertices"]), "edges": json.loads(fields["edges"])}
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph document needs 'vertices' and 'edges'")
    vertices, edges = data["vertices"], data["edges"]
    if type(vertices) is not int:
        raise ValueError("graph 'vertices' must be an integer, got %r" % (vertices,))
    if not isinstance(edges, list):
        raise ValueError("graph 'edges' must be a list of [i, j] pairs, got %r" % (edges,))
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
            raise ValueError("graph edge %r is not a pair of integers" % (e,))
    return Graph(vertices, tuple((i, j) for i, j in edges), name=name)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_document(fh.read(), name=path)
