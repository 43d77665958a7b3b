"""The benchmark's workloads: fixed job grids plus seeded random graphs.

The seed only chooses the random graphs (written out as graph files and
passed to the program like a user's input) and the job orders; the
catalog grid is the same for every seed.  The heavy fixed jobs of the
warm workload open each pass in a fixed order: the deep bar complex sets
the pass's peak memory, and the caches built later reuse that memory, so
the peak does not depend on the seed's random graphs.  Pipelines are
always called by name, never through `--method all`, so that changing
which methods `all` runs does not change the work a workload does.
"""

from __future__ import annotations

import json
import os
import random

FIELDS = (0, 2, 3)
CATALOG = ("A5", "D5", "E6", "E8", "D~4", "D~6", "E~6")
GRID_QS = tuple(range(1, 7))
ZIGZAG_QS = (1, 2, 3)          # the bar complex grows fastest; deep case below
RANDOM_QS = (1, 2, 3)          # random graphs are checks, kept a small share
RANDOM_VERTICES = 6

# cold: a fresh CLI process per job; warm: one process per pass, shared caches
MODES = {"trace-classify": "cold", "ginzburg-deep": "cold", "crosscheck-batch": "warm"}


def _cli(*argv) -> dict:
    return {"kind": "cli", "id": " ".join(argv), "argv": list(argv) + ["--out", "json"]}


def _shuffled(items: list, seed) -> list:
    random.Random(seed).shuffle(items)
    return items


def cold_jobs(workload: str, seed: int) -> list[dict]:
    """CLI jobs of a cold workload in seeded order, each run as a fresh process."""
    if workload == "trace-classify":
        jobs = [_cli("classify", "--graph", g, "--char", c, "--max", "10")
                for g, c in (("E~8", "0"), ("D~8", "3"), ("E8", "5"))]
        jobs.append(_cli("preproj", "--graph", "E~8", "--char", "0", "--max", "10"))
        return _shuffled(jobs, seed)
    if workload == "ginzburg-deep":
        return _shuffled([_cli("hh2", "--graph", g, "--char", c, "--q", "10", "--method", "ginzburg")
                          for g, c in (("E~8", "0"), ("E~6", "2"), ("D~6", "0"))], seed)
    raise ValueError("not a cold workload: %r" % (workload,))


def random_tree_edges(rng: random.Random, n: int) -> list[list[int]]:
    """A uniformly random labelled tree on 1..n, from a Pruefer sequence."""
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append(sorted((leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(1, n + 1) if degree[u] == 1]
    edges.append(sorted(last))
    return edges


def random_nontree_edges(rng: random.Random, n: int, extra: int) -> list[list[int]]:
    """A random connected graph: a random tree plus `extra` new edges."""
    edges = random_tree_edges(rng, n)
    missing = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if [i, j] not in edges]
    return edges + rng.sample(missing, extra)


def write_random_graphs(seed: int, workdir: str) -> dict[str, dict]:
    """Seeded random graphs as graph files: name -> {path, tree}."""
    rng = random.Random(seed)
    graphs = {"tree-a": random_tree_edges(rng, RANDOM_VERTICES),
              "tree-b": random_tree_edges(rng, RANDOM_VERTICES),
              "nontree": random_nontree_edges(rng, RANDOM_VERTICES, 2)}
    out = {}
    for name, edges in graphs.items():
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": RANDOM_VERTICES, "edges": edges}, fh)
        out[name] = {"path": path, "tree": name != "nontree"}
    return out


def _pipe(graph: str, char: int, method: str, qs, ref_key=None, path=None) -> dict:
    return {"kind": "pipeline", "id": "%s %s char %d q %d..%d" % (method, graph, char, qs[0], qs[-1]),
            "graph": graph, "path": path, "char": char, "method": method, "qs": list(qs),
            "ref": ref_key}


def warm_jobs(graphs: dict[str, dict], seed: int, pass_index: int) -> list[dict]:
    """In-process jobs of one crosscheck-batch pass: the fixed head, then the graph blocks.

    graphs are the seed's random graph files.  Each pass orders whole
    graph blocks anew, from the seed and the pass index: the order shifts
    when the interpreter's cyclic collector runs, which changes the time
    of small calls, so a job's median over passes should not depend on one
    order.  Within a block the fields and methods keep a fixed order, so
    the job that fills a graph's caches is the same for every seed.
    Catalog cells carry a reference key; random graphs are checked by
    agreement among their pipelines.
    """
    blocks = []
    for g in CATALOG:
        blocks.append([_pipe(g, c, m, ZIGZAG_QS if m == "zigzag" else GRID_QS, ref_key=g)
                       for c in FIELDS for m in ("ginzburg", "trace", "zigzag")])
    for name, info in graphs.items():
        methods = ("ginzburg", "trace", "zigzag") if info["tree"] else ("ginzburg", "trace")
        block = [_pipe(name, c, m, RANDOM_QS, path=info["path"]) for c in FIELDS for m in methods]
        if not info["tree"]:
            job = _cli("hh2", "--graph", info["path"], "--char", "0", "--q", "1..2",
                       "--method", "zigzag")
            job["id"] = "hh2 --method zigzag on " + name
            job["expect_exit"] = 3    # the bar-complex method needs a tree
            block.append(job)
        blocks.append(block)
    head = [_pipe("D~4", 0, "zigzag", range(4, 9), ref_key="D~4"),
            _cli("ainfty-check", "--arity", "7"),
            _cli("preproj", "--graph", "D~4", "--char", "0", "--max", "8")]
    return head + [job for block in _shuffled(blocks, "%d/%d" % (seed, pass_index))
                   for job in block]
