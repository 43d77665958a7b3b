"""Command-line surface: preproj, hh2, classify, ainfty-check.

Output is a plain table or JSON on stdout.  Identical jobs produce
byte-identical JSON: no timestamps and sorted keys.

Exit codes: 0 success, 1 `ainfty-check` found the m4 class trivial to
first order (for instance `--scale 0`), 2 invalid input, 3 method
inapplicable to the given graph, 4 `hh2 --method all` found the methods
disagreeing in some degree (after printing its usual output).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import ainfty, ginzburg, preproj, zigzag
from .exactla import FieldSpec
from .pathalg import path_name
from .reports import HHReport
from .quiver import (Graph, NonBipartiteError, double, load_graph, orient_bipartite,
                     orient_by_edge_order, parse_label)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INAPPLICABLE = 3
EXIT_DISAGREE = 4

# the largest |q| of hh2 and --max of preproj and classify, checked before any
# count or walk, which recurse or loop per degree: A2 takes 7.4 s for hh2 --q
# 0..256 --method zigzag (2-vCPU Xeon, Python 3.11)
MAX_DEGREE = 128

# ainfty-check sums each Stasheff identity over pairs of product-table
# entries, so its cost no longer grows with the arity; the cap stays because
# the exit codes of every accepted input are pinned
MAX_ARITY = 8

# hh2's ginzburg and trace methods are bounded by the closed walks of length
# q + 2 in the double quiver, tr(A^(q+2)) for the adjacency matrix A: E~8 has
# 135,488 at q = 14, where ginzburg walks their 8,516 necklaces and takes
# about 0.3 s and 37 MB cold, and 535,846 at q = 16 (2-vCPU Xeon, Python 3.11)
MAX_CYCLES = 300_000

# hh2's zigzag method is bounded by the words of C^{1,q} within its cycle
# budget, which over-counts its work: the kernel gets only tr(A^(q+2)) +
# tr(A^q) incoming columns.  D4 has 144,342 words at q = 14 (17,496 columns
# built; 0.2 s in process, 24 MB cold), E6 214,048 at q = 12 (25,576; 0.35 s)
# and E~6 368,640 at q = 12 (40,968; 0.6 s, 37 MB) (2-vCPU Xeon, Python 3.11);
# the cap stays because the exit codes of every accepted input are pinned
MAX_ZIGZAG_WORDS = 200_000

# preproj refuses a --max whose all-words relation rows, one per word of
# length n - 2 and cut in it, keyed by words of n letters, would hold more
# than this many letters: sum over n of (n - 1) n W(n - 2) for W(m) walks of
# length m.  E~8 has 4,134,982 at --max 13 and 9,774,434 at --max 14, D~4
# 6,085,130 at --max 14 and A3 121,634,734 at --max 30.  The table of Lambda
# no longer builds those rows, so the count is not its cost; the cap stays
# because the exit codes of every accepted input are pinned
MAX_PREPROJ_LETTERS = 8_000_000


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _check_degree(flag: str, value: int):
    if abs(value) > MAX_DEGREE:
        raise CliError("%s %d is beyond the degree cap of %d" % (flag, value, MAX_DEGREE))


def _resolve_graph(spec: str) -> Graph:
    if os.path.exists(spec):
        return load_graph(spec)
    return parse_label(spec)


def _resolve_field(char: int) -> FieldSpec:
    try:
        return FieldSpec(char)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _orient(g: Graph, mode: str):
    """Quiver plus the effective orientation label (flags odd-cycle fallbacks)."""
    if mode == "file":
        return orient_by_edge_order(g), "file"
    try:
        return orient_bipartite(g), "sink-source"
    except NonBipartiteError:
        return orient_by_edge_order(g), "edge-order (graph is not bipartite)"


def _parse_qrange(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise CliError("--q must be an integer or a range a..b, got %r" % (text,)) from None


def _check_cycle_count(g: Graph, qlo: int, qhi: int):
    """Exit 2 if some q in qlo..qhi has more than MAX_CYCLES closed walks of length q + 2.

    tr(A^n) is stepped one length at a time over sparse integer rows of A^n.
    On a connected graph with an edge, a step out and back in front of a
    closed walk is one of length n + 2, so the count of each parity never
    falls: once every parity that can have walks (only even lengths on a
    bipartite graph) is past the cap, every longer q is too, and stepping
    stops there, naming a lower bound for a q beyond it.
    """
    adj = g.adjacency()
    rows = {v: {v: 1} for v in adj}
    live = {0} if g.is_bipartite() else {0, 1}
    over: dict[int, int] = {}
    for n in range(qhi + 3):
        if n:
            stepped = {}
            for v, row in rows.items():
                nxt: dict[int, int] = {}
                for u, c in row.items():
                    for w in adj[u]:
                        nxt[w] = nxt.get(w, 0) + c
                stepped[v] = nxt
            rows = stepped
        count = sum(row.get(v, 0) for v, row in rows.items())
        if count > MAX_CYCLES:
            if n >= qlo + 2:
                raise CliError("--q %d needs %d closed walks of length %d, above the cap of %d"
                               % (n - 2, count, n, MAX_CYCLES))
            over.setdefault(n % 2, count)
            if live <= over.keys():
                break
    for q in range(qlo, min(qhi, qlo + 1) + 1):
        if (q + 2) % 2 in over:
            raise CliError("--q %d needs at least %d closed walks of length %d, above the cap of %d"
                           % (q, over[(q + 2) % 2], q + 2, MAX_CYCLES))


def _walk_counts(g: Graph):
    """W(0), W(1), ...: W(m) = 1^T A^m 1 arrow walks of length m in the double quiver.

    On a graph with an edge, appending an arrow keeps a walk, so W never falls.
    """
    adj = g.adjacency()
    walks = {v: 1 for v in adj}
    while True:
        yield sum(walks.values())
        walks = {v: sum(walks[w] for w in adj[v]) for v in adj}


def _check_word_count(g: Graph, top: int):
    """Exit 2 if the relation rows preproj builds for the degrees up to top
    would hold more than MAX_PREPROJ_LETTERS letters; the sum never falls, so
    stepping stops at the first degree past the cap.
    """
    letters = 0
    for n, walks in zip(range(2, top + 1), _walk_counts(g)):
        letters += (n - 1) * n * walks
        if letters > MAX_PREPROJ_LETTERS:
            raise CliError("--max %d needs %s%d letters of relation rows, above the cap of %d"
                           % (top, "at least " if n < top else "", letters,
                              MAX_PREPROJ_LETTERS))


def _check_zigzag_count(g: Graph, qlo: int, qhi: int):
    """Exit 2 if some even q in qlo..qhi has more than MAX_ZIGZAG_WORDS words in C^{1,q}.

    Those are the words of length q + 1 with at most one cycle class.  With
    W(m) arrow walks of length m, W(q + 1) have none, and as A is symmetric,
    sum over k of <A^k 1, A^(q-k) 1> = (q + 1) W(q) have one, between walks
    of lengths k and q - k.  That is the size of C^{1,q}; HH^{2,q} builds
    fewer columns, tr(A^(q+2)) + tr(A^q), one per word of C^{2,q} and one
    per closed walk of length q, so the count over-counts the work, and the
    cap stays so that every exit code stays as it was.  The count never
    falls with q, so stepping stops at the first even q past the cap.  Odd q is not counted: the graph is a
    tree, so C^{2,q} is empty, and HH^{2,q} is 0 before C^{1,q} is walked.
    """
    counts = _walk_counts(g)
    walks = next(counts)
    for q in range(qhi + 1):
        longer = next(counts)
        count = longer + (q + 1) * walks
        if q % 2 == 0 and count > MAX_ZIGZAG_WORDS:
            named = max(q, qlo + qlo % 2)
            if named > qhi:
                return
            raise CliError("--q %d needs %s%d words in C^{1,%d}, above the cap of %d"
                           % (named, "at least " if q < named else "", count, named,
                              MAX_ZIGZAG_WORDS))
        walks = longer


def _emit(payload: dict, fmt: str, table_lines: list[str]):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(table_lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_preproj(args) -> int:
    if args.max < 0:
        raise CliError("--max must be >= 0, got %d" % args.max)
    _check_degree("--max", args.max)
    g = _resolve_graph(args.graph)
    fld = _resolve_field(args.char)
    _check_word_count(g, args.max)
    quiv, orient_label = (None, "none (graph-level quotient)") \
        if args.variant == "koszul-dual" else _orient(g, args.orientation)
    degrees = list(range(0, args.max + 1))

    def one(n: int):
        if args.variant == "koszul-dual":
            piece = preproj.koszul_dual_zigzag_piece(g, n, fld)
            tr = preproj.trace_piece_general("koszul-dual-zigzag", g, n, fld,
                                             want_witnesses=False)
        else:
            piece = preproj.lambda_piece(quiv, n, fld)
            tr = preproj.trace_piece(quiv, n, fld, want_witnesses=False)
        return piece.dimension, tr.dimension

    dims = [one(n) for n in degrees]
    zero_run = 0
    finite = False
    for _, (d, _) in zip(degrees, dims):
        zero_run = zero_run + 1 if d == 0 else 0
        if zero_run >= 3:
            finite = True
    results = [{"p": None, "q": n, "method": "lambda" if args.variant == "preprojective" else "koszul-dual",
                "dim": dims[i][0]} for i, n in enumerate(degrees)]
    results += [{"p": None, "q": n, "method": "trace", "dim": dims[i][1]}
                for i, n in enumerate(degrees)]
    payload = {
        "job": {"command": "preproj", "graph": args.graph, "char": args.char,
                "variant": args.variant, "max": args.max,
                "orientation": orient_label},
        "results": results,
        "bound": args.max,
    }
    if finite:
        payload["finite_dimensional"] = True
    lines = ["# %s over char %d (%s), degrees 0..%d" % (args.graph, args.char, args.variant, args.max),
             "%6s %12s %10s" % ("n", "dim", "trace")]
    for i, n in enumerate(degrees):
        lines.append("%6d %12d %10d" % (n, dims[i][0], dims[i][1]))
    if finite:
        lines.append("three consecutive zero pieces: finite-dimensional (bound %d)" % args.max)
    else:
        lines.append("no finiteness flag up to bound %d" % args.max)
    _emit(payload, args.out, lines)
    return EXIT_OK


def cmd_hh2(args) -> int:
    g = _resolve_graph(args.graph)
    fld = _resolve_field(args.char)
    qlo, qhi = _parse_qrange(args.q)
    if qlo > qhi:
        raise CliError("empty q range %r" % (args.q,))
    _check_degree("--q", qlo)
    _check_degree("--q", qhi)
    methods = [args.method] if args.method != "all" else ["ginzburg", "trace", "zigzag"]
    if args.method == "zigzag":
        if not g.is_tree():
            raise CliError("zigzag method needs a tree (derived Koszul duality hypothesis)",
                           EXIT_INAPPLICABLE)
        _check_zigzag_count(g, qlo, qhi)
    else:
        _check_cycle_count(g, qlo, qhi)
    quiv, orient_label = _orient(g, args.orientation)
    # bar-complex cost grows with q; at q = 8 one degree takes 0.1-0.3 s
    # (2-vCPU Xeon, Python 3.11) on every catalog tree up to E~8
    zigzag_cap = 8

    jobs = []
    skipped = []
    for q in range(qlo, qhi + 1):
        for m in methods:
            reason = None
            if m == "zigzag" and args.method == "all":
                if not g.is_tree():
                    reason = "graph is not a tree (derived Koszul duality hypothesis)"
                elif q > zigzag_cap:
                    reason = ("bar complex above the automatic size cap q <= %d; "
                              "run --method zigzag" % zigzag_cap)
            if reason:
                skipped.append({"q": q, "method": m, "reason": reason})
            else:
                jobs.append((q, m))
    # the methods that ran at some q: the ones `agreement` compares
    compared = [m for m in methods if any(m == jm for _, jm in jobs)]
    alg = zigzag.build_zigzag(g, fld) if "zigzag" in compared else None

    def one(q, m):
        if m == "ginzburg":
            return ginzburg.hh2_dim(quiv, q, fld, want_witnesses=args.witnesses)
        if m == "trace":
            if q < -2:   # no cycle has negative length
                return HHReport(2, q, "trace", 0, () if args.witnesses else None)
            tr = preproj.trace_piece(quiv, q + 2, fld, want_witnesses=args.witnesses)
            reps = None
            if args.witnesses:
                reps = tuple(path_name(double(quiv), w) for w in (tr.witnesses or []))
            return HHReport(2, q, "trace", tr.dimension, reps)
        return zigzag.hochschild_dim(alg, 2, q, want_witnesses=args.witnesses)

    reports = [one(q, m) for q, m in jobs]
    by_q: dict[int, dict[str, int]] = {}
    results = []
    for rep in reports:
        entry = {"p": 2, "q": rep.q, "method": rep.method, "dim": rep.dimension}
        if args.witnesses and rep.representatives is not None:
            entry["witnesses"] = list(rep.representatives)
        results.append(entry)
        by_q.setdefault(rep.q, {})[rep.method] = rep.dimension
    agreement = all(len(set(v.values())) == 1 for v in by_q.values())
    payload = {
        "job": {"command": "hh2", "graph": args.graph, "char": args.char,
                "method": args.method, "q": [qlo, qhi],
                "orientation": orient_label},
        "results": results,
        "bound": qhi,
    }
    if args.method == "all":
        payload["agreement"] = agreement
        payload["compared"] = compared
    if skipped:
        payload["skipped"] = skipped
    lines = ["# HH^{2,q} of %s over char %d" % (args.graph, args.char),
             "%4s %10s %6s" % ("q", "method", "dim")]
    for entry in results:
        lines.append("%4d %10s %6d" % (entry["q"], entry["method"], entry["dim"]))
        if "witnesses" in entry and entry["witnesses"]:
            lines.append("        witnesses: %s" % "; ".join(entry["witnesses"]))
    for s in skipped:
        lines.append("skipped: q=%d %s (%s)" % (s["q"], s["method"], s["reason"]))
    if args.method == "all":
        lines.append("agreement across methods: %s (%s)"
                     % ("yes" if agreement else "NO", ", ".join(compared)))
    _emit(payload, args.out, lines)
    return EXIT_OK if agreement else EXIT_DISAGREE


def cmd_classify(args) -> int:
    if args.max < 1:
        raise CliError("--max must be >= 1 (classify searches 0 < q <= max), got %d" % args.max)
    _check_degree("--max", args.max)
    g = _resolve_graph(args.graph)
    fld = _resolve_field(args.char)
    _check_cycle_count(g, 1, args.max)
    quiv, orient_label = _orient(g, args.orientation)
    qs = list(range(1, args.max + 1))

    traces = [preproj.trace_piece(quiv, q + 2, fld, want_witnesses=False) for q in qs]
    nonzero = [q for q, tr in zip(qs, traces) if tr.dimension > 0]
    witness = None
    if nonzero:
        first = preproj.trace_piece(quiv, nonzero[0] + 2, fld, want_witnesses=True)
        witness = path_name(double(quiv), first.witnesses[0])
    if nonzero:
        verdict = ("nonzero HH^{2,q} at q in {%s} => NOT intrinsically formal "
                   "(nontrivial first-order deformation witnessed; bound N=%d)"
                   % (", ".join(str(q) for q in nonzero), args.max))
    else:
        verdict = ("no nonzero HH^{2,q} for 0 < q <= %d "
                   "(consistent with intrinsic formality)" % args.max)
    results = [{"p": 2, "q": q, "method": "trace", "dim": tr.dimension}
               for q, tr in zip(qs, traces)]
    payload = {
        "job": {"command": "classify", "graph": args.graph, "char": args.char,
                "max": args.max, "orientation": orient_label},
        "results": results,
        "bound": args.max,
        "verdict": verdict,
    }
    if witness:
        payload["witness_cycle"] = witness
    note = None
    if not g.is_tree():
        note = ("non-tree graph: evidence is the dg-algebra invariant of the "
                "chosen orientation; the degreewise match with the zigzag "
                "algebra is a tree-only identification")
        payload["note"] = note
    lines = ["# classification evidence for %s over char %d, q <= %d"
             % (args.graph, args.char, args.max),
             "%4s %6s" % ("q", "dim")]
    for q, tr in zip(qs, traces):
        lines.append("%4d %6d" % (q, tr.dimension))
    lines.append(verdict)
    if witness:
        lines.append("witness cycle: %s" % witness)
    if note:
        lines.append("note: %s" % note)
    _emit(payload, args.out, lines)
    return EXIT_OK


def _load_m4_file(path: str, alg) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = doc.get("terms", []) if isinstance(doc, dict) else None
    if not isinstance(terms, list):
        raise CliError("m4 file must be a JSON object with a \"terms\" list")
    index = {name: i for i, name in enumerate(alg.names)}
    table = {}
    for term in terms:
        if not (isinstance(term, dict) and isinstance(term.get("inputs"), list)
                and "output" in term and type(term.get("coeff", 1)) is int):
            raise CliError("m4 term %r needs an \"inputs\" list, an \"output\" and an "
                           "integer \"coeff\"" % (term,))
        for name in term["inputs"] + [term["output"]]:
            if name not in alg.names:   # a list: JSON arrays are unhashable
                raise CliError("m4 term %r names %r, which is not a basis element of the "
                               "extended-D4 zigzag algebra" % (term, name))
        word = tuple(index[n] for n in term["inputs"])
        table.setdefault(word, {})[index[term["output"]]] = term.get("coeff", 1)
    return table


def cmd_ainfty_check(args) -> int:
    if args.arity > MAX_ARITY:
        raise CliError("--arity must be <= %d, got %d" % (MAX_ARITY, args.arity))
    fld = FieldSpec(0)
    if args.m4_file:
        base = ainfty.extended_d4_m4(fld)
        table = _load_m4_file(args.m4_file, base.algebra)
        candidate = ainfty.AInftyCandidate(base.algebra, {4: table} if table else {})
    else:
        candidate = ainfty.extended_d4_m4(fld, scale=args.scale)
    if 4 in candidate.products and candidate.products[4]:
        cochain = ainfty.class_of(candidate, 4)
    else:
        cochain = zigzag.zero_cochain(candidate.algebra, 2, 2)
    cocycle = zigzag.is_cocycle(cochain)
    coboundary = zigzag.is_coboundary(cochain)
    stasheff = ainfty.check_stasheff(candidate, args.arity)
    payload = {
        "job": {"command": "ainfty-check", "scale": args.scale,
                "m4_file": args.m4_file, "arity": args.arity},
        "results": [{"p": 2, "q": 2, "method": "zigzag",
                     "dim": 0 if coboundary else 1}],
        "cocycle": cocycle,
        "coboundary": coboundary,
        "stasheff": {
            "max_arity": stasheff.max_arity,
            "violations": [{"arity": v.arity, "word": list(v.word),
                            "defect": {k: str(val) for k, val in v.defect.items()}}
                           for v in stasheff.violations],
            "conditional_arities": stasheff.conditional_arities,
        },
        "bound": args.arity,
    }
    lines = ["# explicit deformation of the extended-D4 zigzag algebra",
             "cocycle: %s" % cocycle,
             "coboundary: %s" % coboundary,
             "stasheff identities up to arity %d: %s"
             % (stasheff.max_arity, "pass" if stasheff.passed else "FAIL"),
             ]
    if stasheff.conditional_arities:
        lines.append("conditional arities (unspecified higher products assumed zero): %s"
                     % ", ".join(str(a) for a in stasheff.conditional_arities))
    for v in stasheff.violations:
        lines.append("violated at arity %d on (%s)" % (v.arity, ", ".join(v.word)))
    nontrivial = cocycle and not coboundary
    lines.append("verdict: %s" % ("nontrivial first-order deformation"
                                  if nontrivial else "trivial to first order"))
    _emit(payload, args.out, lines)
    return EXIT_OK if nontrivial else 1


# ---------------------------------------------------------------------------


@functools.cache   # one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zigzaghh",
        description="HH^{2,q} of zigzag algebras by three exact pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", required=True,
                           help="catalog label (A5, D4, D~4, E~8) or a graph file")
            p.add_argument("--char", type=int, default=0,
                           help="field characteristic: 0 for Q or a prime")
            p.add_argument("--orientation", choices=["auto", "file"], default="auto",
                           help="auto = sink/source when bipartite; file = stored edge order")
        p.add_argument("--out", choices=["table", "json"], default="table")

    p = sub.add_parser("preproj", help="degreewise dims of the preprojective algebra and its trace")
    common(p)
    p.add_argument("--max", type=int, default=8, help="largest degree to compute")
    p.add_argument("--variant", choices=["preprojective", "koszul-dual"],
                   default="preprojective")
    p.set_defaults(fn=cmd_preproj)

    p = sub.add_parser("hh2", help="HH^{2,q} dimensions by method")
    common(p)
    p.add_argument("--q", default="0..4", help="Adams degree or range a..b")
    p.add_argument("--method", choices=["ginzburg", "trace", "zigzag", "all"],
                   default="all")
    p.add_argument("--witnesses", action="store_true", help="include representative cycles")
    p.set_defaults(fn=cmd_hh2)

    p = sub.add_parser("classify", help="formality verdict from HH^{2,q} vanishing up to a bound")
    common(p)
    p.add_argument("--max", type=int, default=8, help="largest Adams degree searched")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ainfty-check", help="cocycle/coboundary verdicts for the explicit m4")
    common(p, graph=False)
    p.add_argument("--scale", type=int, default=1, help="rescale the m4 values")
    p.add_argument("--m4-file", default=None,
                   help="JSON file {\"terms\": [{\"inputs\": [...], \"output\": ..., \"coeff\": k}]}")
    p.add_argument("--arity", type=int, default=5,
                   help="check Stasheff identities up to this arity (at most %d)" % MAX_ARITY)
    p.set_defaults(fn=cmd_ainfty_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a value that starts with '-' and is not a plain number,
    # such as -3..1, as an option: attach a range to its flag
    tokens: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] == "--q" and arg[:1] == "-" and ".." in arg:
            tokens[-1] = "--q=" + arg
        else:
            tokens.append(arg)
    args = parser.parse_args(tokens)
    try:
        code = args.fn(args)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
