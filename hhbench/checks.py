"""Answer checks against the reference values stored in reference.json.

Only what the program promises to keep is compared: dimensions,
nonzero-q sets, verdict booleans, cross-pipeline agreement and exit
codes.  Witness strings and stdout bytes are never compared, since the
planned necklace rewrite of the trace pipeline changes witness cycles by
design.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from collections import defaultdict

NONFORMAL_MARK = "NOT intrinsically formal"


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _compare(what: str, got: dict, want: dict) -> list[str]:
    if got != want:
        return ["%s: got %s, reference %s" % (what, got, want)]
    return []


def answer_cells(job: dict, rec: dict) -> list[int]:
    """The dimensions a finished job answered (ainfty-check answers one)."""
    if job["kind"] == "pipeline":
        return rec.get("dims") or []
    try:
        payload = json.loads(rec.get("stdout") or "")
    except json.JSONDecodeError:
        return []
    return [r["dim"] for r in payload.get("results", [])]


def check_cli(job: dict, exit_code, stdout: str, ref: dict) -> list[str]:
    """Exit code and answers of one CLI job."""
    want_exit = job.get("expect_exit", 0)
    if exit_code != want_exit:
        return ["exit code %r, expected %d" % (exit_code, want_exit)]
    if want_exit != 0:
        return []
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return ["stdout is not JSON: %s" % exc]
    argv = job["argv"]
    command = argv[0]
    results = payload.get("results", [])
    if command == "ainfty-check":
        want = ref["ainfty"]
        got = {"cocycle": payload.get("cocycle"), "coboundary": payload.get("coboundary"),
               "dim": [r["dim"] for r in results],
               "violations": len(payload.get("stasheff", {}).get("violations", []))}
        return _compare("ainfty-check", got, want)
    graph, char = _opt(argv, "--graph"), _opt(argv, "--char")
    if command == "preproj":
        want = ref["preproj"][graph][char]
        got = {"lambda": [r["dim"] for r in results if r["method"] == "lambda"],
               "trace": [r["dim"] for r in results if r["method"] == "trace"],
               "finite": bool(payload.get("finite_dimensional", False))}
        return _compare("preproj %s char %s" % (graph, char), got, want)
    table = ref["hh2"][graph][char]
    got = {str(r["q"]): r["dim"] for r in results}
    want = {q: table[q] for q in got if q in table}
    problems = _compare("%s %s char %s" % (command, graph, char), got, want)
    if command == "classify":
        wanted_qs = [str(q) for q in range(1, int(_opt(argv, "--max")) + 1)]
        if sorted(got, key=int) != wanted_qs:
            problems.append("classify answered q %s, expected 1..%s"
                            % (sorted(got, key=int), _opt(argv, "--max")))
        nonzero = any(table[q] for q in wanted_qs if q in table)
        if (NONFORMAL_MARK in payload.get("verdict", "")) != nonzero:
            problems.append("verdict %r disagrees with reference nonzero=%s"
                            % (payload.get("verdict"), nonzero))
    elif command == "hh2":
        q = _opt(argv, "--q")
        if list(got) != [q] or {r["method"] for r in results} != {_opt(argv, "--method")}:
            problems.append("hh2 answered %s, expected q %s by %s"
                            % (results, q, _opt(argv, "--method")))
    return problems


def check_pipeline(job: dict, dims: list[int], ref: dict) -> list[str]:
    """Catalog pipeline answers against the reference HH^{2,q} table."""
    if len(dims) != len(job["qs"]):
        return ["answered %d degrees, asked %d" % (len(dims), len(job["qs"]))]
    if job["ref"] is None:
        return []          # random graphs are checked by agreement only
    table = ref["hh2"][job["ref"]][str(job["char"])]
    got = {str(q): d for q, d in zip(job["qs"], dims)}
    return _compare(job["id"], got, {q: table[q] for q in got})


def agreement_problems(answers) -> dict[str, list[str]]:
    """Cross-pipeline agreement on every (graph, field, q) cell.

    answers is a list of (job, dims) for pipeline jobs that finished.
    Every job taking part in a disagreeing cell gets the problem.
    """
    cells: dict[tuple, list[tuple[str, str, int]]] = defaultdict(list)
    for job, dims in answers:
        for q, d in zip(job["qs"], dims):
            cells[(job["graph"], job["char"], q)].append((job["id"], job["method"], d))
    out: dict[str, list[str]] = defaultdict(list)
    for (graph, char, q), entries in cells.items():
        if len({d for _, _, d in entries}) > 1:
            msg = "methods disagree on %s char %d q %d: %s" % (
                graph, char, q, ", ".join("%s=%d" % (m, d) for _, m, d in entries))
            for job_id, _, _ in entries:
                out[job_id].append(msg)
    return dict(out)
