"""One warm pass of crosscheck-batch: every job in this one process.

    python3 hhbench/worker.py SPEC.json [--trace]

SPEC.json holds {"jobs": [...], "timeout_s": T}.  Package caches are
shared across the jobs, as in a scripted sweep.  Pipelines are called by
name through their modules (so a traced pass sees the wrapped entry
points); CLI jobs call zigzaghh.cli.main in-process.  Prints one JSON
document: per-job answers, wall seconds and seconds scaled to the
reference speed (see clock.py), and with --trace the raw layer counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from time import perf_counter

import zigzaghh
from zigzaghh import cli, exactla, ginzburg, preproj, quiver, zigzag

import clock


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_pipeline(job) -> list[int]:
    g = quiver.load_graph(job["path"]) if job["path"] else quiver.parse_label(job["graph"])
    fld = exactla.FieldSpec(job["char"])
    if job["method"] == "zigzag":
        alg = zigzag.build_zigzag(g, fld)
        return [zigzag.hochschild_dim(alg, 2, q).dimension for q in job["qs"]]
    try:
        quiv = quiver.orient_bipartite(g)
    except quiver.NonBipartiteError:
        quiv = quiver.orient_by_edge_order(g)
    if job["method"] == "ginzburg":
        return [ginzburg.hh2_dim(quiv, q, fld).dimension for q in job["qs"]]
    return [preproj.trace_piece(quiv, q + 2, fld, want_witnesses=False).dimension
            for q in job["qs"]]


def run_cli(job) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job["argv"])
    return {"exit": code, "stdout": out.getvalue()}


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if "--trace" in argv[1:]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    speeds = clock.CallSpeeds()
    for job in spec["jobs"]:
        rec = {"id": job["id"]}
        t = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, spec["timeout_s"])
        try:
            if job["kind"] == "pipeline":
                rec["dims"] = run_pipeline(job)
            else:
                rec.update(run_cli(job))
        except JobTimeout:
            rec["error"] = "timed out after %g s" % spec["timeout_s"]
        except Exception as exc:  # a failing job is recorded, the pass goes on
            rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["seconds"] = perf_counter() - t
        speeds.add(rec["seconds"])
        results.append(rec)
    for rec, ref_s in zip(results, speeds.scaled()):
        rec["ref_s"] = ref_s
    doc = {"zigzaghh_file": zigzaghh.__file__, "jobs": results,
           "trace": tracer.report() if tracer else None}
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
