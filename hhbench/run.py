"""Benchmark of zigzaghh: end-to-end job metrics, or per-layer traces.

    python3 hhbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the checkout's own src/ (never an installed copy) in a single-client
closed loop: one job at a time, from this one driver process.  Passes
over the workload's job grid repeat while the next one still fits in S
seconds (at least one pass).  Every answer is checked against
reference.json.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  A
traced run alternates untraced and traced passes; the ratio of their
times is the tracing overhead.  Untraced passes never load the tracer.

Exit status: 0 when every job passed its check, 1 when any failed, 2 when
the checkout cannot be benchmarked (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import clock
import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 60.0      # per job; the slowest job takes about 5 s on 2 cores
RUN_DEADLINE_S = 160.0    # no job starts later, so a run ends well within 180 s
SETUP_PER_PASS = 4
SETUP_CODE = "import zigzaghh.cli as c; c.build_parser(); print(c.__file__)"


class CheckoutError(Exception):
    """The checkout cannot be benchmarked: no src/, or zigzaghh comes from elsewhere."""


def job_env() -> dict:
    """Hermetic job environment: checkout src/ only, pinned hashing, no package knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZIGZAGHH_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_source(module_file: str) -> str:
    path = Path(module_file).resolve()
    if not path.is_relative_to(SRC.resolve()):
        raise CheckoutError("zigzaghh imported from %s, not from %s" % (path, SRC))
    return str(path)


def measure_setup(env: dict, samples: int, speed) -> tuple[list[float], str]:
    """Fresh interpreter, import zigzaghh.cli and build the parser, timed.

    The runner takes a few samples before every pass, so that their median
    spans the whole run rather than one moment of a machine whose speed
    drifts; the result of a first call fills the bytecode cache of a fresh
    checkout and is dropped.  Returns the scaled times (see clock.py).
    """
    times = []
    module_file = ""
    for _ in range(samples):
        t = perf_counter()
        try:
            with speed.sampling():
                proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                                      capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise CheckoutError("importing zigzaghh.cli took over %g s" % exc.timeout) from exc
        times.append(speed.scale(perf_counter() - t))
        if proc.returncode != 0:
            raise CheckoutError("cannot import zigzaghh.cli from %s: %s"
                                % (SRC, proc.stderr.strip()[-400:]))
        module_file = check_source(proc.stdout.strip())
    return times, module_file


def _not_started(job: dict, why: str) -> dict:
    return {"id": job["id"], "seconds": 0.0, "ref_s": 0.0, "cells": 0, "problems": [why]}


def _pass(traced, recs, raw=None, missing=None, absent=None) -> dict:
    """One pass: its job records, raw and scaled time, and trace counters."""
    return {"traced": traced, "jobs": recs,
            "pass_s": sum(r["seconds"] for r in recs), "ref_pass_s": sum(r["ref_s"] for r in recs),
            "raw": raw or {}, "missing": missing or {}, "absent": absent or []}


def run_cold_pass(jobs, env, ref, deadline, workdir, traced, speed) -> dict:
    """Each job a fresh CLI process (through the tracer shim when traced)."""
    recs, raws, missing, absent = [], [], {}, []
    trace_path = os.path.join(workdir, "trace.json")
    for job in jobs:
        timeout = min(JOB_TIMEOUT_S, deadline - perf_counter())
        if timeout <= 0:
            recs.append(_not_started(job, "not started: run deadline reached"))
            continue
        cmd = ([sys.executable, str(BENCH / "tracer.py"), trace_path] if traced
               else [sys.executable, "-m", "zigzaghh.cli"])
        if traced and os.path.exists(trace_path):
            os.remove(trace_path)
        t = perf_counter()
        try:
            with speed.sampling():
                proc = subprocess.run(cmd + job["argv"], env=env, cwd=ROOT,
                                      capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            dt = perf_counter() - t
            recs.append({"id": job["id"], "seconds": dt, "ref_s": speed.scale(dt), "cells": 0,
                         "problems": ["killed after the %.0f s timeout" % timeout]})
            continue
        dt = perf_counter() - t
        rec = {"id": job["id"], "seconds": dt, "ref_s": speed.scale(dt),
               "problems": checks.check_cli(job, proc.returncode, proc.stdout, ref)}
        rec["cells"] = 0 if rec["problems"] else len(
            checks.answer_cells(job, {"stdout": proc.stdout}))
        if traced:
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                raws.append(doc["raw"])
                missing, absent = doc["missing"], doc["absent"]
            except (OSError, json.JSONDecodeError) as exc:
                rec["problems"].append("no trace written: %s" % exc)
        recs.append(rec)
    return _pass(traced, recs, stats.merge_raw(raws), missing, absent)


def run_warm_pass(jobs, env, ref, deadline, workdir, traced, speed) -> dict:
    """All jobs in one fresh worker process, sharing the package's caches."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "timeout_s": JOB_TIMEOUT_S}, fh)
    cmd = [sys.executable, str(BENCH / "worker.py"), spec_path] + (["--trace"] if traced else [])
    timeout = deadline - perf_counter()
    if timeout <= 0:
        return _pass(traced, [_not_started(j, "not started: run deadline reached") for j in jobs])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return _pass(traced, [_not_started(j, "worker killed at the run deadline") for j in jobs])
    finally:
        speed.reset()      # the worker scaled its own jobs; the parent's estimate is stale
    if proc.returncode != 0:
        why = "worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])
        return _pass(traced, [_not_started(j, why) for j in jobs])
    doc = json.loads(proc.stdout)
    check_source(doc["zigzaghh_file"])
    done = {r["id"]: r for r in doc["jobs"]}
    recs, answers = [], []
    for job in jobs:
        r = done[job["id"]]
        if "error" in r:
            problems = [r["error"]]
        elif job["kind"] == "pipeline":
            problems = checks.check_pipeline(job, r["dims"], ref)
            answers.append((job, r["dims"]))
        else:
            problems = checks.check_cli(job, r["exit"], r["stdout"], ref)
        recs.append({"id": job["id"], "seconds": r["seconds"], "ref_s": r["ref_s"],
                     "problems": problems, "answer": r})
    disagree = checks.agreement_problems(answers)
    for job, rec in zip(jobs, recs):
        answer = rec.pop("answer")
        rec["problems"] += disagree.get(rec["id"], [])
        rec["cells"] = 0 if rec["problems"] else len(checks.answer_cells(job, answer))
    trace = doc["trace"] or {}
    return _pass(traced, recs, trace.get("raw"), trace.get("missing"), trace.get("absent"))


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    """The end-to-end metrics, on times scaled to the reference speed (clock.py)."""
    plain = [p for p in passes if not p["traced"]]

    def rate(key):
        return stats.median_n(sum(r["cells"] for r in p["jobs"]) / p[key] if p[key] else 0.0
                              for p in plain)

    (cells_per_s, n_pass), (raw_rate, _) = rate("ref_pass_s"), rate("pass_s")
    job_s, n_job, n_sample = stats.job_median((r["id"], r["ref_s"]) for p in plain for r in p["jobs"])
    raw_job_s = stats.job_median((r["id"], r["seconds"]) for p in plain for r in p["jobs"])[0]
    setup_s, n_setup = stats.median_n(setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    values = {"cells_per_s": cells_per_s, "job_s.p50": job_s, "peak_rss_mb": rss_mb,
              "setup_s": setup_s}
    notes = {"cells_per_s": "median of %d passes (unscaled %.6g)" % (n_pass, raw_rate),
             "job_s.p50": "median of %d jobs, %d samples (unscaled %.6g)"
                          % (n_job, n_sample, raw_job_s),
             "peak_rss_mb": "largest job process",
             "setup_s": "median of %d set-ups" % n_setup}
    return values, notes


def per_layer(passes, names) -> tuple[dict, dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [stats.derive_layer_metrics(p["raw"], p["pass_s"],
                                           p["ref_pass_s"] / p["pass_s"] if p["pass_s"] else 1.0)
                for p in traced]
    values = {n: stats.median_n(d.get(n, 0.0) for d in per_pass)[0] for n in names}
    plain_s = stats.median_n(p["ref_pass_s"] for p in plain)[0]
    values["trace_overhead_frac"] = (stats.median_n(p["ref_pass_s"] for p in traced)[0] / plain_s - 1
                                     if plain_s else 0.0)
    missing = {}
    for p in traced:
        missing.update(p["missing"])
    absent = {layer for p in traced for layer in p["absent"]}
    notes = {n: "median of %d traced passes" % len(traced) for n in names}
    for layer in absent:
        for n in names:
            if n.startswith(layer + "."):
                values[n] = None
    return values, notes, missing


def provenance(args, module_file) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit or "unknown (not a git checkout)",
            "zigzaghh_file": module_file, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = start + RUN_DEADLINE_S
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    env = job_env()
    clock.pin_to_one_cpu()
    speed = clock.SpeedScale(clock.PROCESS_LOOP_ITERS)
    try:
        if not (SRC / "zigzaghh" / "__init__.py").is_file():
            raise CheckoutError("no zigzaghh package under %s" % SRC)
        _, module_file = measure_setup(env, 1, speed)
    except CheckoutError as exc:
        sys.stderr.write("hhbench: %s\n" % exc)
        return 2

    mode = workloads.MODES[args.workload]
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as workdir:
        if mode == "cold":
            cold = workloads.cold_jobs(args.workload, args.seed)
            run_pass = run_cold_pass

            def jobs_for(pass_index):
                return cold
        else:
            graphs = workloads.write_random_graphs(args.seed, workdir)
            run_pass = run_warm_pass

            def jobs_for(pass_index):
                return workloads.warm_jobs(graphs, args.seed, pass_index)
        kinds = (False, True) if args.trace else (False,)
        passes, setup_samples = [], []
        t0 = perf_counter()
        try:
            while True:
                for traced in kinds:
                    setup_samples += measure_setup(env, SETUP_PER_PASS, speed)[0]
                    passes.append(run_pass(jobs_for(len(passes)), env, ref, deadline, workdir,
                                           traced, speed))
                elapsed = perf_counter() - t0
                per_round = elapsed * len(kinds) / len(passes)
                if elapsed + per_round > args.seconds or perf_counter() + per_round > deadline:
                    break
        except CheckoutError as exc:
            sys.stderr.write("hhbench: %s\n" % exc)
            return 2

    recs = [r for p in passes for r in p["jobs"]]
    attempted = len(recs)
    failed = sum(1 for r in recs if r["problems"])
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, notes, missing = per_layer(passes, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, notes = end_to_end(passes, setup_samples)
        missing = {}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    out = sys.stdout
    out.write("hhbench %s (%s), seed %d, %d passes, trace %d\n"
              % (args.workload, mode, args.seed, len(passes), args.trace))
    for name, unit in units.items():
        v = values[name]
        shown = "MISSING" if v is None else "%.6g" % v
        out.write("  %-26s %12s %-8s %s\n" % (name, shown, unit, notes.get(name, "")))
    out.write("  %-26s %12.6g %-8s %d failed / %d attempted\n"
              % ("error_rate", stats.error_rate(attempted, failed), "fraction", failed, attempted))
    for layer, names in sorted(missing.items()):
        out.write("  layer %s: entry points missing: %s\n" % (layer, ", ".join(names)))
    for r in recs:
        for problem in r["problems"]:
            out.write("  FAILED %s: %s\n" % (r["id"], problem))
    out.write("provenance %s\n" % json.dumps(provenance(args, module_file), sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        layer = name.split(".")[0]
        if layer in missing:
            metrics[name]["missing"] = missing[layer]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out.write(json.dumps(result) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
