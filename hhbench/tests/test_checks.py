"""The answer checker catches wrong answers; the tracer reports what it saw."""

import json
import os
import subprocess
import sys

import checks
import workloads
from conftest import BENCH

with open(BENCH / "reference.json", encoding="utf-8") as fh:
    REF = json.load(fh)

CLASSIFY = next(j for j in workloads.cold_jobs("trace-classify", 0)
                if j["argv"][:3] == ["classify", "--graph", "E~8"])
HH2_DEEP = next(j for j in workloads.cold_jobs("ginzburg-deep", 0) if "E~8" in j["argv"])


def _classify_payload(dims, verdict):
    return json.dumps({"results": [{"p": 2, "q": q, "method": "trace", "dim": d}
                                   for q, d in enumerate(dims, start=1)],
                       "verdict": verdict})


GOOD_DIMS = [REF["hh2"]["E~8"]["0"][str(q)] for q in range(1, 11)]
GOOD_VERDICT = "nonzero HH^{2,q} at q in {10} => NOT intrinsically formal (bound N=10)"


def test_correct_classify_passes():
    assert checks.check_cli(CLASSIFY, 0, _classify_payload(GOOD_DIMS, GOOD_VERDICT), REF) == []


def test_wrong_dimension_is_caught():
    bad = list(GOOD_DIMS)
    bad[3] += 1
    assert checks.check_cli(CLASSIFY, 0, _classify_payload(bad, GOOD_VERDICT), REF)


def test_wrong_verdict_missing_degree_and_exit_code_are_caught():
    formal = "no nonzero HH^{2,q} for 0 < q <= 10 (consistent with intrinsic formality)"
    assert checks.check_cli(CLASSIFY, 0, _classify_payload(GOOD_DIMS, formal), REF)
    assert checks.check_cli(CLASSIFY, 0, _classify_payload(GOOD_DIMS[:9], GOOD_VERDICT), REF)
    assert checks.check_cli(CLASSIFY, 2, "", REF)
    assert checks.check_cli(CLASSIFY, 0, "not json", REF)


def test_hh2_checks_degree_and_method():
    dim = REF["hh2"]["E~8"]["0"]["10"]
    good = json.dumps({"results": [{"p": 2, "q": 10, "method": "ginzburg", "dim": dim}]})
    wrong_method = good.replace("ginzburg", "trace")
    assert checks.check_cli(HH2_DEEP, 0, good, REF) == []
    assert checks.check_cli(HH2_DEEP, 0, wrong_method, REF)
    assert checks.check_cli(HH2_DEEP, 0, good.replace('"dim": %d' % dim, '"dim": 0'), REF)


def test_witness_strings_are_not_compared():
    payload = json.loads(_classify_payload(GOOD_DIMS, GOOD_VERDICT))
    payload["witness_cycle"] = "any necklace representative"
    assert checks.check_cli(CLASSIFY, 0, json.dumps(payload), REF) == []


def test_expected_nonzero_exit_and_ainfty_booleans():
    job = {"argv": ["hh2"], "expect_exit": 3}
    assert checks.check_cli(job, 3, "", REF) == []
    assert checks.check_cli(job, 0, "{}", REF)
    ainfty = {"argv": ["ainfty-check", "--arity", "7"]}
    good = {"cocycle": True, "coboundary": False, "results": [{"dim": 1}],
            "stasheff": {"violations": []}}
    assert checks.check_cli(ainfty, 0, json.dumps(good), REF) == []
    assert checks.check_cli(ainfty, 0, json.dumps(dict(good, coboundary=True)), REF)


def test_pipeline_reference_and_agreement():
    job = {"id": "trace D~4 char 0", "graph": "D~4", "char": 0, "method": "trace",
           "qs": [1, 2], "ref": "D~4"}
    table = REF["hh2"]["D~4"]["0"]
    good = [table["1"], table["2"]]
    assert checks.check_pipeline(job, good, REF) == []
    assert checks.check_pipeline(job, [good[0], good[1] + 1], REF)
    assert checks.check_pipeline(job, good[:1], REF)
    rand = dict(job, ref=None, graph="tree-a")
    other = dict(rand, id="ginzburg tree-a", method="ginzburg")
    assert checks.agreement_problems([(rand, [0, 1]), (other, [0, 1])]) == {}
    bad = checks.agreement_problems([(rand, [0, 1]), (other, [0, 2])])
    assert set(bad) == {rand["id"], other["id"]}


def test_cell_counting():
    pipe = {"kind": "pipeline"}
    assert len(checks.answer_cells(pipe, {"dims": [0, 1, 2]})) == 3
    assert checks.answer_cells(pipe, {"error": "timed out"}) == []
    cli = {"kind": "cli"}
    preproj = {"results": [{"dim": 5, "method": "lambda"}, {"dim": 0, "method": "trace"}]}
    assert len(checks.answer_cells(cli, {"stdout": json.dumps(preproj)})) == 2
    assert len(checks.answer_cells(cli, {"stdout": json.dumps({"results": [{"dim": 1}]})})) == 1
    assert checks.answer_cells(cli, {"stdout": ""}) == []


def test_reference_is_cross_validated():
    # ADE graphs in good characteristic vanish; E8 over F5 and extended graphs do not
    assert not any(REF["hh2"]["E8"]["0"].values())
    assert any(REF["hh2"]["E8"]["5"].values())
    for g in ("D~4", "D~6", "E~6", "E~8", "D~8"):
        for table in REF["hh2"][g].values():
            assert any(table.values()), g


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    return subprocess.run([sys.executable, *args], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=120)


def test_traced_job_records_layers(tmp_path):
    out = tmp_path / "trace.json"
    proc = _python("tracer.py", str(out), "hh2", "--graph", "D4", "--char", "2",
                   "--q", "1..2", "--method", "all")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    raw = doc["raw"]
    assert doc["missing"] == {} and doc["absent"] == []
    for layer in ("cli", "quiver", "pathalg", "preproj", "ginzburg", "zigzag", "exactla"):
        assert raw[layer + ".calls"] > 0, layer
    assert raw["cli.calls"] == 1
    assert raw["exactla.rows_in"] >= raw["exactla.rank"] > 0
    assert "exactla.self_s.fp" in raw and "exactla.self_s.qq" not in raw


def test_missing_entry_point_is_named_not_zeroed():
    proc = _python("-c", "import json, tracer\n"
                   "tracer.ENTRY_POINTS['ainfty'] = ['zigzaghh.ainfty:no_such_function']\n"
                   "t = tracer.Tracer(); t.install(); print(json.dumps(t.report()))\n")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["missing"] == {"ainfty": ["zigzaghh.ainfty:no_such_function"]}
    assert doc["absent"] == ["ainfty"]
