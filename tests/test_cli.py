"""CLI behavior: outputs, exit codes, determinism, file ingestion."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from zigzaghh.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv, "--out", "json")
    return code, json.loads(out)


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; an earlier call's options and
    # errors leave nothing behind for the next
    from zigzaghh.cli import build_parser
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["hh2", "--graph", "A3", "--method", "nope"])
    capsys.readouterr()
    job = ("hh2", "--graph", "D~4", "--q", "2", "--method", "trace")
    _, shown = _run_json(capsys, *job, "--witnesses")
    _, plain = _run_json(capsys, *job)
    assert shown["results"][0]["witnesses"] and "witnesses" not in plain["results"][0]
    assert plain["job"] == {"command": "hh2", "graph": "D~4", "char": 0, "method": "trace",
                            "q": [2, 2], "orientation": "sink-source"}


def test_preproj_a2(capsys):
    code, doc = _run_json(capsys, "preproj", "--graph", "A2", "--char", "0", "--max", "4")
    assert code == 0
    lam = {r["q"]: r["dim"] for r in doc["results"] if r["method"] == "lambda"}
    assert [lam[n] for n in range(5)] == [2, 2, 0, 0, 0]
    assert doc.get("finite_dimensional") is True


def test_preproj_a1(capsys):
    code, doc = _run_json(capsys, "preproj", "--graph", "A1", "--char", "0", "--max", "3")
    assert code == 0
    lam = {r["q"]: r["dim"] for r in doc["results"] if r["method"] == "lambda"}
    assert [lam[n] for n in range(4)] == [1, 0, 0, 0]


def test_preproj_extended_d4_never_flags_finiteness(capsys):
    code, doc = _run_json(capsys, "preproj", "--graph", "D~4", "--char", "0", "--max", "6")
    assert code == 0
    assert "finite_dimensional" not in doc
    lam = {r["q"]: r["dim"] for r in doc["results"] if r["method"] == "lambda"}
    assert all(lam[n] > 0 for n in range(7))


def test_preproj_koszul_dual_variant(capsys):
    code, doc = _run_json(capsys, "preproj", "--graph", "A3", "--char", "0",
                          "--max", "4", "--variant", "koszul-dual")
    assert code == 0
    kd = {r["q"]: r["dim"] for r in doc["results"] if r["method"] == "koszul-dual"}
    assert [kd[n] for n in range(5)] == [3, 4, 3, 0, 0]


def test_hh2_d4_good_char_all_methods_agree(capsys):
    code, doc = _run_json(capsys, "hh2", "--graph", "D4", "--char", "0",
                          "--q", "1..6", "--method", "all")
    assert code == 0
    assert doc["agreement"] is True
    assert doc["compared"] == ["ginzburg", "trace", "zigzag"]
    assert all(r["dim"] == 0 for r in doc["results"])


def test_hh2_d4_char2_sees_the_deformation(capsys):
    code, doc = _run_json(capsys, "hh2", "--graph", "D4", "--char", "2", "--q", "1..6")
    assert code == 0
    assert any(r["dim"] > 0 for r in doc["results"])
    assert doc["agreement"] is True


def test_hh2_extended_d4_methods_agree_nonzero(capsys):
    code, doc = _run_json(capsys, "hh2", "--graph", "D~4", "--char", "0",
                          "--q", "2", "--method", "all")
    assert code == 0
    dims = {r["method"]: r["dim"] for r in doc["results"]}
    assert dims["ginzburg"] == dims["trace"] == dims["zigzag"] == 2


def test_hh2_zigzag_method_rejects_non_trees(capsys, tmp_path):
    f = tmp_path / "triangle.json"
    f.write_text('{"vertices": 3, "edges": [[1,2],[2,3],[1,3]]}')
    code = main(["hh2", "--graph", str(f), "--char", "0", "--q", "1", "--method", "zigzag"])
    assert code == 3


def test_hh2_all_reports_skipped_zigzag_degrees(capsys):
    code, doc = _run_json(capsys, "hh2", "--graph", "D4", "--q", "1..10")
    assert code == 0
    assert {r["q"] for r in doc["results"] if r["method"] == "zigzag"} == set(range(1, 9))
    assert [(s["q"], s["method"]) for s in doc["skipped"]] == [(9, "zigzag"), (10, "zigzag")]
    assert all("cap" in s["reason"] for s in doc["skipped"])
    _, out = _run(capsys, "hh2", "--graph", "D4", "--q", "1..10")
    assert out.count("skipped: ") == 2
    assert "agreement across methods: yes (ginzburg, trace, zigzag)\n" in out
    _, doc = _run_json(capsys, "hh2", "--graph", "A~3", "--q", "2")
    assert doc["skipped"] == [{"q": 2, "method": "zigzag",
                               "reason": "graph is not a tree (derived Koszul duality hypothesis)"}]
    assert doc["compared"] == ["ginzburg", "trace"]
    _, out = _run(capsys, "hh2", "--graph", "A~3", "--q", "2")
    assert out.endswith("agreement across methods: yes (ginzburg, trace)\n")
    _, doc = _run_json(capsys, "hh2", "--graph", "D4", "--q", "1..8")
    assert "skipped" not in doc


def test_hh2_all_disagreement_exits_4(capsys, monkeypatch):
    from zigzaghh import cli
    from zigzaghh.reports import HHReport
    hh2_dim = cli.ginzburg.hh2_dim

    def off_by_one(*args, **kwargs):
        rep = hh2_dim(*args, **kwargs)
        return HHReport(rep.p, rep.q, rep.method, rep.dimension + 1, rep.representatives)

    monkeypatch.setattr(cli.ginzburg, "hh2_dim", off_by_one)
    code, doc = _run_json(capsys, "hh2", "--graph", "D4", "--q", "1..2")
    assert code == cli.EXIT_DISAGREE == 4
    assert doc["agreement"] is False
    code, out = _run(capsys, "hh2", "--graph", "D4", "--q", "1..2")
    assert code == 4
    assert out.endswith("agreement across methods: NO (ginzburg, trace, zigzag)\n")
    # a single method has nothing to disagree with
    assert main(["hh2", "--graph", "D4", "--q", "1..2", "--method", "ginzburg"]) == 0


def test_hh2_zigzag_witnesses_pinned(capsys):
    # recorded before the cochain words were walked by cycle budget and the
    # witnesses kept one echelon: the basis order and the kernel basis fix
    # every witness
    golden = pathlib.Path(__file__).parent / "golden" / "hh2-zigzag-D~4-char0.json"
    code, out = _run(capsys, "hh2", "--graph", "D~4", "--char", "0", "--q", "1..6",
                     "--method", "zigzag", "--witnesses", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


def test_hh2_zigzag_witnesses_pinned_deep(capsys):
    # recorded before the witness scan walked sparse kernel vectors one at
    # a time; at q = 8 every cochain is a cocycle and two names are kept
    golden = pathlib.Path(__file__).parent / "golden" / "hh2-zigzag-D~4-char0-q7-8.json"
    code, out = _run(capsys, "hh2", "--graph", "D~4", "--char", "0", "--q", "7..8",
                     "--method", "zigzag", "--witnesses", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("graph,char", [pytest.param("D~4", 0, id="0"),
                                        pytest.param("D~4", 2, id="2"),
                                        pytest.param("D~6", 0, id="D~6-0"),
                                        pytest.param("E~6", 3, id="E~6-3")])
def test_hh2_ginzburg_witnesses_pinned(capsys, graph, char):
    # D~4 recorded before basis_of_bidegree walked by loop budget, D~6 and
    # E~6 before the short rows went to the union-find: the basis order and
    # the pivot profile fix every witness, and single-method runs carry no
    # "compared" list
    golden = pathlib.Path(__file__).parent / "golden" / ("hh2-ginzburg-%s-char%d.json"
                                                         % (graph, char))
    code, out = _run(capsys, "hh2", "--graph", graph, "--char", str(char), "--q", "1..8",
                     "--method", "ginzburg", "--witnesses", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


def test_hh2_trace_witnesses_pinned(capsys):
    # recorded while the trace was still eliminated on necklaces: the greedy
    # scan over the table of Lambda must keep that matrix's free necklaces
    golden = pathlib.Path(__file__).parent / "golden" / "hh2-trace-D~4-char2.json"
    code, out = _run(capsys, "hh2", "--graph", "D~4", "--char", "2", "--q", "0..8",
                     "--method", "trace", "--witnesses", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("char", [2, 3])
def test_hh2_trace_witnesses_on_torsion_cells_pinned(capsys, char):
    # recorded while every field built and eliminated its own table of Lambda:
    # E8 has classes over F2 and F3 that vanish over Q, where the field
    # eliminates the integral trace rows mod p even when it reads a Q table
    golden = pathlib.Path(__file__).parent / "golden" / ("hh2-trace-E8-char%d.json" % char)
    code, out = _run(capsys, "hh2", "--graph", "E8", "--char", str(char), "--q", "1..8",
                     "--method", "trace", "--witnesses", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


def test_hh2_below_minus_two_is_zero_for_every_method(capsys):
    # no cycle has negative length, so the trace answers 0 there as the
    # other two pipelines do, with no witnesses
    code, doc = _run_json(capsys, "hh2", "--graph", "A2", "--q=-4..2", "--method", "all",
                          "--witnesses")
    assert code == 0 and doc["agreement"] is True
    low = [r for r in doc["results"] if r["q"] < -2]
    assert sorted((r["q"], r["method"]) for r in low) == [
        (q, m) for q in (-4, -3) for m in ("ginzburg", "trace", "zigzag")]
    assert all(r["dim"] == 0 and r["witnesses"] == [] for r in low)
    code, out = _run(capsys, "hh2", "--graph", "A2", "--q=-4..2", "--method", "all")
    assert code == 0 and "agreement across methods: yes" in out
    code, doc = _run_json(capsys, "hh2", "--graph", "D~4", "--q=-5..-3", "--method", "trace")
    assert code == 0 and [r["dim"] for r in doc["results"]] == [0, 0, 0]


@pytest.mark.parametrize("method", ["ginzburg", "trace", "zigzag", "all"])
def test_hh2_negative_range_is_read_with_or_without_equals(capsys, method):
    # argparse would read -3..1 after a space as an option and exit 2
    # ("expected one argument"); both spellings give the same bytes
    outs = []
    for q in (["--q", "-3..1"], ["--q=-3..1"]):
        for out in ("table", "json"):
            code, text = _run(capsys, "hh2", "--graph", "A3", *q, "--method", method,
                              "--out", out)
            assert code == 0, (q, out)
            outs.append(text)
    assert outs[:2] == outs[2:]
    doc = json.loads(outs[1])
    ran = [m for m in ("ginzburg", "trace", "zigzag") if method in (m, "all")]
    assert sorted((r["q"], r["method"]) for r in doc["results"]) == \
        sorted((q, m) for q in range(-3, 2) for m in ran)
    # a plain negative number was read before, and still is the same
    assert _run(capsys, "hh2", "--graph", "A3", "--q", "-3", "--method", method) == \
        _run(capsys, "hh2", "--graph", "A3", "--q=-3", "--method", method)
    # a malformed range after a space reaches the flag's own message
    assert main(["hh2", "--graph", "A3", "--q", "-3..", "--method", method]) == 2
    assert capsys.readouterr().err == \
        "error: --q must be an integer or a range a..b, got '-3..'\n"


@pytest.mark.parametrize("graph,char", [("E~8", 0), ("E~6", 2), ("D~6", 0)])
def test_hh2_ginzburg_q10_jobs_pinned(capsys, graph, char):
    # the ginzburg-deep benchmark jobs with witnesses, recorded before the
    # small complex dropped its redundant relation columns: the free
    # columns depend only on the row space, so the bytes must not move
    golden = pathlib.Path(__file__).parent / "golden" / ("hh2-ginzburg-q10-%s-char%d.json"
                                                         % (graph, char))
    code, out = _run(capsys, "hh2", "--graph", graph, "--char", str(char), "--q", "10",
                     "--method", "ginzburg", "--witnesses", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


def test_hh2_ginzburg_deep_d4_is_pinned_and_matches_the_trace(capsys):
    # recorded before the long rows that turn short went to the union-find:
    # at q = 10..14 most relation columns settle there, and the free
    # necklaces, which depend only on the row space, must not move; the
    # dimensions are those of the trace golden that CI diffs beside it
    golden = pathlib.Path(__file__).parent / "golden"
    deep = golden / "hh2-ginzburg-D~4-char0-q10-14.json"
    code, out = _run(capsys, "hh2", "--graph", "D~4", "--char", "0", "--q", "10..14",
                     "--method", "ginzburg", "--witnesses", "--out", "json")
    assert code == 0
    assert out == deep.read_text()
    dims = {name: [r["dim"] for r in json.loads((golden / name).read_text())["results"]]
            for name in (deep.name, "hh2-trace-D~4-char0-q10-14.json")}
    assert list(dims.values()) == [[4, 0, 3, 0, 5]] * 2


@pytest.mark.parametrize("command,graph,char", [("classify", "E~8", 0), ("classify", "D~8", 3),
                                                ("classify", "E8", 5), ("preproj", "E~8", 0)])
def test_trace_classify_jobs_pinned(capsys, command, graph, char):
    # recorded before all_cycles became the closed walk and the relation
    # rows went to the kernel without deduplication: the necklace order and
    # the pivot profile fix every dimension and witness
    golden = pathlib.Path(__file__).parent / "golden" / ("%s-%s-char%d.json"
                                                         % (command, graph, char))
    code, out = _run(capsys, command, "--graph", graph, "--char", str(char), "--max", "10",
                     "--out", "json")
    assert code == 0
    assert out == golden.read_text()


def test_preproj_koszul_dual_pinned(capsys):
    # recorded before the relation rows became r_v inserted into the shorter
    # words; CI diffs the installed package's output against the same file
    golden = pathlib.Path(__file__).parent / "golden" / "preproj-koszul-dual-A~2-char3.json"
    code, out = _run(capsys, "preproj", "--graph", "A~2", "--char", "3", "--variant",
                     "koszul-dual", "--max", "8", "--out", "json")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("argv", [("classify", "--max", "0"), ("classify", "--max", "-3"),
                                  ("preproj", "--max", "-1"), ("preproj", "--max", "-2")])
def test_empty_search_bound_exits_2(capsys, argv):
    # a verdict over no degrees at all would claim more than was searched
    assert main([argv[0], "--graph", "A3", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --max must be >= ")


def test_smallest_search_bounds_still_run(capsys):
    code, doc = _run_json(capsys, "classify", "--graph", "A3", "--max", "1")
    assert code == 0 and [r["q"] for r in doc["results"]] == [1]
    code, doc = _run_json(capsys, "preproj", "--graph", "A3", "--max", "0")
    assert code == 0 and [r["q"] for r in doc["results"]] == [0, 0]


@pytest.mark.parametrize("text", ['{"vertices": 3, "edges": [1, 2]}',
                                  '{"vertices": null, "edges": []}',
                                  '{"vertices": 3, "edges": "ab"}'])
def test_malformed_graph_file_exits_2(capsys, tmp_path, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["classify", "--graph", str(f), "--max", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_huge_disconnected_graph_refused_quickly(capsys, tmp_path):
    f = tmp_path / "sparse.json"
    f.write_text('{"vertices": %d, "edges": [[1, 2]]}' % 10 ** 12)
    t0 = time.perf_counter()
    assert main(["classify", "--graph", str(f), "--max", "2"]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert "not connected" in capsys.readouterr().err


def test_hh2_invalid_graph_label(capsys):
    assert main(["hh2", "--graph", "Z9", "--char", "0", "--q", "1"]) == 2


@pytest.mark.parametrize("text", ["..2", "1..", "a"])
def test_hh2_malformed_q_names_the_flag(capsys, text):
    assert main(["hh2", "--graph", "A3", "--q", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --q must be an integer or a range a..b, got %r\n" % text


def test_hh2_invalid_characteristic(capsys):
    assert main(["hh2", "--graph", "A2", "--char", "6", "--q", "1"]) == 2


def test_hh2_large_prime_characteristic(capsys):
    code, doc = _run_json(capsys, "hh2", "--graph", "A2", "--char", str(2 ** 61 - 1), "--q", "1")
    assert code == 0
    assert all(r["dim"] == 0 for r in doc["results"])


def test_hh2_large_composite_characteristic(capsys):
    composite = (2 ** 61 - 1) * 1000003
    assert main(["hh2", "--graph", "A2", "--char", str(composite), "--q", "1"]) == 2
    assert main(["hh2", "--graph", "A2", "--char", str(10 ** 30), "--q", "1"]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("graph, char, witness", [
    ("D~8", "3", "a8* a8 a7* a7"),
    ("E8", "5", "a7* a7 a7* a7 a7* a7 a7* a7 a3* a3"),
    ("E~8", "0", "a8* a8 a7* a7 a8* a8 a7* a7 a8* a8 a7* a7"),
    ("D~4", "0", "a4* a4 a2* a2"),
])
def test_classify_witness_cycles_pinned(capsys, graph, char, witness):
    code, doc = _run_json(capsys, "classify", "--graph", graph, "--char", char, "--max", "10")
    assert code == 0
    assert doc["witness_cycle"] == witness


def test_classify_a5_consistent_with_formality(capsys):
    code, doc = _run_json(capsys, "classify", "--graph", "A5", "--char", "0", "--max", "8")
    assert code == 0
    assert "consistent with intrinsic formality" in doc["verdict"]
    assert all(r["dim"] == 0 for r in doc["results"])


def test_classify_e6_char2_not_formal(capsys):
    code, doc = _run_json(capsys, "classify", "--graph", "E6", "--char", "2", "--max", "8")
    assert code == 0
    assert "NOT intrinsically formal" in doc["verdict"]
    nonzero = [r["q"] for r in doc["results"] if r["dim"] > 0]
    assert 2 in nonzero  # regression: first witness Adams degree


def test_classify_extended_d4_witnesses(capsys):
    code, doc = _run_json(capsys, "classify", "--graph", "D~4", "--char", "0", "--max", "6")
    assert code == 0
    assert "NOT intrinsically formal" in doc["verdict"]
    assert doc["witness_cycle"].count(" ") == 3  # a length-4 cycle


def test_classify_non_tree_notes_the_invariant(capsys):
    code, doc = _run_json(capsys, "classify", "--graph", "A~2", "--char", "0", "--max", "4")
    assert code == 0
    assert "NOT intrinsically formal" in doc["verdict"]
    assert "tree-only" in doc["note"]
    code2, doc2 = _run_json(capsys, "classify", "--graph", "A4", "--char", "0", "--max", "4")
    assert code2 == 0 and "note" not in doc2


def test_classify_verdict_carries_bound(capsys):
    _, doc = _run_json(capsys, "classify", "--graph", "A2", "--char", "0", "--max", "5")
    assert "<= 5" in doc["verdict"]
    assert doc["bound"] == 5


def test_ainfty_check_default(capsys):
    code, doc = _run_json(capsys, "ainfty-check")
    assert code == 0
    assert doc["cocycle"] is True
    assert doc["coboundary"] is False
    assert doc["stasheff"]["violations"] == []


def test_ainfty_check_scaled(capsys):
    code, doc = _run_json(capsys, "ainfty-check", "--scale", "7")
    assert code == 0 and doc["cocycle"] and not doc["coboundary"]


def test_ainfty_check_scale_zero_is_trivial_and_exits_1(capsys):
    code, doc = _run_json(capsys, "ainfty-check", "--scale", "0")
    assert code == 1
    assert doc["cocycle"] is True and doc["coboundary"] is True


def test_ainfty_check_arity_above_max_exits_2_before_any_walk(capsys, monkeypatch):
    from zigzaghh import cli
    calls = []
    check_stasheff = cli.ainfty.check_stasheff

    def spy(candidate, max_arity):
        calls.append(max_arity)
        return check_stasheff(candidate, 2)

    monkeypatch.setattr(cli.ainfty, "check_stasheff", spy)
    assert cli.MAX_ARITY >= 7   # the benchmark runs --arity 7
    for arity in (cli.MAX_ARITY + 1, 12, 10 ** 6):
        assert main(["ainfty-check", "--arity", str(arity)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--arity must be <= %d" % cli.MAX_ARITY in captured.err
    assert calls == []
    assert main(["ainfty-check", "--arity", str(cli.MAX_ARITY)]) == 0
    assert calls == [cli.MAX_ARITY]


@pytest.mark.parametrize("method", ["ginzburg", "trace", "all"])
def test_hh2_above_cycle_cap_exits_2_before_any_walk(capsys, monkeypatch, method):
    # E~8 has tr(A^18) = 535,846 closed walks of length 18: counted, not walked
    from zigzaghh import cli, ginzburg, pathalg, preproj
    calls = []

    def spy(q, n):
        calls.append(n)
        return []

    for module, name in ((pathalg, "all_cycles"), (pathalg, "all_necklaces"),
                         (pathalg, "necklaces_descending"), (ginzburg, "all_cycles"),
                         (ginzburg, "all_necklaces"), (preproj, "necklaces_descending")):
        monkeypatch.setattr(module, name, spy)
    assert 135_488 <= cli.MAX_CYCLES < 477_434   # E~8 at q = 14, E8 at q = 16
    for q, err in (("14..17", "--q 16 needs 535846 closed walks of length 18"),
                   ("16", "--q 16 needs 535846 closed walks of length 18"),
                   ("40..41", "--q 40 needs at least 535846 closed walks of length 42"),
                   ("128", "--q 128 needs at least 535846 closed walks of length 130")):
        assert main(["hh2", "--graph", "E~8", "--q", q, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + err)
        assert captured.err.endswith(", above the cap of %d\n" % cli.MAX_CYCLES)
    assert calls == []


def test_classify_above_cycle_cap_exits_2_before_any_walk(capsys, monkeypatch):
    # E8 has tr(A^18) = 477,434 closed walks of length 18: counted, not walked
    from zigzaghh import cli, pathalg, preproj
    calls = []

    def spy(q, n):
        calls.append(n)
        return []

    for module, name in ((pathalg, "all_cycles"), (pathalg, "all_necklaces"),
                         (pathalg, "necklaces_descending"), (preproj, "necklaces_descending")):
        monkeypatch.setattr(module, name, spy)
    assert main(["classify", "--graph", "E8", "--max", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --q 16 needs 477434 closed walks of length 18, "
                            "above the cap of %d\n" % cli.MAX_CYCLES)
    assert calls == []


def test_preproj_above_word_cap_exits_2_before_any_walk(capsys, monkeypatch):
    # the relation rows of E~8 up to degree 14 hold 9,774,434 letters and
    # those of A3 up to degree 24 hold 9,281,454: counted, not walked
    # (the walks and the elimination that builds the table of Lambda are
    # spied, so that a missing cap fails fast)
    from zigzaghh import cli, pathalg, preproj
    from zigzaghh.quiver import parse_label
    calls = []

    def spy(*args):
        calls.append(args[-1])
        return []

    monkeypatch.setattr(pathalg, "all_words", spy)
    monkeypatch.setattr(pathalg, "all_cycles", spy)
    monkeypatch.setattr(pathalg, "all_necklaces", spy)
    monkeypatch.setattr(pathalg, "necklaces_descending", spy)
    monkeypatch.setattr(preproj, "necklaces_descending", spy)
    monkeypatch.setattr(preproj, "echelonize", spy)
    for graph, top, count in (("E~8", 30, "at least 9774434"), ("E~8", 14, "9774434"),
                              ("A3", 30, "at least 9281454")):
        for variant in ("preprojective", "koszul-dual"):
            assert main(["preproj", "--graph", graph, "--max", str(top),
                         "--variant", variant]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: --max %d needs %s letters of relation rows, above "
                                    "the cap of %d\n" % (top, count, cli.MAX_PREPROJ_LETTERS))
    assert calls == []
    cli._check_word_count(parse_label("E~8"), 13)
    cli._check_word_count(parse_label("D~4"), 14)
    cli._check_word_count(parse_label("A3"), 23)


@pytest.mark.parametrize("label", ["A1", "A2", "A~2", "D~4", "E6"])
def test_preproj_letter_count_is_the_rows(monkeypatch, label):
    # the count from adjacency powers equals the letters of the all-words
    # relation rows, one per word of length n - 2 and cut, keyed by words of
    # n letters, that the cap was sized on
    from oracle import oracle_relation_rows
    from zigzaghh import cli, preproj
    from zigzaghh.pathalg import all_words
    from zigzaghh.quiver import double, orient_by_edge_order, parse_label
    g = parse_label(label)
    quiv = orient_by_edge_order(g)
    qd = double(quiv)
    rels = preproj.preprojective_relations(quiv)
    letters = 0
    for top in range(8):
        if top >= 2:
            index = {w.letters: k for k, w in enumerate(all_words(qd, top))}
            rows = oracle_relation_rows(qd, rels, all_words(qd, top - 2), index)
            letters += top * sum(1 for _ in rows)
        monkeypatch.setattr(cli, "MAX_PREPROJ_LETTERS", letters)
        cli._check_word_count(g, top)
        if letters:
            monkeypatch.setattr(cli, "MAX_PREPROJ_LETTERS", letters - 1)
            with pytest.raises(cli.CliError, match=" %d letters of " % letters):
                cli._check_word_count(g, top)


@pytest.mark.parametrize("argv,named", [
    (("classify", "--graph", "A2", "--max", "1200"), "--max 1200"),
    (("preproj", "--graph", "A2", "--max", "2000"), "--max 2000"),
    (("preproj", "--graph", "A2", "--max", "129", "--variant", "koszul-dual"), "--max 129"),
    (("hh2", "--graph", "A2", "--q", "1200", "--method", "ginzburg"), "--q 1200"),
    (("hh2", "--graph", "A2", "--q", "1200", "--method", "zigzag"), "--q 1200"),
    (("hh2", "--graph", "A2", "--q", "990", "--method", "trace"), "--q 990"),
    (("hh2", "--graph", "A2", "--q", "0..129", "--method", "all"), "--q 129"),
    (("hh2", "--graph", "A1", "--q", "99999999999", "--method", "trace"), "--q 99999999999"),
    (("hh2", "--graph", "A2", "--q=-100000000..1", "--method", "ginzburg"), "--q -100000000"),
    (("hh2", "--graph", "A~2", "--q=-129..-129", "--method", "zigzag"), "--q -129"),
])
def test_degree_above_cap_exits_2_before_any_count_or_walk(capsys, monkeypatch, argv, named):
    # a word walk takes a step per letter, A1 never passes the closed-walk
    # cap, and hh2 steps through every degree of its range: all are refused
    # before any count, and a non-tree is refused here before exit 3
    from zigzaghh import cli, ginzburg, pathalg, preproj, zigzag
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("walked or counted")

    for module in (pathalg, ginzburg, preproj):
        for name in ("all_words", "all_cycles", "all_necklaces", "necklaces_descending"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(zigzag, "cochain_basis", spy)
    monkeypatch.setattr(cli, "_walk_counts", spy)
    monkeypatch.setattr(cli, "_check_cycle_count", spy)
    assert 41 <= cli.MAX_DEGREE == 128   # --q 41 runs on E~8 above
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s is beyond the degree cap of 128\n" % named
    assert calls == []


def test_degree_at_cap_still_runs(capsys):
    for method in ("ginzburg", "trace", "zigzag"):
        code, doc = _run_json(capsys, "hh2", "--graph", "A2", "--q", "127..128",
                              "--method", method)
        assert code == 0 and [r["dim"] for r in doc["results"]] == [0, 0]
    code, doc = _run_json(capsys, "classify", "--graph", "A2", "--max", "128")
    assert code == 0 and len(doc["results"]) == 128
    code, doc = _run_json(capsys, "preproj", "--graph", "A2", "--max", "128")
    assert code == 0 and doc["finite_dimensional"]


def test_preproj_word_count_is_the_walk():
    import itertools
    from zigzaghh.cli import _walk_counts
    from zigzaghh.pathalg import all_words
    from zigzaghh.preproj import doubled_of_graph
    from zigzaghh.quiver import parse_label
    for label in ("A1", "A2", "A~2", "D~4", "E6"):
        g = parse_label(label)
        qd = doubled_of_graph(g)
        assert list(itertools.islice(_walk_counts(g), 7)) == [len(all_words(qd, n))
                                                              for n in range(7)]


def test_hh2_cycle_count_bounds_each_parity():
    # odd lengths have no closed walk on a bipartite graph, so --q 17 is
    # admitted on E~8, and the triangle's odd walks count too
    from zigzaghh.cli import CliError, _check_cycle_count
    from zigzaghh.quiver import parse_label
    _check_cycle_count(parse_label("E~8"), -5, 14)
    _check_cycle_count(parse_label("E~8"), 17, 17)
    _check_cycle_count(parse_label("A~2"), 15, 16)   # 2^n + 2(-1)^n walks of length n
    with pytest.raises(CliError, match="--q 17 needs 524286 closed walks of length 19"):
        _check_cycle_count(parse_label("A~2"), 15, 17)
    with pytest.raises(CliError, match="--q 99 needs at least 524286 closed walks of length 101"):
        _check_cycle_count(parse_label("A~2"), 99, 10 ** 9)


def test_hh2_zigzag_above_word_cap_exits_2_before_any_walk(capsys, monkeypatch):
    # E~6 has 368,640 words in C^{1,12}: counted, not walked; a non-tree
    # still exits 3 first
    from zigzaghh import cli, zigzag
    calls = []
    cochain_basis = zigzag.cochain_basis

    def spy(alg, p, q):
        calls.append((p, q))
        return cochain_basis(alg, p, q)

    monkeypatch.setattr(zigzag, "cochain_basis", spy)
    assert 144_342 <= cli.MAX_ZIGZAG_WORDS < 214_048   # D4 at q = 14, E6 at q = 12
    for q, err in (("12", "--q 12 needs 368640 words in C^{1,12}"),
                   ("8..13", "--q 12 needs 368640 words in C^{1,12}"),
                   ("128", "--q 128 needs at least 368640 words in C^{1,128}")):
        assert main(["hh2", "--graph", "E~6", "--q", q, "--method", "zigzag"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + err)
        assert captured.err.endswith(", above the cap of %d\n" % cli.MAX_ZIGZAG_WORDS)
    assert main(["hh2", "--graph", "A~2", "--q", "12", "--method", "zigzag"]) == 3
    assert calls == []
    code, doc = _run_json(capsys, "hh2", "--graph", "E~6", "--q", "0..8", "--method", "zigzag")
    assert code == 0 and len(doc["results"]) == 9 and calls


@pytest.mark.parametrize("label", ["A2", "A5", "D4", "E6", "D~4", "E~6"])
def test_zigzag_word_count_is_the_walk(monkeypatch, label):
    # the count from adjacency powers equals the C^{1,q} walk it bounds: the
    # oracle's words of length q + 1 with at most one cycle class
    from oracle import _graded_walks
    from zigzaghh import cli
    from zigzaghh.exactla import QQ
    from zigzaghh.quiver import parse_label
    from zigzaghh.zigzag import build_zigzag

    # only even q is counted: on a tree C^{2,q} is empty for odd q, and
    # HH^{2,q} is 0 before C^{1,q} is walked
    g = parse_label(label)
    alg = build_zigzag(g, QQ)
    letters = tuple((i, alg.src[i], alg.tgt[i], alg.degrees[i]) for i in alg.positive)
    for q in range(0, 9, 2):
        words = sum(1 for *_, d in _graded_walks(letters, g.vertex_count, q + 1) if d <= q + 2)
        monkeypatch.setattr(cli, "MAX_ZIGZAG_WORDS", words)
        cli._check_zigzag_count(g, q, q)
        monkeypatch.setattr(cli, "MAX_ZIGZAG_WORDS", words - 1)
        with pytest.raises(cli.CliError, match=" %d words in " % words):
            cli._check_zigzag_count(g, q, q)
        monkeypatch.setattr(cli, "MAX_ZIGZAG_WORDS", 0)
        cli._check_zigzag_count(g, q + 1, q + 1)


def test_hh2_odd_length_on_bipartite_graph_walks_nothing(capsys):
    # no closed walk of odd length exists, and none is searched for
    code, doc = _run_json(capsys, "hh2", "--graph", "E~8", "--q", "41", "--method", "all")
    assert code == 0 and [r["dim"] for r in doc["results"]] == [0, 0]
    # nor in the bar complex, whose C^{1,11} would hold 215,450 words
    code, doc = _run_json(capsys, "hh2", "--graph", "E~8", "--q", "11", "--method", "zigzag")
    assert code == 0 and [r["dim"] for r in doc["results"]] == [0]


def test_ainfty_check_zero_m4_fails(capsys, tmp_path):
    f = tmp_path / "zero.json"
    f.write_text('{"terms": []}')
    code, doc = _run_json(capsys, "ainfty-check", "--m4-file", str(f))
    assert code == 1
    assert doc["coboundary"] is True


@pytest.mark.parametrize("text", ['{"terms": [{"output": "e1"}]}',
                                  '[{"inputs": ["a1"], "output": "e1"}]',
                                  '{"terms": [{"inputs": ["a1", "a1*", "a1", "a1*"], '
                                  '"output": "e1", "coeff": [1]}]}'])
def test_ainfty_check_malformed_m4_file_exits_2(capsys, tmp_path, text):
    f = tmp_path / "bad_m4.json"
    f.write_text(text)
    assert main(["ainfty-check", "--m4-file", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


def test_ainfty_check_m4_file_names_bad_terms(capsys, tmp_path):
    f = tmp_path / "m4.json"
    f.write_text('{"terms": [{"inputs": ["a4", "a1*", "a1", "a4*"], "output": "c4", '
                 '"coeff": true}]}')
    assert main(["ainfty-check", "--m4-file", str(f)]) == 2
    assert 'integer "coeff"' in capsys.readouterr().err
    f.write_text('{"terms": [{"inputs": ["a4", "zz", "a1", "a4*"], "output": "c4"}]}')
    assert main(["ainfty-check", "--m4-file", str(f)]) == 2
    err = capsys.readouterr().err
    assert "names 'zz', which is not a basis element" in err
    assert "'inputs': ['a4', 'zz', 'a1', 'a4*']" in err
    f.write_text('{"terms": [{"inputs": ["a4", "a1*", "a1", "a4*"], "output": ["c4"]}]}')
    assert main(["ainfty-check", "--m4-file", str(f)]) == 2
    assert "names ['c4'], which is not a basis element" in capsys.readouterr().err


@pytest.mark.parametrize("argv,golden", [
    (("--arity", "8", "--out", "json"), "ainfty-check-arity8.json"),
    (("--scale", "7", "--arity", "7"), "ainfty-check-scale7-arity7.txt"),
    (("--m4-file", "tests/golden/m4-extended-D4-flipped.json", "--arity", "7", "--out", "json"),
     "ainfty-check-m4-flipped-arity7.json")])
def test_ainfty_check_pinned(capsys, monkeypatch, argv, golden):
    # recorded while the Stasheff check still walked every composable word;
    # the m4 file is the extended-D4 m_4 with its a1* a1 a4* a4 sign flipped,
    # and CI diffs the installed package's --arity 8 output against its file
    root = pathlib.Path(__file__).parent.parent
    monkeypatch.chdir(root)
    code, out = _run(capsys, "ainfty-check", *argv)
    assert code == 0
    assert out == (root / "tests" / "golden" / golden).read_text()


def test_json_deterministic_across_runs(capsys):
    _, out1 = _run(capsys, "hh2", "--graph", "D4", "--char", "2", "--q", "1..4",
                   "--out", "json")
    _, out2 = _run(capsys, "hh2", "--graph", "D4", "--char", "2", "--q", "1..4",
                   "--out", "json")
    assert out1 == out2


def test_json_roundtrip_lossless(capsys):
    _, doc = _run_json(capsys, "hh2", "--graph", "D~4", "--char", "0", "--q", "2..4",
                       "--method", "trace", "--witnesses")
    again = json.loads(json.dumps(doc, sort_keys=True))
    assert again == doc
    for r in doc["results"]:
        assert set(r) >= {"p", "q", "method", "dim"}


def test_graph_file_ingestion_text_form(capsys, tmp_path):
    f = tmp_path / "path3.txt"
    f.write_text("vertices: 3\nedges: [[1, 2], [2, 3]]\n")
    code, doc = _run_json(capsys, "preproj", "--graph", str(f), "--char", "0", "--max", "3")
    assert code == 0
    lam = {r["q"]: r["dim"] for r in doc["results"] if r["method"] == "lambda"}
    assert [lam[n] for n in range(4)] == [3, 4, 3, 0]


def test_orientation_file_mode(capsys, tmp_path):
    # 1->2->3 from the stored edge order is not sink/source, dims agree anyway
    f = tmp_path / "path3.json"
    f.write_text('{"vertices": 3, "edges": [[1, 2], [2, 3]]}')
    _, doc_auto = _run_json(capsys, "preproj", "--graph", str(f), "--char", "0", "--max", "4")
    _, doc_file = _run_json(capsys, "preproj", "--graph", str(f), "--char", "0", "--max", "4",
                            "--orientation", "file")
    da = [r["dim"] for r in doc_auto["results"]]
    df = [r["dim"] for r in doc_file["results"]]
    assert da == df


def test_table_output_renders(capsys):
    code, out = _run(capsys, "hh2", "--graph", "A2", "--char", "0", "--q", "0..2")
    assert code == 0
    assert "method" in out and "agreement" in out


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every cold job pays for the modules the CLI imports: dataclasses brings
    # inspect (with dis, ast and tokenize) and execs the methods of each class;
    # -S keeps the site step's own imports out of the check
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, zigzaghh.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
