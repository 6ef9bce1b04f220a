import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gallai import (
    ColoringDocument,
    EdgeColoring,
    Embedding,
    PatternSpec,
    SearchStats,
    SearchTask,
    canonical_digest,
    join,
    read_document,
    recolor,
    search_witness,
    write_document,
)
from gallai import cli
from gallai.cli import main
from gallai.construct import BASE14_DIGEST


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def save(tmp_path, name, coloring, **kwargs):
    path = tmp_path / name
    write_document(path, ColoringDocument.sealed(coloring, **kwargs))
    return str(path)


def mono_k6():
    return EdgeColoring(6, 2, [1] * 15)


def test_construct_default_base_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == "14 2"
    assert BASE14_DIGEST in out


def test_construct_writes_file_and_summary(tmp_path, capsys):
    target = tmp_path / "w4.grc"
    code, out, _ = run(capsys, "construct", "--k", "4", "--out", str(target))
    assert code == 0
    doc = read_document(target)
    assert doc.coloring.n == 70 and doc.coloring.k == 4
    assert doc.provenance["kind"] == "construction"
    assert doc.provenance["trace"]["op"] == "blowup"
    assert out.strip() == f"n=70 k=4 digest={doc.digest}"


def test_construct_rejects_bad_base(tmp_path, capsys):
    # two colors used, but color 1 holds a full K5 and hence a wheel
    colors = [1] * 15
    colors[0] = 2
    bad = save(tmp_path, "bad.grc", EdgeColoring(6, 2, colors))
    code, _, err = run(capsys, "construct", "--k", "3", "--base", bad)
    assert code == 2
    assert err.startswith("error:")


def test_construct_rejects_k1(capsys):
    code, _, err = run(capsys, "construct", "--k", "1")
    assert code == 2 and "error:" in err


def test_verify_witness_passes(tmp_path, capsys):
    target = tmp_path / "w3.grc"
    run(capsys, "construct", "--k", "3", "--out", str(target))
    code, out, err = run(
        capsys, "verify", "--in", str(target), "--pattern", "w4", "--gallai"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert {c["check"] for c in report["checks"]} == {"rainbow", "mono"}
    assert err == ""


def test_verify_reports_violation_with_checkable_embedding(tmp_path, capsys):
    path = save(tmp_path, "k6.grc", mono_k6())
    code, out, _ = run(capsys, "verify", "--in", path, "--pattern", "w4")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["pattern"] == "wheel:4"
    emb = Embedding.from_json(report["violation"])
    assert emb.check(read_document(path).coloring)


def test_verify_rainbow_violation(tmp_path, capsys):
    path = save(tmp_path, "r.grc", EdgeColoring(3, 3, [1, 2, 3]))
    code, out, _ = run(capsys, "verify", "--in", path, "--gallai")
    assert code == 1
    report = json.loads(out)
    assert report["check"] == "rainbow"
    assert report["violation"]["color"] is None


def test_verify_color_scoped(tmp_path, capsys):
    path = save(tmp_path, "k6.grc", mono_k6())
    code, out, _ = run(
        capsys, "verify", "--in", path, "--pattern", "w4", "--color", "2"
    )
    assert code == 0  # color 2 is empty, the wheel lives in color 1
    assert json.loads(out)["ok"] is True


def test_verify_color_outside_the_palette(tmp_path, capsys):
    # find_mono treats an unused colour as empty; the command line reads a
    # colour outside the document's 1..k as a mistake, before any check
    path = str(tmp_path / "w4.grc")
    assert run(capsys, "construct", "--k", "4", "--out", path)[0] == 0
    argv = ("verify", "--in", path, "--pattern", "w4", "--color")
    for color in ("99", "5", "0", "-1"):
        for extra in ((), ("--gallai",)):
            code, out, err = run(capsys, *argv, color, *extra)
            assert code == 2 and out == ""
            assert err == f"error: --color {color} is outside the palette 1..4\n"
    code, out, _ = run(capsys, *argv, "4")
    assert code == 0 and json.loads(out)["checks"][0]["color"] == 4


def test_verify_color_needs_a_pattern(tmp_path, capsys):
    # --color scopes the pattern check; without a pattern it would be
    # dropped while the other checks passed
    from gallai.construct import pentagon_coloring

    path = save(tmp_path, "p5.grc", pentagon_coloring())
    for extra in (("--gallai",), ()):
        code, out, err = run(capsys, "verify", "--in", path, *extra, "--color", "2")
        assert code == 2 and out == ""
        assert err == "error: --color needs --pattern\n"


def test_verify_notes_underused_palette(tmp_path, capsys):
    from gallai.construct import pentagon_coloring

    wide = recolor(pentagon_coloring(), {1: 1, 2: 2}, k=3)
    path = save(tmp_path, "wide.grc", wide)
    code, _, err = run(capsys, "verify", "--in", path, "--pattern", "k3")
    assert code == 0
    assert "declares k=3 but uses 2" in err


def test_verify_requires_a_check(tmp_path, capsys):
    path = save(tmp_path, "k6.grc", mono_k6())
    code, _, err = run(capsys, "verify", "--in", path)
    assert code == 2 and "nothing to verify" in err


def test_malformed_and_missing_files(tmp_path, capsys):
    bad = tmp_path / "bad.grc"
    bad.write_text("3 2\n1 2\n")
    code, _, err = run(capsys, "verify", "--in", str(bad), "--pattern", "k3")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "digest", "--in", str(tmp_path / "absent.grc"))
    assert code == 2 and "error:" in err
    # a huge header with no edges is refused before anything is allocated
    huge = tmp_path / "huge.json"
    payload = {"format": "gallai-coloring", "version": 1, "n": 2**40, "k": 2, "edges": []}
    huge.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--in", str(huge), "--pattern", "k3")
    assert code == 2 and "error:" in err and "Traceback" not in err
    # a task file is read as written: a float vertex count is not truncated
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"n": 5.9, "k": 2}))
    code, _, err = run(capsys, "search", "--task", str(task))
    assert code == 2 and "error:" in err and "Traceback" not in err


def test_partition_of_join(tmp_path, capsys):
    from gallai.construct import pentagon_coloring

    halves = join(pentagon_coloring(), pentagon_coloring(), 3)
    path = save(tmp_path, "j.grc", halves)
    code, out, _ = run(capsys, "partition", "--in", path)
    assert code == 0
    report = json.loads(out)
    assert report["p"] == 2
    assert report["parts"] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert report["cross_colors"] == [3]


def test_partition_rejects_rainbow_input(tmp_path, capsys):
    path = save(tmp_path, "r.grc", EdgeColoring(3, 3, [1, 2, 3]))
    code, _, err = run(capsys, "partition", "--in", path)
    assert code == 2 and "error:" in err


def test_peel(tmp_path, capsys):
    from gallai.construct import pentagon_coloring

    apex = join(EdgeColoring(1, 1, []), pentagon_coloring(), 3)
    path = save(tmp_path, "a.grc", apex)
    code, out, _ = run(capsys, "peel", "--in", path)
    assert code == 0
    report = json.loads(out)
    assert report["entries"] == [[0, 3]]
    assert report["remainder"] == [1, 2, 3, 4, 5]


def test_search_witness_and_exit_codes(tmp_path, capsys):
    out_file = tmp_path / "tri.grc"
    code, out, _ = run(
        capsys,
        "search", "--n", "5", "--k", "2", "--pattern", "k3",
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "witness"
    doc = read_document(out_file)
    assert report["witness_digest"] == doc.digest
    assert doc.provenance["kind"] == "search"
    assert doc.provenance["task"]["n"] == 5
    code, _, _ = run(capsys, "verify", "--in", str(out_file), "--pattern", "k3")
    assert code == 0


def test_search_exhausted_exit_1(capsys):
    code, out, _ = run(capsys, "search", "--n", "6", "--k", "2", "--pattern", "k3")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "exhausted"
    causes = ("prunes_conflict", "prunes_lookahead", "prunes_canonical")
    assert sum(report[cause] for cause in causes) == report["prunes"] > 0


def test_search_report_is_the_search_stats(monkeypatch, capsys):
    # the report is SearchStats as declared, plus the status, the prune
    # total and the witness digest
    outcomes = []

    def recorded(task):
        outcomes.append(search_witness(task))
        return outcomes[-1]

    monkeypatch.setattr(cli, "search_witness", recorded)
    code, out, _ = run(capsys, "search", "--n", "5", "--k", "2", "--pattern", "k3")
    assert code == 0
    report = json.loads(out)
    (outcome,) = outcomes
    stats = outcome.stats
    names = set(SearchStats.__slots__)
    assert set(report) == names | {"status", "prunes", "witness_digest"}
    for name in names - {"elapsed"}:
        assert report[name] == getattr(stats, name), name
    assert report["elapsed"] == round(stats.elapsed, 6)
    assert report["prunes"] == stats.prunes
    assert report["status"] == outcome.status == "witness"
    assert report["witness_digest"] == canonical_digest(outcome.witness)


def test_search_limit_exit_3(capsys):
    code, out, _ = run(
        capsys,
        "search", "--n", "10", "--k", "2", "--pattern", "k3", "--node-limit", "5",
    )
    assert code == 3
    assert json.loads(out)["status"] == "limit_reached"


def test_search_threads_flag_is_inert(tmp_path, capsys):
    reports = []
    files = []
    for threads in ("1", "4"):
        out_file = tmp_path / f"t{threads}.grc"
        code, out, _ = run(
            capsys,
            "search", "--n", "8", "--k", "2", "--pattern", "w4",
            "--threads", threads, "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out)
        report.pop("elapsed")
        reports.append(report)
        files.append(out_file.read_bytes())
    assert reports[0] == reports[1]
    assert files[0] == files[1]
    code, _, err = run(capsys, "search", "--n", "4", "--k", "1", "--threads", "0")
    assert code == 2 and "threads" in err


def test_search_task_file_route(tmp_path, capsys):
    task = SearchTask(n=5, k=2, forbidden=((PatternSpec.clique(3), None),))
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(task.to_json()))
    code, out, _ = run(capsys, "search", "--task", str(task_file))
    assert code == 0
    flags = run(capsys, "search", "--n", "5", "--k", "2", "--pattern", "k3")
    assert json.loads(out)["witness_digest"] == json.loads(flags[1])["witness_digest"]


def test_search_scoped_pattern_needs_symmetry_none(capsys):
    code, _, err = run(
        capsys, "search", "--n", "5", "--k", "2", "--pattern", "k3@1"
    )
    assert code == 2 and "error:" in err
    code, out, _ = run(
        capsys,
        "search", "--n", "5", "--k", "2", "--pattern", "k3@1", "--symmetry", "none",
    )
    assert code == 0
    assert json.loads(out)["status"] == "witness"


def test_search_needs_dimensions(capsys):
    code, _, err = run(capsys, "search", "--pattern", "k3")
    assert code == 2 and "--n" in err


def test_random_is_seed_deterministic(capsys):
    a = run(capsys, "random", "--n", "30", "--k", "4", "--seed", "7")
    b = run(capsys, "random", "--n", "30", "--k", "4", "--seed", "7")
    c = run(capsys, "random", "--n", "30", "--k", "4", "--seed", "8")
    assert a[0] == b[0] == c[0] == 0
    assert a[1] == b[1]
    assert a[1] != c[1]


def test_random_output_verifies_gallai(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "random", "--n", "25", "--k", "5", "--seed", "3",
        "--out", str(path), "--format", "json",
    )
    assert code == 0
    assert read_document(path).provenance["kind"] == "random"
    code, out, _ = run(capsys, "verify", "--in", str(path), "--gallai")
    assert code == 0


def test_convert_round_trip_preserves_bytes(tmp_path, capsys):
    a = tmp_path / "a.grc"
    run(capsys, "construct", "--k", "3", "--out", str(a))
    b = tmp_path / "b.json"
    code, _, _ = run(capsys, "convert", "--in", str(a), "--out", str(b))
    assert code == 0
    c = tmp_path / "c.grc"
    code, _, _ = run(capsys, "convert", "--in", str(b), "--out", str(c))
    assert code == 0
    assert a.read_bytes() == c.read_bytes()
    assert read_document(b).digest == read_document(a).digest


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--n", "25", "--k", "12", "--seed", "3"],
        ["convert", "--in", "{grc}"],
    ],
)
def test_json_to_stdout_is_the_file_bytes(tmp_path, capsys, argv):
    # one writer for JSON documents, whether printed or written to a file
    grc = save(tmp_path, "w.grc", join(mono_k6(), mono_k6(), 3), provenance={"a": [1]})
    argv = [arg.format(grc=grc) for arg in argv]
    path = tmp_path / "f.json"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    code, _, _ = run(capsys, *argv, "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode("ascii")
    assert json.loads(out)["rows"]


def test_partition_out_is_the_stdout_bytes(tmp_path, capsys):
    # partition --out writes through the package's one file writer: ASCII
    # with "\n" line ends, the bytes that go to stdout without --out
    grc = save(tmp_path, "w.grc", join(mono_k6(), mono_k6(), 3))
    path = tmp_path / "part.json"
    code, out, _ = run(capsys, "partition", "--in", grc)
    assert code == 0
    code, printed, _ = run(capsys, "partition", "--in", grc, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode("ascii")
    assert json.loads(out)["p"] > 1


def test_digest_command(tmp_path, capsys):
    path = save(tmp_path, "k6.grc", mono_k6())
    code, out, _ = run(capsys, "digest", "--in", path)
    assert code == 0
    assert out.strip() == canonical_digest(mono_k6())


def test_explicit_pattern_file(tmp_path, capsys):
    pat = tmp_path / "bowtie.json"
    pat.write_text(json.dumps({"order": 3, "edges": [[0, 1], [1, 2]]}))
    path = save(tmp_path, "k6.grc", mono_k6())
    code, out, _ = run(
        capsys, "verify", "--in", path, "--pattern", f"explicit:{pat}"
    )
    assert code == 1
    assert json.loads(out)["pattern"] == "explicit"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"edges": [[0, 1]]}))
    code, _, err = run(
        capsys, "verify", "--in", path, "--pattern", f"explicit:{broken}"
    )
    assert code == 2 and "error:" in err
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([[0, 1], [1, 2]]))
    code, _, err = run(
        capsys, "verify", "--in", path, "--pattern", f"explicit:{listed}"
    )
    assert code == 2 and "must hold a JSON object" in err


def test_deeply_nested_json_files_are_bad_input(tmp_path, capsys):
    # json.loads raises RecursionError, a RuntimeError, on deep nesting,
    # and main reports a RuntimeError as an engine self-check failure
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    path = save(tmp_path, "k6.grc", mono_k6())
    for argv in (
        ("verify", "--in", path, "--pattern", f"explicit:{deep}"),
        ("search", "--n", "5", "--k", "2", "--pattern", f"explicit:{deep}"),
        ("search", "--task", str(deep)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: bad JSON"), err


def test_explicit_pattern_edges_must_be_pairs(tmp_path, capsys):
    # each explicit edge is unpacked into two ends; a shorter or longer
    # entry is bad input that names itself
    path = save(tmp_path, "k6.grc", mono_k6())
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"order": 3, "edges": [[[0, 1]]]}))
    triple = {"kind": "explicit", "order": 3, "edges": [[0, 1, 2]]}
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"n": 5, "k": 2, "forbidden": [{"pattern": triple}]}))
    for argv, entry in (
        (("verify", "--in", path, "--pattern", f"explicit:{nested}"), "[[0, 1]]"),
        (("search", "--task", str(task)), "[0, 1, 2]"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: pattern edge {entry} is not a pair"), err


def test_unknown_pattern_token(tmp_path, capsys):
    path = save(tmp_path, "k6.grc", mono_k6())
    code, _, err = run(capsys, "verify", "--in", path, "--pattern", "k9q")
    assert code == 2 and "unknown pattern" in err


def test_verify_reads_the_pattern_before_any_check(tmp_path, capsys, monkeypatch):
    # a bad --pattern is an input error, like a --color outside the
    # palette: no check runs, whether the rainbow check would fail (the
    # triangle) or pass (the monochromatic K6)
    ran = []
    for name in ("find_rainbow_triangle", "find_mono"):
        check = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, f=check: ran.append(f) or f(*a))
    missing = tmp_path / "absent.json"
    for coloring in (EdgeColoring(3, 3, [1, 2, 3]), mono_k6()):
        path = save(tmp_path, "c.grc", coloring)
        for extra in (("--gallai",), ()):
            argv = ("verify", "--in", path, *extra, "--pattern")
            code, out, err = run(capsys, *argv, "bogus")
            assert (code, out, err) == (2, "", "error: unknown pattern 'bogus'\n")
            code, out, err = run(capsys, *argv, f"explicit:{missing}")
            assert code == 2 and out == "" and err.startswith("error:")
            assert "absent.json" in err
    assert ran == []


def test_integers_are_ascii_digits_only(tmp_path, capsys):
    # int() alone takes a sign, "_", spaces and other scripts' digits
    path = save(tmp_path, "k6.grc", mono_k6())
    for token in ("kt:+3", "kt:0_4", "wheel: 4", "wheel:\u0664", "kt:\uff13"):
        code, _, err = run(capsys, "verify", "--in", path, "--pattern", token)
        assert code == 2 and "not an integer" in err and "Traceback" not in err
    code, _, err = run(capsys, "search", "--n", "5", "--k", "2", "--pattern", "k3@+1")
    assert code == 2 and "not an integer" in err and "Traceback" not in err
    for argv in (
        ("search", "--n", "1_5", "--k", "2"),
        ("search", "--n", "15", "--k", "+2"),
        ("verify", "--in", path, "--color", "\u0663"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "invalid integer value" in err and "Traceback" not in err
    code, out, _ = run(capsys, "random", "--n", "6", "--k", "3", "--seed", "-1")
    assert code == 0 and '"seed":-1' in out


def test_pattern_names_strip_only_spaces_and_tabs(tmp_path, capsys):
    # str.strip() also drops Unicode spaces and the separators \x1c-\x1f
    path = save(tmp_path, "k6.grc", mono_k6())
    for token in ("\u2003w4", "kt:3\u3000", "\x1cp3"):
        code, _, err = run(capsys, "verify", "--in", path, "--pattern", token)
        assert code == 2 and err and "Traceback" not in err
    for token, label in ((" \tk3\t ", "kt:3"), ("p3", "p3")):
        code, out, _ = run(capsys, "verify", "--in", path, "--pattern", token)
        assert code == 1 and json.loads(out)["pattern"] == label


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main call: the import's own cost
    # is the set-up every command pays
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import gallai.cli\n"
        "print(len(built))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "0\n"


def search_task(tmp_path, capsys, name, *patterns):
    # the task a search records in its witness document
    out = tmp_path / name
    argv = ["search", "--n", "4", "--k", "2", "--out", str(out)]
    for pattern in patterns:
        argv += ["--pattern", pattern]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return read_document(out).provenance["task"]


def test_repeated_main_calls_share_no_arguments(tmp_path, capsys):
    # one parser serves every call; an appended option starts empty each time
    k3, k4, c4 = (
        p.to_json()
        for p in (PatternSpec.clique(3), PatternSpec.clique(4), PatternSpec.cycle4())
    )
    first = search_task(tmp_path, capsys, "a.grc", "k3", "kt:4")
    second = search_task(tmp_path, capsys, "b.grc", "c4")
    assert [f["pattern"] for f in first["forbidden"]] == [k3, k4]
    assert [f["pattern"] for f in second["forbidden"]] == [c4]
    assert search_task(tmp_path, capsys, "c.grc")["forbidden"] == []


def test_main_recovers_after_an_argparse_error(tmp_path, capsys):
    path = save(tmp_path, "k6.grc", mono_k6())
    for bad in (
        ["verify"],
        ["search", "--pattern", "k3", "--n"],
        ["digest", "--in", path, "--bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: gallai")
        code, out, _ = run(capsys, "digest", "--in", path)
        assert code == 0 and out == canonical_digest(mono_k6()) + "\n"
    task = search_task(tmp_path, capsys, "d.grc", "c4")
    assert [f["pattern"] for f in task["forbidden"]] == [PatternSpec.cycle4().to_json()]
