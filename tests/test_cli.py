"""Command line behavior: flows, formats, and exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

import setmatch
from setmatch import from_json
from setmatch.cli import main

from conftest import HANG_REPRODUCERS, run_limited

NESTED = "f(f(_, g(_)), g(_))\n"
ROTATION = "f(f(_, _), _)\nf(_, f(_, _))\n"


@pytest.fixture
def compiled(tmp_path):
    """Compile both reference pattern sets; return their JSON paths."""
    def make(name, patterns, signature=None, label=None):
        pfile = tmp_path / f"{name}.patterns"
        pfile.write_text(patterns)
        out = tmp_path / f"{name}.json"
        argv = ["compile", "--patterns", str(pfile), "--out", str(out)]
        if signature:
            sfile = tmp_path / f"{name}.sig"
            sfile.write_text(signature)
            argv += ["--signature", str(sfile)]
        if label:
            argv += ["--label", label]
        assert main(argv) == 0
        return out
    return make


def test_compile_prints_counts(compiled, capsys):
    compiled("nested", NESTED, signature="f/2\ng/1\na/0\n")
    out = capsys.readouterr().out
    assert "states: 4" in out
    assert "transitions: 14" in out


def test_compile_infers_signature(compiled, capsys):
    path = compiled("nested", NESTED)
    assert "states: 4" in capsys.readouterr().out
    a = from_json(path.read_text())
    # inferred symbols register innermost-first: an arity is only known
    # once its argument list closes
    assert [s.name for s in a.signature] == ["g", "f"]


def test_compile_rotation(compiled, capsys):
    compiled("rot", ROTATION, signature="f/2\na/0\n")
    assert "states: 3" in capsys.readouterr().out


def test_compile_leftmost_grows(compiled, capsys):
    compiled("left", NESTED, signature="f/2\ng/1\na/0\n", label="leftmost")
    assert "states: 6" in capsys.readouterr().out


def test_compile_rejects_bad_pattern(tmp_path, capsys):
    pfile = tmp_path / "p.patterns"
    pfile.write_text("f(a\n")
    rc = main(["compile", "--patterns", str(pfile),
               "--out", str(tmp_path / "a.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_compile_rejects_empty_file(tmp_path, capsys):
    pfile = tmp_path / "p.patterns"
    pfile.write_text("# nothing\n")
    rc = main(["compile", "--patterns", str(pfile),
               "--out", str(tmp_path / "a.json")])
    assert rc == 2


def test_compile_missing_file_is_usage_error(tmp_path, capsys):
    rc = main(["compile", "--patterns", str(tmp_path / "nope"),
               "--out", str(tmp_path / "a.json")])
    assert rc == 2


@pytest.mark.parametrize("kind, stdin, message", [
    ("patterns", "f(a,\n", "line 1, offset 4: expected a term"),
    ("signature", "f/x\n", "line 1: expected 'name/arity', got 'f/x'"),
    ("signature", "a/\u00b3\n", "line 1: expected 'name/arity', got 'a/\u00b3'"),
    ("signature", "a/\u0663\n", "line 1: expected 'name/arity', got 'a/\u0663'"),
], ids=["patterns", "signature", "superscript-arity", "arabic-indic-arity"])
def test_compile_errors_on_stdin_name_stdin(tmp_path, capsys, monkeypatch, kind,
                                            stdin, message):
    good = tmp_path / "good.patterns"
    good.write_text(ROTATION)
    argv = {"patterns": ["compile", "--patterns", "-"],
            "signature": ["compile", "--patterns", str(good), "--signature", "-"]}[kind]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode()),
                                                      encoding="utf-8"))
    assert main(argv + ["--out", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == f"error: stdin: {message}\n"


def _write_term(tmp_path, text):
    f = tmp_path / "subject.term"
    f.write_text(text + "\n")
    return f


def test_match_prints_sorted_lines(compiled, tmp_path, capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    capsys.readouterr()
    term = _write_term(tmp_path, "f(f(a, f(a, a)), a)")
    rc = main(["match", "--automaton", str(auto), "--term", str(term)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["f(_,f(_,_)) @ 1", "f(f(_,_),_) @ ε"]


def test_match_stats(compiled, tmp_path, capsys):
    auto = compiled("nested", NESTED, signature="f/2\ng/1\na/0\n")
    term = _write_term(tmp_path, "f(g(a), f(f(a, g(a)), g(a)))")
    rc = main(["match", "--automaton", str(auto), "--term", str(term),
               "--stats"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "f(f(_,g(_)),g(_)) @ 2" in out
    assert "inspections: 10" in out
    assert "work items: 10" in out


def test_match_reads_stdin(compiled, capsys, monkeypatch):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"f(f(a, a), a)\n"),
                                                      encoding="utf-8"))
    rc = main(["match", "--automaton", str(auto), "--term", "-"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["f(f(_,_),_) @ ε"]


def test_match_json_output(compiled, tmp_path, capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    capsys.readouterr()
    term = _write_term(tmp_path, "f(f(a, f(a, a)), a)")
    rc = main(["match", "--automaton", str(auto), "--term", str(term),
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [{"pattern": 0, "pos": []}, {"pattern": 1, "pos": [1]}]


def test_match_json_stats_keeps_stdout_one_json_document(compiled, tmp_path, capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    capsys.readouterr()
    term = _write_term(tmp_path, "f(f(a, f(a, a)), a)")
    rc = main(["match", "--automaton", str(auto), "--term", str(term),
               "--json", "--stats"])
    assert rc == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == [{"pattern": 0, "pos": []},
                                        {"pattern": 1, "pos": [1]}]
    assert captured.err.splitlines() == ["inspections: 7", "work items: 7"]


@pytest.mark.parametrize("strategy,extra", [
    ("depth-first", []),
    ("breadth-first", []),
])
def test_match_strategies_agree(compiled, tmp_path, capsys, strategy, extra):
    auto = compiled("nested", NESTED, signature="f/2\ng/1\na/0\n")
    term = _write_term(tmp_path, "f(f(f(a, g(a)), g(g(a))), g(f(a, a)))")
    rc = main(["match", "--automaton", str(auto), "--term", str(term),
               "--strategy", strategy, *extra, "--verify"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "verified" in err


def test_match_verify_catches_a_corrupt_automaton(compiled, tmp_path, capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    doc = json.loads(auto.read_text())
    for state in doc["states"]:
        for tr in state["delta"].values():
            tr["outputs"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    term = _write_term(tmp_path, "f(f(a, a), a)")
    rc = main(["match", "--automaton", str(bad), "--term", str(term),
               "--verify"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err


def test_match_verify_checks_the_automaton_by_rebuilding_it(compiled, tmp_path,
                                                          capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    term = _write_term(tmp_path, "a")  # no match, so brute force agrees
    capsys.readouterr()
    rc = main(["match", "--automaton", str(auto), "--term", str(term), "--verify"])
    assert rc == 0
    assert "verified" in capsys.readouterr().err
    doc = json.loads(auto.read_text())
    doc["states"][1]["label"] = [2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["match", "--automaton", str(bad), "--term", str(term), "--verify"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("verification FAILED: ")
    assert "state 1: label 2 differs" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_match_verify_names_stdin(compiled, tmp_path, capsys, monkeypatch):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    doc = json.loads(auto.read_text())
    doc["states"][1]["label"] = [2]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode()),
                                                      encoding="utf-8"))
    capsys.readouterr()
    rc = main(["match", "--automaton", "-", "--term", str(_write_term(tmp_path, "a")),
               "--verify"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("verification FAILED: stdin: state 1: ")


def test_match_rejects_foreign_symbol(compiled, tmp_path, capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    term = _write_term(tmp_path, "f(b, a)")
    rc = main(["match", "--automaton", str(auto), "--term", str(term)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_match_rejects_malformed_term(compiled, tmp_path, capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    term = _write_term(tmp_path, "f(a,")
    rc = main(["match", "--automaton", str(auto), "--term", str(term)])
    assert rc == 2


def test_match_reports_the_offset_in_the_term_file_as_written(compiled, tmp_path,
                                                              capsys):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    capsys.readouterr()
    term = tmp_path / "subject.term"
    term.write_text("\n\n  f(a,\n")
    rc = main(["match", "--automaton", str(auto), "--term", str(term)])
    assert rc == 2
    assert "offset 9: expected a term" in capsys.readouterr().err


def test_match_deep_term_from_file(compiled, tmp_path, capsys):
    # 3,000 nested f's: deeper than the interpreter's recursion limit
    auto = compiled("fa", "f(_, a)\n")
    capsys.readouterr()
    depth = 3000
    term = _write_term(tmp_path, "f(" * depth + "a" + ",a)" * depth)
    rc = main(["match", "--automaton", str(auto), "--term", str(term)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert len(captured.out.splitlines()) == depth


def test_match_very_deep_unary_chain(compiled, tmp_path, capsys):
    auto = compiled("ga", "g(a)\n")
    capsys.readouterr()
    depth = 10 ** 5
    term = _write_term(tmp_path, "g(" * depth + "a" + ")" * depth)
    rc = main(["match", "--automaton", str(auto), "--term", str(term), "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert json.loads(captured.out) == [{"pattern": 0, "pos": [1] * (depth - 1)}]


def test_match_stats_on_a_very_deep_unary_chain(compiled, tmp_path, capsys):
    # counting needs no instrumented run, so memory stays linear in depth
    auto = compiled("ga", "g(a)\n")
    capsys.readouterr()
    depth = 10 ** 5
    term = _write_term(tmp_path, "g(" * depth + "a" + ")" * depth)
    rc = main(["match", "--automaton", str(auto), "--term", str(term), "--stats"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert f"inspections: {depth + 1}" in lines
    assert f"work items: {depth + 1}" in lines


def test_match_reports_a_broken_automaton_in_one_line(compiled, tmp_path,
                                                       capsys):
    # a hand-edited label that walks off this subject is an InvariantError
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    doc = json.loads(auto.read_text())
    for state in doc["states"]:
        state["label"] = [2, 2, 2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    term = _write_term(tmp_path, "f(a, a)")
    capsys.readouterr()
    rc = main(["match", "--automaton", str(bad), "--term", str(term)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "disagree" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("strategy", ["depth-first", "breadth-first"])
@pytest.mark.parametrize("name", sorted(HANG_REPRODUCERS))
def test_match_on_an_automaton_without_a_bounded_run_is_a_one_line_error(
        tmp_path, name, strategy):
    # in a child with 256 MiB of address space, so that an unbounded run
    # fails this test instead of hanging it
    doc, subject = HANG_REPRODUCERS[name]
    (tmp_path / "bad.json").write_text(doc)
    (tmp_path / "t.term").write_text(subject + "\n")
    r = run_limited(["-m", "setmatch.cli", "match", "--automaton", "bad.json",
                     "--term", "t.term", "--strategy", strategy], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: the automaton needs more than one work "
                               "item per subject node")
    assert len(r.stderr.splitlines()) == 1


def test_input_too_large_for_memory_is_a_one_line_error(tmp_path):
    # one child position per argument of h: more than 1 GiB holds
    (tmp_path / "p.patterns").write_text("f(_,a)\n")
    (tmp_path / "s.sig").write_text("f/2\na/0\nh/100000000\n")
    r = run_limited(["-m", "setmatch.cli", "compile", "--patterns", "p.patterns",
                     "--signature", "s.sig", "--out", "a.json"], tmp_path,
                    memory=1 << 30)
    assert r.returncode == 2
    assert r.stderr == "error: out of memory: the input is too large for this machine\n"


@pytest.mark.parametrize("kind", ["patterns", "signature", "automaton", "term",
                                  "stdin", "export-dot"])
def test_non_utf8_input_is_a_one_line_error(compiled, tmp_path, capsys,
                                            monkeypatch, kind):
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    term = _write_term(tmp_path, "f(a, a)")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"f(a, a)\n\xff\n")
    good = tmp_path / "good.patterns"
    good.write_text(ROTATION)
    out = str(tmp_path / "out")
    argv = {
        "patterns": ["compile", "--patterns", bad, "--out", out],
        "signature": ["compile", "--patterns", good, "--signature", bad,
                      "--out", out],
        "automaton": ["match", "--automaton", bad, "--term", term],
        "term": ["match", "--automaton", auto, "--term", bad],
        "stdin": ["match", "--automaton", auto, "--term", "-"],
        "export-dot": ["export-dot", "--automaton", bad, "--out", out],
    }[kind]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()),
                                                      encoding="utf-8"))
    capsys.readouterr()
    rc = main([str(arg) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    where = "stdin" if kind == "stdin" else str(bad)
    assert err == f"error: {where}: not UTF-8 text, byte 8: invalid start byte\n"


@pytest.mark.parametrize("command", ["match", "export-dot"])
def test_deeply_nested_automaton_json_is_a_one_line_error(tmp_path, capsys,
                                                          command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    term = _write_term(tmp_path, "a")
    argv = {"match": ["match", "--automaton", str(deep), "--term", str(term)],
            "export-dot": ["export-dot", "--automaton", str(deep),
                           "--out", str(tmp_path / "g.dot")]}[command]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {deep}: $: invalid JSON: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["match", "export-dot"])
def test_automaton_format_error_names_the_file(tmp_path, capsys, command):
    doc = tmp_path / "doc.json"
    doc.write_text('{"version": 3}')
    term = _write_term(tmp_path, "a")
    argv = {"match": ["match", "--automaton", str(doc), "--term", str(term)],
            "export-dot": ["export-dot", "--automaton", str(doc),
                           "--out", str(tmp_path / "g.dot")]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err \
        == f"error: {doc}: $: missing field 'signature'\n"


def test_non_utf8_stdin_reads_as_a_file_does_in_utf8_mode(compiled, tmp_path):
    # Under UTF-8 mode sys.stdin decodes with surrogateescape, so a bad byte
    # must be caught on the raw bytes, as a file's is.
    auto = compiled("rot", ROTATION, signature="f/2\na/0\n")
    bad = tmp_path / "bad.term"
    bad.write_bytes(b"f(a,\xff a)\n")
    package_root = os.path.dirname(os.path.dirname(os.path.realpath(setmatch.__file__)))
    errs = {}
    for name in (str(bad), "-"):
        r = subprocess.run([sys.executable, "-m", "setmatch.cli", "match",
                            "--automaton", str(auto), "--term", name],
                           input=bad.read_bytes(), capture_output=True, cwd=tmp_path,
                           env={"PYTHONUTF8": "1", "PATH": "/usr/bin:/bin",
                                "PYTHONPATH": package_root})
        assert r.returncode == 2
        errs[name] = r.stderr.decode("utf-8")
    reason = "not UTF-8 text, byte 4: invalid start byte\n"
    assert errs == {str(bad): f"error: {bad}: {reason}", "-": f"error: stdin: {reason}"}


def test_export_dot_round_trips(compiled, tmp_path, capsys):
    auto = compiled("nested", NESTED, signature="f/2\ng/1\na/0\n")
    out1 = tmp_path / "g1.dot"
    out2 = tmp_path / "g2.dot"
    assert main(["export-dot", "--automaton", str(auto), "--out", str(out1)]) == 0
    assert main(["export-dot", "--automaton", str(auto), "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().startswith("digraph")
    assert "f(f(_,g(_)),g(_))@ε" in out1.read_text()


def test_export_dot_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    rc = main(["export-dot", "--automaton", str(bad),
               "--out", str(tmp_path / "g.dot")])
    assert rc == 2


def test_bench_family_table(capsys):
    assert main(["bench", "--family", "tn", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["n", "rightmost", "leftmost"]
    assert lines[1].split("\t") == ["1", "2", "2"]
    assert lines[2].split("\t") == ["2", "4", "6"]
    assert lines[3].split("\t") == ["3", "6", "12"]


def test_bench_family_single_strategy(capsys):
    assert main(["bench", "--family", "tn", "--n-max", "2",
                 "--label", "leftmost"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["n", "leftmost"]
    assert lines[2].split("\t") == ["2", "6"]


def test_gen_writes_reproducible_instance(tmp_path, capsys):
    rc = main(["gen", "--seed", "9", "--out-prefix", str(tmp_path / "one")])
    assert rc == 0
    rc = main(["gen", "--seed", "9", "--out-prefix", str(tmp_path / "two")])
    assert rc == 0
    for ext in (".patterns", ".term", ".sig"):
        assert (tmp_path / ("one" + ext)).read_text() \
            == (tmp_path / ("two" + ext)).read_text()


def test_gen_output_feeds_compile_and_match(tmp_path, capsys):
    assert main(["gen", "--seed", "21", "--subject-size", "30",
                 "--out-prefix", str(tmp_path / "inst")]) == 0
    auto = tmp_path / "inst.json"
    assert main(["compile", "--patterns", str(tmp_path / "inst.patterns"),
                 "--signature", str(tmp_path / "inst.sig"),
                 "--out", str(auto)]) == 0
    rc = main(["match", "--automaton", str(auto),
               "--term", str(tmp_path / "inst.term"), "--verify"])
    assert rc == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_pattern_count_below_one_is_a_usage_error(tmp_path, capsys, count):
    with pytest.raises(SystemExit) as e:
        main(["gen", "--seed", "1", "--patterns", count,
              "--out-prefix", str(tmp_path / "inst")])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: setmatch gen ")
    assert f"error: argument --patterns: must be at least 1, got {count}\n" in err
    assert not list(tmp_path.iterdir())


OUT_OF_RANGE = [
    (["gen", "--depth", "-2"], "--depth: must be at least 0, got -2"),
    (["gen", "--subject-size", "-5"], "--subject-size: must be at least 1, got -5"),
    (["gen", "--subject-size", "0"], "--subject-size: must be at least 1, got 0"),
    (["gen", "--wildcard-density", "2"], "--wildcard-density: must be in [0, 1], got 2.0"),
    (["gen", "--wildcard-density", "-0.5"],
     "--wildcard-density: must be in [0, 1], got -0.5"),
    (["gen", "--wildcard-density", "nan"], "--wildcard-density: must be in [0, 1], got nan"),
    (["gen", "--wildcard-density", "inf"], "--wildcard-density: must be in [0, 1], got inf"),
    (["bench", "--family", "tn", "--n-max", "-1"], "--n-max: must be at least 1, got -1"),
    (["bench", "--family", "tn", "--n-max", "0"], "--n-max: must be at least 1, got 0"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, argv, message):
    if argv[0] == "gen":
        argv = [*argv, "--seed", "1", "--out-prefix", str(tmp_path / "inst")]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: setmatch {argv[0]} ")
    assert err.endswith(f"error: argument {message}\n")
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


def test_flags_at_their_bounds_are_accepted(tmp_path, capsys):
    assert main(["gen", "--seed", "1", "--depth", "0", "--subject-size", "1",
                 "--wildcard-density", "1", "--out-prefix", str(tmp_path / "a")]) == 0
    assert main(["gen", "--seed", "1", "--wildcard-density", "0",
                 "--out-prefix", str(tmp_path / "b")]) == 0
    assert main(["bench", "--family", "tn", "--n-max", "1"]) == 0
    assert capsys.readouterr().out.endswith("n\trightmost\tleftmost\n1\t2\t2\n")


def test_usage_errors_exit_with_2():
    with pytest.raises(SystemExit) as e:
        main(["compile", "--patterns", "p"])  # missing --out
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["match", "--automaton", "a", "--term", "t",
              "--strategy", "sideways"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["match", "--automaton", "a", "--term", "t", "--strategy", "parallel"],
    ["match", "--automaton", "a", "--term", "t", "--workers", "4"],
    ["bench", "--random"],
    ["bench", "--n-max", "3"],  # --family is required
], ids=["parallel", "workers", "random", "no-family"])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: setmatch ")
    assert "error: " in err
