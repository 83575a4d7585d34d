import os
import subprocess
import sys

import pytest

import chaingraphs
from chaingraphs.cli import run

GA = "nodes a b c d\nb -> a\nb -> c\na -> d\nc -> d\n"
GA_LINES = "nodes a b c d\na -- b\nb -- c\na -> d\nc -> d\n"
GE = ("nodes a b c d e f g\nc -- d\nd -- e\na -> c\nb -> e\nb -> g\n"
      "d -> f\nd -> g\n")
CYCLE = "nodes a b c\na -> b\nb -> c\nc -> a\n"
MODEL = "model a b\na | b |\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("ga.cg", GA), ("ga_lines.cg", GA_LINES), ("ge.cg", GE),
                       ("cycle.cg", CYCLE), ("indep.model", MODEL)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_check(files, capsys):
    assert run(["check", files["ga.cg"]]) == 0
    assert "chain graph" in capsys.readouterr().out
    assert run(["check", files["cycle.cg"]]) == 1
    assert "pseudocycle" in capsys.readouterr().out


def test_missing_file_exit_2(tmp_path, capsys):
    assert run(["check", str(tmp_path / "nope.cg")]) == 2


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cg"
    bad.write_text("nodes a b\na == b\n")
    assert run(["check", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_components(files, capsys):
    assert run(["components", files["ge.cg"]]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a", "b", "c d e", "f", "g"]


def test_complexes(files, capsys):
    assert run(["complexes", files["ge.cg"]]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a -> c - d - e <- b", "b -> g <- d"]


def test_moralize(files, capsys):
    assert run(["moralize", files["ge.cg"]]) == 0
    out = capsys.readouterr().out
    assert "a -- b" in out and "b -- d" in out


def test_moralize_non_cg_exit_2(files, capsys):
    assert run(["moralize", files["cycle.cg"]]) == 2
    assert "pseudocycle" in capsys.readouterr().err


def test_sep_verdicts(files, capsys):
    assert run(["sep", files["ge.cg"], "a | f | c,e,g", "--criterion", "c"]) == 1
    assert capsys.readouterr().out.strip() == "CONNECTED"
    assert run(["sep", files["ge.cg"], "a | f | c,e,g", "--criterion", "moral"]) == 1
    assert run(["sep", files["ga.cg"], "a | c | b"]) == 0
    assert capsys.readouterr().out.strip().endswith("SEPARATED")


def test_sep_bad_triplet(files):
    assert run(["sep", files["ga.cg"], "a | z |"]) == 2
    assert run(["sep", files["ga.cg"], "a | a |"]) == 2


def test_pattern(files, capsys):
    assert run(["pattern", files["ga.cg"]]) == 0
    out = capsys.readouterr().out
    assert "a -- b" in out and "a -> d" in out


def test_pattern_from_model(files, capsys):
    assert run(["pattern", "--model", files["indep.model"]]) == 0
    assert capsys.readouterr().out == "nodes a b\n"


def test_pattern_arg_validation(files):
    with pytest.raises(SystemExit):
        run(["pattern"])
    with pytest.raises(SystemExit):
        run(["pattern", files["ga.cg"], "--model", files["indep.model"]])


def test_parser_reused_across_runs(files, capsys):
    from chaingraphs.cli import _build_parser
    assert _build_parser() is _build_parser()
    # errors on the shared parser exit 2 every time and leave no state behind
    for argv in (["pattern"], ["sep", files["ga.cg"]], ["pattern"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert run(["sep", files["ga.cg"], "a | c | b", "--criterion", "c"]) == 0
    assert run(["sep", files["ga.cg"], "a | c | b,d"]) == 1
    assert capsys.readouterr().out == "SEPARATED\nCONNECTED\n"


def test_largest(files, tmp_path, capsys):
    pat = tmp_path / "pat.cg"
    pat.write_text("nodes a b c d\na -- b\nb -- c\na -> d\nc -> d\n")
    assert run(["largest", str(pat)]) == 0
    assert capsys.readouterr().out == pat.read_text()


def test_largest_invalid_pattern(tmp_path, capsys):
    bad = tmp_path / "bad.cg"
    bad.write_text("nodes a b c\na -> b\nb -- c\n")
    assert run(["largest", str(bad)]) == 2


def test_recover_verify(files, capsys):
    assert run(["recover", "--from-cg", files["ga.cg"], "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS\n")


def test_recover_trace(files, tmp_path, capsys):
    gc = tmp_path / "gc.cg"
    gc.write_text("nodes p q u v\np -- q\nu -> p\nv -> q\n")
    assert run(["recover", "--from-cg", str(gc), "--trace"]) == 0
    assert "ban:" in capsys.readouterr().err


def test_equiv(files, capsys):
    assert run(["equiv", files["ga.cg"], files["ga_lines.cg"]]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"
    assert run(["equiv", files["ga.cg"], files["ge.cg"]]) == 2  # node sets differ


def test_inputlist(files, capsys):
    assert run(["inputlist", files["ga.cg"]]) == 0
    assert "d | b | a,c" in capsys.readouterr().out.splitlines()


def test_closure(files, tmp_path, capsys):
    m = tmp_path / "m.model"
    m.write_text("model a b c\na | b,c |\n")
    assert run(["closure", str(m)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "a | b | c" in out
    assert run(["closure", str(m), "--semigraphoid"]) == 0


def test_class(files, capsys):
    assert run(["class", files["ga.cg"]]) == 0
    out = capsys.readouterr().out
    assert out.count("nodes a b c d") == 8


def test_dot_export(files, tmp_path, capsys):
    dot = tmp_path / "out.dot"
    assert run(["pattern", files["ga.cg"], "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph")


def test_output_deterministic(files, capsys):
    run(["class", files["ga.cg"]])
    first = capsys.readouterr().out
    run(["class", files["ga.cg"]])
    assert capsys.readouterr().out == first


def test_recover_conflict_independent_of_hash_seed(tmp_path):
    # both diagonals of the 4-cycle are independent, so level 1 demands
    # every line in both directions; the first line in edge order is named
    model = tmp_path / "cycle.model"
    model.write_text("model a b c d\na | c |\nb | d |\n")
    src = os.path.dirname(os.path.dirname(chaingraphs.__file__))
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.run(
            [sys.executable, "-c", "from chaingraphs.cli import main; main()",
             "recover", "--model", str(model)],
            env=env, capture_output=True, text=True, timeout=60))
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr == \
        "error: line ('a', 'b') demanded in both directions\n"
