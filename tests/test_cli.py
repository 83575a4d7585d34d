import os
import subprocess
import sys
from itertools import combinations

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
    bad.write_text("nodes a b\na -- b\na -> b\n")
    assert run(["check", str(bad)]) == 2
    assert "line 3, column 1: duplicate edge" in capsys.readouterr().err
    bad.write_text("nodes a b\na -- c\n")
    assert run(["check", str(bad)]) == 2
    assert "line 2, column 6: unknown node 'c'" in capsys.readouterr().err


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


def test_sep_bad_triplet(files, capsys):
    for criterion in ("moral", "c"):
        for text in ("z | a |", "a | z |", "a | c | z"):
            assert run(["sep", files["ga.cg"], text, "--criterion", criterion]) == 2
            assert capsys.readouterr().err == f"error: triplet {text!r}: unknown nodes: ['z']\n"
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


def test_recover_verify_over_bound_prints_nothing(tmp_path, capsys):
    path = tmp_path / "dag.cg"

    def write_dag(k):  # the first k pairs of eight labels, all arrows
        pairs = list(combinations("abcdefgh", 2))[:k]
        path.write_text("nodes a b c d e f g h\n" + "".join(f"{u} -> {v}\n" for u, v in pairs))

    write_dag(12)
    assert run(["recover", "--from-cg", str(path), "--verify"]) == 0
    verified = capsys.readouterr()
    assert run(["recover", "--from-cg", str(path)]) == 0
    assert verified == (capsys.readouterr().out + "PASS\n", "")
    write_dag(14)
    assert run(["recover", "--from-cg", str(path), "--verify"]) == 2
    assert capsys.readouterr() == ("", "error: --verify: 14 edges exceeds bound 12\n")


def test_recover_verify_needs_from_cg(files, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["recover", "--model", files["indep.model"], "--verify"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --verify requires --from-cg" in captured.err


def test_recover_trace(tmp_path, capsys):
    text = "nodes p q u v\np -- q\nu -> p\nv -> q\n"
    gc = tmp_path / "gc.cg"
    gc.write_text(text)
    assert run(["recover", "--from-cg", str(gc)]) == 0
    plain = capsys.readouterr().out
    assert run(["recover", "--from-cg", str(gc), "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert "ban:" in captured.err
    # one separator line per non-adjacent pair, in sorted pair order, before
    # the stage-2 events, and each set separates its pair
    g = chaingraphs.parse_graph(text)
    lines = captured.err.splitlines()
    separators = [line for line in lines if line.startswith("separator:")]
    assert lines[:len(separators)] == separators
    pairs = []
    for line in separators:
        ends, _, zs = line.removeprefix("separator: ").partition(" |")
        a, b = ends.split()
        pairs.append((a, b))
        assert chaingraphs.moralization_represented(
            g, chaingraphs.Triplet([a], [b], zs.split())), line
    assert pairs == [p for p in combinations(g.nodes, 2) if not g.has_edge(*p)]


def test_largest_over_anchored_semislide_bound_exit_2(tmp_path, monkeypatch, capsys):
    pat = tmp_path / "pat.cg"
    pat.write_text("nodes a b c d e\na -- d\nb -- d\nc -- d\nd -- e\n"
                   "c -> a\ne -> a\nc -> b\ne -> b\n")
    monkeypatch.setattr(chaingraphs.depmodel, "MAX_WALK_SETS", 5)
    assert run(["largest", str(pat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: anchored semislide search exceeds the bound "
                            "of 5 path expansions\n")


def test_recover_model_over_walk_bound_exit_2(tmp_path, capsys):
    # 25 labels: each dep_all walk would try 2^23 conditioning sets
    model = tmp_path / "wide.model"
    model.write_text("model " + " ".join(f"x{i:02d}" for i in range(25)) + "\n")
    for command in ("recover", "pattern"):
        assert run([command, "--model", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: dep_all walk over 2^23 conditioning sets "
                                "exceeds the bound of 1048576\n")


def test_recover_from_cg_over_skeleton_bound_exit_2(files, monkeypatch, capsys):
    monkeypatch.setattr(chaingraphs.depmodel, "MAX_WALK_SETS", 5)  # ga has 6 pairs
    assert run(["recover", "--from-cg", files["ga.cg"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: skeleton search over 4 nodes exceeds "
                            "the bound of 5 queries\n")


def test_recover_from_cg_over_complex_end_bound_exit_2(tmp_path, monkeypatch, capsys,
                                                      diamond_ladder):
    ladder = tmp_path / "ladder.cg"
    ladder.write_text(chaingraphs.serialize_graph(diamond_ladder(8)))
    monkeypatch.setattr(chaingraphs.depmodel, "MAX_WALK_SETS", 9087)
    assert run(["recover", "--from-cg", str(ladder)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: complex-end search over 27 nodes exceeds "
                            "the bound of 9087 path expansions\n")


def test_model_parse_errors_exit_2(tmp_path, capsys):
    model = tmp_path / "bad.model"
    for text, message in (("model a b\na | c |\n", "line 2: unknown nodes: ['c']"),
                          ("model a a\n", "line 1: repeated label 'a'")):
        model.write_text(text)
        for command in ("recover", "pattern"):
            assert run([command, "--model", str(model)]) == 2
            assert capsys.readouterr().err == f"error: {model}: {message}\n"


def test_module_entry_point_exit_2(tmp_path, capsys):
    # python -m chaingraphs runs the same command, with the same exit code
    model = tmp_path / "bad.model"
    model.write_text("model a b\na | c |\n")
    argv = ["pattern", "--model", str(model)]
    assert run(argv) == 2
    expected = capsys.readouterr().err
    src = os.path.dirname(os.path.dirname(chaingraphs.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("chaingraphs", "chaingraphs.cli"):
        done = subprocess.run([sys.executable, "-m", module, *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", expected), module


def test_equiv(files, capsys):
    assert run(["equiv", files["ga.cg"], files["ga_lines.cg"]]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"
    assert run(["equiv", files["ga.cg"], files["ge.cg"]]) == 2  # node sets differ
    assert capsys.readouterr().err == "error: graphs are over different node sets\n"


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


def test_class_over_bound_exit_2(tmp_path, capsys):
    # 13 of the 15 lines on six nodes: an undirected graph, so a chain graph
    pairs = list(combinations("abcdef", 2))[:13]
    path = tmp_path / "big.cg"
    path.write_text("nodes a b c d e f\n" + "".join(f"{u} -- {v}\n" for u, v in pairs))
    assert run(["class", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 13 edges exceeds bound 12\n"


def test_dot_export(files, tmp_path, capsys):
    dot = tmp_path / "out.dot"
    assert run(["pattern", files["ga.cg"], "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph")


def test_dot_export_unwritable_exit_2(files, tmp_path, capsys):
    dot = tmp_path / "missing" / "out.dot"
    for argv in (["moralize", files["ga.cg"]], ["pattern", files["ga.cg"]],
                 ["largest", files["ga_lines.cg"]], ["recover", "--from-cg", files["ga.cg"]]):
        assert run(argv + ["--dot", str(dot)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {dot}: No such file or directory\n"
        assert run(argv) == 0  # the same command without --dot succeeds
        capsys.readouterr()


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
