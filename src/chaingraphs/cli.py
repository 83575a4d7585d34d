"""Command-line surface.

Exit codes: 0 = computed / domain answer "yes", 1 = domain answer "no" or
"dependent", 2 = input error.  All output is UTF-8 with LF endings and is
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .complexes import (
    BoundExceededError,
    enumerate_complexes,
    equivalence_class,
    largest_cg_oracle,
    markov_equivalent,
    pattern_of,
)
from .depmodel import CGBackedModel, graphoid_closure, input_list, parse_model, semigraphoid_closure
from .graph import (
    HybridGraph,
    components,
    component_chain,
    find_directed_pseudocycle,
    is_chain_graph,
)
from .io import ParseError, parse_graph, serialize_graph, serialize_graphs, to_dot
from .recovery import InvalidPatternError, recover_largest, recover_pattern
from .separation import c_represented, moral_graph, moralization_represented
from .triplets import InvalidTripletError, format_triplet, parse_triplet

__all__ = ["main", "run"]


class _InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from exc


def _load_graph(path: str) -> HybridGraph:
    try:
        return parse_graph(_read(path))
    except ParseError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_model(path: str):
    try:
        return parse_model(_read(path))
    except InvalidTripletError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _require_cg(g: HybridGraph, path: str) -> None:
    if not is_chain_graph(g):
        cyc = find_directed_pseudocycle(g)
        raise _InputError(f"{path}: not a chain graph "
                          f"(directed pseudocycle: {' '.join(cyc)})")


def _parse_triplet_arg(text: str, g: HybridGraph):
    """The triplet ``text`` over the nodes of ``g``; errors name the text."""
    try:
        t = parse_triplet(text)
        t.validate_over(g.nodes)
    except InvalidTripletError as exc:
        raise _InputError(f"triplet {text!r}: {exc}") from exc
    return t


def _emit_graph(g: HybridGraph, args) -> None:
    """Write the DOT file first, if asked, so that a failed write leaves
    stdout empty; then print the graph."""
    if getattr(args, "dot", None):
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(to_dot(g))
        except OSError as exc:
            raise _InputError(f"cannot write {args.dot}: {exc.strerror}") from exc
    sys.stdout.write(serialize_graph(g))


def _format_complex(cpx) -> str:
    return f"{cpx.path[0]} -> " + " - ".join(cpx.region) + f" <- {cpx.path[-1]}"


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args) -> int:
    g = _load_graph(args.file)
    if is_chain_graph(g):
        print("chain graph")
        return 0
    cyc = find_directed_pseudocycle(g)
    print(f"not a chain graph (directed pseudocycle: {' '.join(cyc)})")
    return 1


def _cmd_components(args) -> int:
    g = _load_graph(args.file)
    for comp in components(g):
        print(" ".join(sorted(comp)))
    return 0


def _cmd_complexes(args) -> int:
    g = _load_graph(args.file)
    for cpx in enumerate_complexes(g):
        print(_format_complex(cpx))
    return 0


def _cmd_moralize(args) -> int:
    g = _load_graph(args.file)
    _require_cg(g, args.file)
    _emit_graph(moral_graph(g), args)
    return 0


def _cmd_sep(args) -> int:
    g = _load_graph(args.file)
    _require_cg(g, args.file)
    t = _parse_triplet_arg(args.triplet, g)
    fn = moralization_represented if args.criterion == "moral" else c_represented
    if fn(g, t):
        print("SEPARATED")
        return 0
    print("CONNECTED")
    return 1


def _cmd_pattern(args) -> int:
    if args.model:
        model = _load_model(args.model)
        _emit_graph(recover_pattern(model), args)
        return 0
    g = _load_graph(args.file)
    _require_cg(g, args.file)
    _emit_graph(pattern_of(g), args)
    return 0


def _trace_sink(enabled: bool):
    if not enabled:
        return None

    def sink(event):
        if event[0] == "separator":
            _, a, b, zs = event
            print(f"separator: {a} {b} |" + "".join(f" {z}" for z in zs), file=sys.stderr)
        elif event[0] == "ban":
            print(f"ban: no {event[1]} <- {event[2]}", file=sys.stderr)
        else:
            rule, tail, head, witness = event
            print(f"{rule}: {tail} -> {head} (witness {' '.join(witness)})",
                  file=sys.stderr)
    return sink


def _cmd_largest(args) -> int:
    g = _load_graph(args.file)
    try:
        result = recover_largest(g, trace=_trace_sink(args.trace))
    except InvalidPatternError as exc:
        raise _InputError(f"{args.file}: {exc}") from exc
    _emit_graph(result, args)
    return 0


def _cmd_recover(args) -> int:
    if args.from_cg:
        g = _load_graph(args.from_cg)
        _require_cg(g, args.from_cg)
        model = CGBackedModel(g, criterion=args.criterion)
    else:
        model = _load_model(args.model)
    trace = _trace_sink(args.trace)
    pat = recover_pattern(model, trace=trace)
    result = recover_largest(pat, trace=trace)
    ok = None
    if args.verify:  # checked before any output, so that a refused check prints nothing
        try:
            ok = pat == pattern_of(g) and result == largest_cg_oracle(g)
        except BoundExceededError as exc:
            raise _InputError(f"--verify: {exc}") from exc
    _emit_graph(result, args)
    if ok is None:
        return 0
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_equiv(args) -> int:
    g = _load_graph(args.file1)
    h = _load_graph(args.file2)
    _require_cg(g, args.file1)
    _require_cg(h, args.file2)
    if markov_equivalent(g, h):
        print("EQUIVALENT")
        return 0
    print("NOT EQUIVALENT")
    return 1


def _cmd_inputlist(args) -> int:
    g = _load_graph(args.file)
    _require_cg(g, args.file)
    for t in input_list(g, component_chain(g)):
        print(format_triplet(t))
    return 0


def _cmd_closure(args) -> int:
    model = _load_model(args.file)
    fn = semigraphoid_closure if args.semigraphoid else graphoid_closure
    closed = fn(model.independencies, model.nodes)
    for text in sorted(format_triplet(t) for t in closed):
        print(text)
    return 0


def _cmd_class(args) -> int:
    g = _load_graph(args.file)
    _require_cg(g, args.file)
    members = equivalence_class(g)
    sys.stdout.write(serialize_graphs(members))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaingraphs",
        description="Chain-graph separation criteria, Markov equivalence, "
                    "and structure recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    def with_dot(p):
        p.add_argument("--dot", metavar="FILE", help="also write a DOT rendering")
        return p

    cmd("check", _cmd_check, "test whether a graph is a chain graph").add_argument("file")
    cmd("components", _cmd_components, "list connectivity components").add_argument("file")
    cmd("complexes", _cmd_complexes, "list complexes").add_argument("file")
    with_dot(cmd("moralize", _cmd_moralize, "print the moral graph")).add_argument("file")

    p = cmd("sep", _cmd_sep, "test separation of a triplet")
    p.add_argument("file")
    p.add_argument("triplet", help="triplet in the 'X | Y | Z' format")
    p.add_argument("--criterion", choices=("moral", "c"), default="moral")

    p = with_dot(cmd("pattern", _cmd_pattern, "print the pattern"))
    p.add_argument("file", nargs="?")
    p.add_argument("--model", metavar="MODELFILE",
                   help="recover the pattern from an explicit model instead")

    p = with_dot(cmd("largest", _cmd_largest, "largest chain graph from a pattern file"))
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="log bans and directings to stderr")

    p = with_dot(cmd("recover", _cmd_recover, "end-to-end recovery from a model"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-cg", metavar="FILE", help="use the model induced by this chain graph")
    src.add_argument("--model", metavar="MODELFILE", help="use an explicit model file")
    p.add_argument("--criterion", choices=("moral", "c"), default="moral")
    p.add_argument("--verify", action="store_true",
                   help="with --from-cg, check the result against the brute-force oracles")
    p.add_argument("--trace", action="store_true", help="log bans and directings to stderr")

    p = cmd("equiv", _cmd_equiv, "test Markov equivalence of two chain graphs")
    p.add_argument("file1")
    p.add_argument("file2")

    cmd("inputlist", _cmd_inputlist,
        "input list of the component chain").add_argument("file")

    p = cmd("closure", _cmd_closure, "graphoid closure of an explicit model")
    p.add_argument("file")
    p.add_argument("--semigraphoid", action="store_true", help="omit the intersection axiom")

    cmd("class", _cmd_class, "enumerate the Markov-equivalence class").add_argument("file")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "pattern" and bool(args.file) == bool(args.model):
        parser.error("pattern needs exactly one of FILE or --model")
    if args.command == "recover" and args.verify and not args.from_cg:
        parser.error("--verify requires --from-cg")
    try:
        return args.fn(args)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
