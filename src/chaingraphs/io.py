"""Text serialization: the graph file format and one-way DOT export.

Graph format::

    # comment
    nodes a b c d
    a -- b
    b -> c

The ``nodes`` line comes first; ``--`` is a line, ``->`` an arrow; ``#``
starts a comment and blank lines are ignored.  Serialization is canonical
(nodes in label order, then lines, then arrows, emission order sorted by
endpoint pair) so parse -> serialize round-trips bit-exactly.
"""

from __future__ import annotations

import re

from .graph import HybridGraph, _LABEL_RE, _bits, arrow, build_graph, line

__all__ = ["ParseError", "parse_graph", "serialize_graph", "parse_graphs", "serialize_graphs", "to_dot"]


class ParseError(ValueError):
    def __init__(self, message: str, lineno: int, column: int = 1):
        super().__init__(f"line {lineno}, column {column}: {message}")
        self.lineno = lineno
        self.column = column


def _tokens(raw_line: str) -> list[str]:
    return raw_line.split("#", 1)[0].split()


def _column(raw_line: str, k: int) -> int:
    """1-based column of the k-th token (from 0) of ``raw_line``."""
    return list(re.finditer(r"\S+", raw_line))[k].start() + 1


def parse_graph(text: str) -> HybridGraph:
    """Parse one graph in the text format; raises ParseError with position."""
    lines = text.splitlines()
    return _parse_block(enumerate(lines, start=1), max(len(lines), 1))


def _parse_block(numbered, end: int) -> HybridGraph:
    """One graph from ``(lineno, raw)`` pairs ending at line ``end``; each
    line is checked as it is read, so an error names its own line."""
    labels = None
    pairs = set()
    specs = []
    for lineno, raw in numbered:
        toks = _tokens(raw)
        if not toks:
            continue
        if labels is None:
            if toks[0] != "nodes":
                raise ParseError("expected 'nodes' header line", lineno)
            if len(toks) == 1:
                raise ParseError("empty node list", lineno, len("nodes ") + 1)
            labels = set()
            for k, label in enumerate(toks[1:], start=1):
                if label in labels or not _LABEL_RE.match(label):
                    what = "repeated" if label in labels else "invalid"
                    raise ParseError(f"{what} label {label!r}", lineno, _column(raw, k))
                labels.add(label)
            continue
        if len(toks) != 3 or toks[1] not in ("--", "->"):
            raise ParseError("expected '<u> -- <v>' or '<u> -> <v>'", lineno)
        u, op, v = toks
        for k in (0, 2):
            if toks[k] not in labels:
                raise ParseError(f"unknown node {toks[k]!r}", lineno, _column(raw, k))
        pair = (u, v) if u < v else (v, u)
        if u == v or pair in pairs:
            what = f"self-loop at {u!r}" if u == v else f"duplicate edge {pair!r}"
            raise ParseError(what, lineno)
        pairs.add(pair)
        specs.append(line(u, v) if op == "--" else arrow(u, v))
    if labels is None:
        raise ParseError("missing 'nodes' header line", end)
    return build_graph(labels, specs)


def serialize_graph(g: HybridGraph) -> str:
    """Canonical text rendering, LF-terminated.

    The lines, then the arrows, each in sorted-pair order, are written
    straight from the line, parent and child masks; no edge map is built.
    """
    nodes, sib, par, chi = g.nodes, g.sib_masks, g.par_masks, g.chi_masks
    out = ["nodes " + " ".join(nodes)]
    for i, u in enumerate(nodes):
        out.extend(f"{u} -- {nodes[j]}" for j in _bits(sib[i] & ~((2 << i) - 1)))
    for i, u in enumerate(nodes):
        for j in _bits((par[i] | chi[i]) & ~((2 << i) - 1)):
            out.append(f"{u} -> {nodes[j]}" if chi[i] >> j & 1 else f"{nodes[j]} -> {u}")
    return "\n".join(out) + "\n"


def parse_graphs(text: str) -> list[HybridGraph]:
    """Parse a '---'-separated list of graph blocks; errors give file lines."""
    graphs = []
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == "---":
            graphs.append(_parse_block(block, lineno))
            block = []
        else:
            block.append((lineno, raw))
    if any(_tokens(raw) for _, raw in block):
        graphs.append(_parse_block(block, block[-1][0]))
    return graphs


def serialize_graphs(graphs: list[HybridGraph]) -> str:
    return "---\n".join(serialize_graph(g) for g in graphs)


def to_dot(g: HybridGraph, name: str = "G") -> str:
    """DOT rendering: lines as undirected-styled edges, arrows directed."""
    out = [f"digraph {name} {{"]
    for label in g.nodes:
        out.append(f'  "{label}";')
    for u, v in g.lines():
        out.append(f'  "{u}" -> "{v}" [dir=none];')
    for u, v in g.arrows():
        out.append(f'  "{u}" -> "{v}";')
    out.append("}")
    return "\n".join(out) + "\n"
