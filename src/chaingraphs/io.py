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

from .graph import HybridGraph, _LABEL_RE, arrow, build_graph, line

__all__ = ["ParseError", "parse_graph", "serialize_graph", "parse_graphs", "serialize_graphs", "to_dot"]


class ParseError(ValueError):
    def __init__(self, message: str, lineno: int, column: int = 1):
        super().__init__(f"line {lineno}, column {column}: {message}")
        self.lineno = lineno
        self.column = column


def _tokens(raw_line: str) -> list[str]:
    return raw_line.split("#", 1)[0].split()


def parse_graph(text: str) -> HybridGraph:
    """Parse one graph in the text format; raises ParseError with position."""
    lines_iter = list(enumerate(text.splitlines(), start=1))
    header = None
    specs = []
    for lineno, raw in lines_iter:
        toks = _tokens(raw)
        if not toks:
            continue
        if header is None:
            if toks[0] != "nodes":
                raise ParseError("expected 'nodes' header line", lineno)
            labels = toks[1:]
            if not labels:
                raise ParseError("empty node list", lineno, len("nodes ") + 1)
            for label in labels:
                if not _LABEL_RE.match(label):
                    raise ParseError(f"invalid label {label!r}", lineno, raw.index(label) + 1)
            header = (lineno, labels)
            continue
        if len(toks) != 3 or toks[1] not in ("--", "->"):
            raise ParseError("expected '<u> -- <v>' or '<u> -> <v>'", lineno)
        u, op, v = toks
        specs.append(line(u, v) if op == "--" else arrow(u, v))
    if header is None:
        raise ParseError("missing 'nodes' header line", 1)
    try:
        return build_graph(header[1], specs)
    except ValueError as exc:
        raise ParseError(str(exc), header[0]) from exc


def serialize_graph(g: HybridGraph) -> str:
    """Canonical text rendering, LF-terminated."""
    out = ["nodes " + " ".join(g.nodes)]
    out.extend(f"{u} -- {v}" for u, v in g.lines())
    out.extend(f"{u} -> {v}" for u, v in g.arrows())
    return "\n".join(out) + "\n"


def parse_graphs(text: str) -> list[HybridGraph]:
    """Parse a '---'-separated list of graph blocks."""
    graphs = []
    block: list[str] = []
    for raw in text.splitlines():
        if raw.strip() == "---":
            graphs.append(parse_graph("\n".join(block)))
            block = []
        else:
            block.append(raw)
    if any(_tokens(raw) for raw in block):
        graphs.append(parse_graph("\n".join(block)))
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
