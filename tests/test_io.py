import random

import pytest

from chaingraphs import (
    InvalidTripletError,
    ParseError,
    Triplet,
    all_triplets,
    arrow,
    build_graph,
    format_triplet,
    line,
    parse_graph,
    parse_graphs,
    parse_triplet,
    serialize_graph,
    serialize_graphs,
    to_dot,
)
from chaingraphs.enumeration import all_hybrid_graphs

SAMPLE = """\
# fixture
nodes a b c d
a -- b
b -> c
a -> d
"""


def test_parse_graph():
    g = parse_graph(SAMPLE)
    assert g.nodes == ("a", "b", "c", "d")
    assert g.is_line("a", "b")
    assert g.has_arrow("b", "c")
    assert g.has_arrow("a", "d")


def test_round_trip_bit_exact():
    g = parse_graph(SAMPLE)
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text
    assert text.endswith("\n")


def _edge_map_serialize(g):
    """The earlier serializer, kept as the reference: lines, then arrows,
    read from the label-keyed edge map."""
    out = ["nodes " + " ".join(g.nodes)]
    out.extend(f"{u} -- {v}" for u, v in g.lines())
    out.extend(f"{u} -> {v}" for u, v in g.arrows())
    return "\n".join(out) + "\n"


def _random_hybrid_graphs(rng, count, max_n):
    """Seeded graphs over v0..v<n-1>, any mix of lines and arrows, so
    chain graphs and graphs with directed pseudocycles alike."""
    for _ in range(count):
        labels = [f"v{i}" for i in range(rng.randint(1, max_n))]
        specs = []
        for i, u in enumerate(labels):
            for v in labels[i + 1:]:
                r = rng.random()
                if r < 0.1:
                    specs.append(line(u, v))
                elif r < 0.2:
                    specs.append(arrow(u, v))
                elif r < 0.3:
                    specs.append(arrow(v, u))
        yield build_graph(labels, specs)


def test_round_trip_all_four_node_hybrid_graphs():
    count = 0
    for g in all_hybrid_graphs("abcd"):
        text = serialize_graph(g)
        assert text == _edge_map_serialize(g), text
        assert parse_graph(text) == g, g
        count += 1
    assert count == 4096


def test_serialize_matches_the_edge_map_rendering_on_random_graphs():
    # labels v10..v29 sort before v2, so index order is not numeric order
    for g in _random_hybrid_graphs(random.Random(19), 1000, 30):
        text = serialize_graph(g)
        assert text == _edge_map_serialize(g), text
        assert parse_graph(text) == g, text


def test_serialize_order():
    g = build_graph("abc", [arrow("c", "b"), line("a", "c")])
    assert serialize_graph(g) == "nodes a b c\na -- c\nc -> b\n"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("a -- b\n")  # missing header
    with pytest.raises(ParseError):
        parse_graph("nodes a b\na == b\n")
    with pytest.raises(ParseError):
        parse_graph("nodes a b!\n")
    err = None
    try:
        parse_graph("nodes a b\n\na -- b -- c\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.lineno == 3
    # edge lines are checked as they are read, so the error names that line
    for text, lineno, column in [
        ("nodes a b\na -- b\na -> b\n", 3, 1),  # repeated pair
        ("nodes a b\na -- b\nb -- b\n", 3, 1),  # self-loop
        ("nodes a b\n\na -- c\n", 3, 6),        # unknown endpoint
        ("nodes a b\n  zz ->  a\n", 2, 3),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert (exc.value.lineno, exc.value.column) == (lineno, column)


def test_parse_graphs_errors_give_file_lines():
    text = "nodes a b\na -- b\n---\nnodes a b\na -- b\na -> b\n"
    with pytest.raises(ParseError) as exc:
        parse_graphs(text)
    assert exc.value.lineno == 6
    with pytest.raises(ParseError) as exc:
        parse_graphs("nodes a\n---\nnodes a\nb -- a\n")
    assert (exc.value.lineno, exc.value.column) == (4, 1)
    with pytest.raises(ParseError) as exc:
        parse_graphs("nodes a\n---\n\n---\nnodes b\n")
    assert exc.value.lineno == 4  # the empty block ends at its separator


def test_parse_graphs_blocks():
    g = build_graph("ab", [line("a", "b")])
    h = build_graph("ab", [arrow("a", "b")])
    text = serialize_graphs([g, h])
    assert parse_graphs(text) == [g, h]


def test_to_dot():
    g = build_graph("ab", [arrow("a", "b")])
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert '"a" -> "b";' in dot
    ug = build_graph("ab", [line("a", "b")])
    assert "dir=none" in to_dot(ug)


def test_triplet_validation():
    with pytest.raises(InvalidTripletError):
        Triplet(set(), {"b"}, set())
    with pytest.raises(InvalidTripletError):
        Triplet({"a"}, {"a"}, set())
    with pytest.raises(InvalidTripletError):
        Triplet({"a"}, {"b"}, {"a"})
    t = Triplet({"a"}, {"b"}, {"c"})
    assert t.symmetric() == Triplet({"b"}, {"a"}, {"c"})


def test_triplet_text_format():
    t = parse_triplet("a | f | c,e,g")
    assert t == Triplet({"a"}, {"f"}, {"c", "e", "g"})
    assert format_triplet(t) == "a | f | c,e,g"
    empty_z = parse_triplet("a,b | c |")
    assert empty_z.Z == frozenset()
    with pytest.raises(InvalidTripletError):
        parse_triplet("a | b")
    with pytest.raises(InvalidTripletError):
        parse_triplet("a! | b | c")


def test_all_triplets_counts():
    assert sum(1 for _ in all_triplets("ab")) == 2
    # inclusion-exclusion: 4^n - 2*3^n + 2^n
    assert sum(1 for _ in all_triplets("abc")) == 18
    assert list(all_triplets("a")) == []
