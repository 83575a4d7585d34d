"""Walk one conditional-independence query through both separation criteria.

Run with: python3 demos/01_separation_walkthrough.py
"""

from chaingraphs import (
    Trail,
    Triplet,
    c_represented,
    enumerate_complexes,
    enumerate_trails,
    moral_graph,
    moralization_represented,
    parse_graph,
    section_blocked,
    sections_of,
    serialize_graph,
    slides_to,
)

TEXT = """\
nodes a b c d e f g
c -- d
d -- e
a -> c
b -> e
b -> g
d -> f
d -> g
"""


def main():
    g = parse_graph(TEXT)
    print("graph:")
    print(serialize_graph(g))

    print("complexes:")
    for c in enumerate_complexes(g):
        print(" ", c)
    print()

    t = Triplet("a", "f", "ceg")
    print(f"query: {t}")
    print("  moralization verdict:",
          "independent" if moralization_represented(g, t) else "dependent")
    print("  trail-wise verdict:  ",
          "independent" if c_represented(g, t) else "dependent")
    print()

    moral = moral_graph(g)
    filled = sorted(set(moral.edges) - set(g.edges))
    print("moral fill-in edges:", ", ".join(f"{u} -- {v}" for u, v in filled))
    print()

    z = frozenset("ceg")
    path = next(tr for tr in enumerate_trails(g, "a", "f")
                if tr.steps == ("a", "c", "d", "f"))
    print("the short route a, c, d, f is blocked:")
    for s in sections_of(path):
        print(f"  section {s.nodes} [{s.kind}] blocked:",
              section_blocked(g, path, s, z))
    print("  slides into d:", slides_to(g, "d"),
          "- every one meets Z =", sorted(z))
    print()

    long = Trail(g, ("a", "c", "d", "e", "b", "g", "d", "f"))
    print("but the long trail", long.steps, "stays active:")
    for s in sections_of(long):
        print(f"  section {s.nodes} [{s.kind}] blocked:",
              section_blocked(g, long, s, z))


if __name__ == "__main__":
    main()
