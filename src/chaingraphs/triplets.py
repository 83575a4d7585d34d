"""Independence triplets <X, Y | Z> and their text format.

The triplet text format is ``X | Y | Z`` with comma-separated labels in
each part; Z may be empty, e.g. ``a | f | c,e,g`` or ``a,b | c |``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .graph import _LABEL_RE, GraphError, HybridGraph

__all__ = ["InvalidTripletError", "Triplet", "parse_triplet", "format_triplet", "all_triplets"]


class InvalidTripletError(ValueError):
    pass


@dataclass(frozen=True)
class Triplet:
    """Ordered triplet of pairwise disjoint node sets; X and Y nonempty."""

    X: frozenset[str]
    Y: frozenset[str]
    Z: frozenset[str]

    def __init__(self, X: Iterable[str], Y: Iterable[str], Z: Iterable[str] = ()):
        object.__setattr__(self, "X", frozenset(X))
        object.__setattr__(self, "Y", frozenset(Y))
        object.__setattr__(self, "Z", frozenset(Z))
        if not self.X or not self.Y:
            raise InvalidTripletError("X and Y must be nonempty")
        if self.X & self.Y or self.X & self.Z or self.Y & self.Z:
            raise InvalidTripletError("X, Y, Z must be pairwise disjoint")

    def symmetric(self) -> "Triplet":
        return Triplet(self.Y, self.X, self.Z)

    def validate_over(self, nodes: Iterable[str]) -> None:
        unknown = (self.X | self.Y | self.Z) - set(nodes)
        if unknown:
            raise InvalidTripletError(f"unknown nodes: {sorted(unknown)}")

    def masks_over(self, g: HybridGraph) -> tuple[int, int, int]:
        """X, Y and Z as node masks of ``g``.  A label ``g`` lacks raises
        the ``InvalidTripletError`` of :meth:`validate_over`, naming them all;
        the labels are checked only when a lookup misses."""
        try:
            return g.mask_of(self.X), g.mask_of(self.Y), g.mask_of(self.Z)
        except GraphError:
            self.validate_over(g.nodes)
            raise

    def __repr__(self) -> str:
        return f"Triplet({format_triplet(self)!r})"


def parse_triplet(text: str) -> Triplet:
    parts = text.split("|")
    if len(parts) != 3:
        raise InvalidTripletError(f"expected 'X | Y | Z', got {text!r}")

    def labels(part: str) -> list[str]:
        items = [tok.strip() for tok in part.split(",")]
        items = [tok for tok in items if tok]
        for tok in items:
            if not _LABEL_RE.match(tok):
                raise InvalidTripletError(f"invalid label {tok!r}")
        return items

    return Triplet(labels(parts[0]), labels(parts[1]), labels(parts[2]))


def format_triplet(t: Triplet) -> str:
    def part(s: frozenset[str]) -> str:
        return ",".join(sorted(s))

    return f"{part(t.X)} | {part(t.Y)} | {part(t.Z)}"


def all_triplets(nodes: Iterable[str], max_nodes: int = 7) -> Iterator[Triplet]:
    """Every triplet over ``nodes``: each node takes one of the four roles
    X / Y / Z / outside, filtered to nonempty X and Y.  Deterministic order.
    """
    labels = sorted(nodes)
    if len(labels) > max_nodes:
        raise InvalidTripletError(f"node-count bound exceeded: {len(labels)} > {max_nodes}")
    for roles in product(range(4), repeat=len(labels)):
        X = [lab for lab, r in zip(labels, roles) if r == 0]
        Y = [lab for lab, r in zip(labels, roles) if r == 1]
        if not X or not Y:
            continue
        Z = [lab for lab, r in zip(labels, roles) if r == 2]
        yield Triplet(X, Y, Z)
