"""The mask-level recovery predicates against the literal triplet loop.

``reference_dep_all`` and ``reference_dep_plus`` are the predicates as
they read in the paper: try every conditioning set over the other nodes
(of ``model.nodes``, by size, then in ``combinations`` order), build the
``Triplet`` and ask.  ``dep_all``/``dep_plus`` walk the same sets as int
masks and ask the model's ``independent_mask``.
"""

import random
from itertools import combinations, permutations

import pytest

from chaingraphs import (
    CGBackedModel,
    DependencyModel,
    ExplicitModel,
    InvalidTripletError,
    Triplet,
    all_triplets,
    c_represented,
    dep_all,
    dep_plus,
    moralization_represented,
    recover_pattern,
)
from chaingraphs.enumeration import random_chain_graph


def reference_dep_all(indep, nodes, u, v):
    rest = [x for x in nodes if x not in (u, v)]
    return not any(indep(Triplet({u}, {v}, z))
                   for r in range(len(rest) + 1) for z in combinations(rest, r))


def reference_dep_plus(indep, nodes, u, v, w):
    rest = [x for x in nodes if x not in (u, v, w)]
    return not any(indep(Triplet({u}, {v}, set(z) | {w}))
                   for r in range(len(rest) + 1) for z in combinations(rest, r))


def assert_predicates_match(model, indep):
    """Every ordered pair and triple: ``dep_*`` on ``model`` against the
    literal loop over ``indep`` (a Triplet -> bool function)."""
    nodes = model.nodes
    for u, v in permutations(nodes, 2):
        assert dep_all(model, u, v) == reference_dep_all(indep, nodes, u, v), (u, v)
    for u, v, w in permutations(nodes, 3):
        assert dep_plus(model, u, v, w) == reference_dep_plus(indep, nodes, u, v, w), (u, v, w)


CRITERIA = {"moral": moralization_represented, "c": c_represented}


@pytest.mark.parametrize("criterion", ["moral", "c"])
def test_matches_reference_on_5_node_sweep(reps5, criterion):
    for g in reps5:
        assert_predicates_match(CGBackedModel(g, criterion),
                                lambda t, g=g: CRITERIA[criterion](g, t))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_matches_reference_on_random_chain_graphs(n):
    rng = random.Random(3000 + n)
    for k in range(6 if n < 8 else 2):
        g = random_chain_graph(rng, "abcdefgh"[:n])
        criterion = ("moral", "c")[k % 2]
        assert_predicates_match(CGBackedModel(g, criterion),
                                lambda t: CRITERIA[criterion](g, t))


def random_explicit_model(rng, n):
    """Random triplets over n nodes, with nonempty X and Y of any size."""
    labels = "abcdef"[:n]
    listed = []
    for _ in range(rng.randint(0, 3 * n)):
        roles = [rng.randrange(4) for _ in labels]
        x = [lab for lab, r in zip(labels, roles) if r == 0]
        y = [lab for lab, r in zip(labels, roles) if r == 1]
        if x and y:
            listed.append(Triplet(x, y, [lab for lab, r in zip(labels, roles) if r == 2]))
    return ExplicitModel(labels, listed)


def test_matches_reference_on_random_explicit_models():
    rng = random.Random(91)
    for i in range(300):
        model = random_explicit_model(rng, 3 + i % 4)
        assert_predicates_match(model, model.is_independent)


def test_explicit_model_mask_lookup_matches_is_independent():
    rng = random.Random(17)
    for i in range(100):
        model = random_explicit_model(rng, 3 + i % 4)
        bit = {lab: 1 << k for k, lab in enumerate(model.nodes)}
        for t in all_triplets(model.nodes):
            masks = (sum(bit[lab] for lab in s) for s in (t.X, t.Y, t.Z))
            assert model.independent_mask(*masks) == model.is_independent(t), t


class Recorder(DependencyModel):
    """Defines only ``nodes`` and ``is_independent``, and logs every query."""

    def __init__(self, inner, nodes):
        self.inner = inner
        self._nodes = tuple(nodes)
        self.log = []

    @property
    def nodes(self):
        return self._nodes

    def is_independent(self, t):
        self.log.append(t)
        return self.inner.is_independent(t)


def test_same_queries_in_same_order():
    rng = random.Random(5)
    for k in range(8):
        g = random_chain_graph(rng, "abcdefg"[:5 + k % 3])
        # a node sequence that is not sorted: the order follows model.nodes
        order = list(g.nodes)
        rng.shuffle(order)
        model, expected = Recorder(CGBackedModel(g), order), Recorder(CGBackedModel(g), order)
        for u, v in permutations(order, 2):
            assert dep_all(model, u, v) == reference_dep_all(expected.is_independent, order, u, v)
        for u, v, w in permutations(order, 3):
            assert dep_plus(model, u, v, w) == \
                reference_dep_plus(expected.is_independent, order, u, v, w)
        assert model.log == expected.log
        # the predicate memo answers repeats without asking the model again
        asked = len(model.log)
        recover_pattern(model)
        assert len(model.log) == asked


def test_default_independent_mask_builds_the_triplet():
    model = Recorder(ExplicitModel("abc", [Triplet("a", "c", "b")]), "cab")
    # bits follow sorted(model.nodes): a = 1, b = 2, c = 4
    assert model.independent_mask(1, 4, 2)
    assert not model.independent_mask(1, 4, 0)
    assert model.log == [Triplet("a", "c", "b"), Triplet("a", "c")]


@pytest.mark.parametrize("make", [
    lambda g: CGBackedModel(g),
    lambda g: CGBackedModel(g, "c"),
    lambda g: ExplicitModel(g.nodes, [Triplet("a", "c", "b")]),
    lambda g: Recorder(CGBackedModel(g), g.nodes),
])
def test_predicate_errors(ga, make):
    model = make(ga)
    for call in (lambda: dep_all(model, "a", "zz"),
                 lambda: dep_all(model, "zz", "a"),
                 lambda: dep_plus(model, "a", "b", "zz"),
                 lambda: dep_plus(model, "yy", "b", "zz")):
        with pytest.raises(InvalidTripletError, match="unknown nodes"):
            call()
    for call in (lambda: dep_all(model, "a", "a"),
                 lambda: dep_all(model, "zz", "zz"),
                 lambda: dep_plus(model, "a", "b", "a"),
                 lambda: dep_plus(model, "a", "b", "b")):
        with pytest.raises(ValueError, match="distinct"):
            call()


def test_cg_model_one_memo(ga):
    m = CGBackedModel(ga)
    assert not dep_all(m, "a", "c")  # separated by {b}: asks Z = {} and then {b}
    assert set(m._memo) == {(1, 4, 0), (1, 4, 2)}
    assert m.is_independent(Triplet("a", "c", "b"))
    assert m.is_independent(Triplet("a", "c", "b")) is m._memo[(1, 4, 2)]
    assert len(m._memo) == 2  # answered from the memo dep_all filled
    assert not m.is_independent(Triplet("a", "d"))
    assert m._memo[(1, 8, 0)] is False
    assert dep_all(m, "a", "d")  # asks Z = {}, {b}, {c}, {b, c}; the first is a hit
    assert len(m._memo) == 6
    with pytest.raises(InvalidTripletError):
        m.is_independent(Triplet("a", "zz"))
