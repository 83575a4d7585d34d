"""Randomized property checks with hypothesis."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaingraphs import (
    CGBackedModel,
    ancestral_set,
    c_represented,
    components,
    graphoid_closure,
    induced_subgraph,
    largest_cg_oracle,
    moral_graph,
    moral_graph_component_variant,
    moralization_represented,
    parse_graph,
    pattern_of,
    recover_largest,
    recover_pattern,
    serialize_graph,
    underlying,
)
from chaingraphs.enumeration import random_chain_graph, random_triplet

LABELS = "abcde"


@st.composite
def chain_graphs(draw, labels=LABELS):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_chain_graph(random.Random(seed), labels)


@st.composite
def graph_triplet_pairs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    labels = LABELS[:rng.randint(3, 5)]
    return random_chain_graph(rng, labels), random_triplet(rng, labels)


common = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@common
@given(chain_graphs())
def test_serialization_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@common
@given(chain_graphs())
def test_induced_subgraph_identity(g):
    assert induced_subgraph(g, g.nodes) == g


@common
@given(chain_graphs())
def test_components_of_underlying(g):
    u = underlying(g)
    assert components(u) == [frozenset(c) for c in
                             sorted((set(c) for c in components(u)), key=min)]


@common
@given(chain_graphs())
def test_ancestral_set_closure(g):
    for u in g.nodes:
        a = ancestral_set(g, {u})
        assert ancestral_set(g, a) == a


@common
@given(graph_triplet_pairs())
def test_criteria_agree(pair):
    g, t = pair
    assert c_represented(g, t) == moralization_represented(g, t)


@common
@given(chain_graphs())
def test_moral_graph_variants_agree(complex_join, g):
    assert moral_graph(g) == moral_graph_component_variant(g) == complex_join(g)


@common
@given(graph_triplet_pairs())
def test_model_symmetry(pair):
    g, t = pair
    assert moralization_represented(g, t) == moralization_represented(g, t.symmetric())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_graphs(labels="abcd"))
def test_recovery_round_trip(g):
    assert recover_pattern(CGBackedModel(g)) == pattern_of(g)
    assert recover_largest(pattern_of(g)) == largest_cg_oracle(g)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_rule_order_invariance(seed):
    # the fixpoint must not depend on seed-triplet insertion order
    rng = random.Random(seed)
    labels = "abcd"
    seeds = {random_triplet(rng, labels) for _ in range(3)}
    as_list = sorted(seeds, key=repr)
    assert graphoid_closure(seeds, labels) == graphoid_closure(reversed(as_list), labels)
