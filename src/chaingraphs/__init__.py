"""Chain-graph reasoning toolkit.

Hybrid graphs, both separation criteria (moralization and c-separation),
Markov-equivalence testing, and the two-stage recovery of the pattern and
the largest chain graph of a Markov-equivalence class from a dependency
model.
"""

from .graph import (
    EdgeKind,
    GraphError,
    NotChainGraphError,
    HybridGraph,
    arrow,
    line,
    build_graph,
    underlying,
    induced_subgraph,
    components,
    is_chain_graph,
    find_directed_pseudocycle,
    component_chain,
    parents,
    children,
    siblings,
    boundary,
    ancestral_set,
    descendants,
)
from .io import ParseError, parse_graph, serialize_graph, parse_graphs, serialize_graphs, to_dot
from .triplets import InvalidTripletError, Triplet, parse_triplet, format_triplet, all_triplets
from .complexes import (
    Complex,
    BoundExceededError,
    enumerate_complexes,
    pattern_of,
    markov_equivalent,
    is_larger,
    equivalence_class,
    largest_cg_oracle,
)
from .separation import (
    Trail,
    Section,
    moral_graph,
    moral_graph_component_variant,
    ug_separated,
    moralization_represented,
    enumerate_trails,
    sections_of,
    slides_to,
    section_blocked,
    c_represented,
)
from .depmodel import (
    DependencyModel,
    CGBackedModel,
    ExplicitModel,
    is_independent,
    dep_all,
    dep_plus,
    input_list,
    graphoid_closure,
    semigraphoid_closure,
    parse_model,
    serialize_model,
)
from .recovery import (
    PatternConflictError,
    InvalidPatternError,
    AnnotatedPattern,
    Directing,
    recover_pattern,
    feasible_semislide_exists,
    transitivity_fixpoint,
    necessity_step,
    doublecycle_step,
    recover_largest,
    recover_end_to_end,
)

__version__ = "1.0.0"

__all__ = [
    "EdgeKind", "GraphError", "NotChainGraphError", "HybridGraph",
    "arrow", "line", "build_graph", "underlying", "induced_subgraph",
    "components", "is_chain_graph", "find_directed_pseudocycle",
    "component_chain", "parents", "children", "siblings", "boundary",
    "ancestral_set", "descendants",
    "ParseError", "parse_graph", "serialize_graph", "parse_graphs",
    "serialize_graphs", "to_dot",
    "InvalidTripletError", "Triplet", "parse_triplet", "format_triplet",
    "all_triplets",
    "Complex", "BoundExceededError", "enumerate_complexes", "pattern_of",
    "markov_equivalent", "is_larger", "equivalence_class", "largest_cg_oracle",
    "Trail", "Section", "moral_graph", "moral_graph_component_variant",
    "ug_separated", "moralization_represented", "enumerate_trails",
    "sections_of", "slides_to", "section_blocked", "c_represented",
    "DependencyModel", "CGBackedModel", "ExplicitModel", "is_independent",
    "dep_all", "dep_plus",
    "input_list", "graphoid_closure", "semigraphoid_closure",
    "parse_model", "serialize_model",
    "PatternConflictError", "InvalidPatternError", "AnnotatedPattern",
    "Directing", "recover_pattern", "feasible_semislide_exists",
    "transitivity_fixpoint", "necessity_step", "doublecycle_step",
    "recover_largest", "recover_end_to_end",
]
