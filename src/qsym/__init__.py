"""qsym: checkable certificates for quantum symmetries of finite graphs."""

from .automorphisms import (
    AutomorphismSet,
    Permutation,
    are_isomorphic,
    automorphisms,
    find_disjoint_pair,
    find_edge_free_disjoint_pair,
    is_automorphism,
)
from .graphs import (
    UNREACHABLE,
    Cherry,
    Graph,
    build,
    complement,
    complete,
    complete_bipartite,
    components,
    contains_quadrangle,
    cycle,
    distance_matrix,
    edgeless,
    find_cherries,
    induced_subgraph,
    is_connected,
    is_forest,
    is_isomorphism,
    is_tree,
    line_graph,
    path,
    star,
    tree_center,
)
from .products import (
    cartesian,
    corona,
    direct,
    disjoint_union,
    lexicographic,
    strong,
)
from .reduction import BlockStructure, strip_high_degree_fixpoint
from .pattern import (
    RULE_ANTIPODE,
    RULE_DEGREE,
    RULE_DISTANCE_DEGREE,
    ZeroPattern,
    blocks,
    render_pattern,
    zero_pattern,
)
from .check import Status, verify_certificate
from .classify import Report, Verdict, classify, classify_with_complement
from .construct import (
    ConstructionTrace,
    build_free,
    build_tensor,
    build_wreath,
    cone,
    corona_k1,
    join,
    replay,
)
from .gallery import gallery, gallery_names

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
