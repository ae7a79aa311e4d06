from __future__ import annotations

import importlib

import pytest

import qsym

#: Every name ``from qsym import *`` gives, submodules included.  Adding
#: or removing an export means editing this list, so the change shows
#: up in review.
PUBLIC = [
    "AutomorphismSet",
    "BlockStructure",
    "Cherry",
    "ConstructionTrace",
    "Graph",
    "Permutation",
    "RULE_ANTIPODE",
    "RULE_DEGREE",
    "RULE_DISTANCE_DEGREE",
    "Report",
    "Status",
    "UNREACHABLE",
    "Verdict",
    "ZeroPattern",
    "are_isomorphic",
    "automorphisms",
    "blocks",
    "build",
    "build_free",
    "build_tensor",
    "build_wreath",
    "cartesian",
    "check",
    "classify",
    "classify_with_complement",
    "complement",
    "complete",
    "complete_bipartite",
    "components",
    "cone",
    "construct",
    "contains_quadrangle",
    "corona",
    "corona_k1",
    "cycle",
    "direct",
    "disjoint_union",
    "distance_matrix",
    "edgeless",
    "errors",
    "find_cherries",
    "find_disjoint_pair",
    "find_edge_free_disjoint_pair",
    "gallery",
    "gallery_names",
    "graphs",
    "induced_subgraph",
    "is_automorphism",
    "is_connected",
    "is_forest",
    "is_isomorphism",
    "is_tree",
    "join",
    "lexicographic",
    "line_graph",
    "path",
    "pattern",
    "products",
    "reduction",
    "render_pattern",
    "replay",
    "star",
    "strip_high_degree_fixpoint",
    "strong",
    "tree_center",
    "verify_certificate",
    "zero_pattern",
]


def test_public_names_are_pinned():
    assert sorted(qsym.__all__) == PUBLIC


#: Names each module no longer has; ``Graph.has_edge`` is an attribute
#: of the module's ``Graph``.
GONE = {
    "qsym": [
        "GenerationPartition",
        "copies",
        "distinct_orders",
        "generations",
        "make_connected_preserving",
        "replay_all",
        "strip_high_degree",
    ],
    "qsym.graphs": [
        "GenerationPartition",
        "generations",
        "Graph.has_edge",
        "Graph.neighbor_mask",
    ],
    "qsym.construct": [
        "ConstructionTrace.orders",
        "distinct_orders",
        "make_connected_preserving",
        "replay_all",
    ],
    "qsym.products": ["copies"],
    "qsym.reduction": [
        "strip_high_degree",
        "CellRules",
        "RULE_ANTIPODE",
        "RULE_DEGREE",
        "RULE_DISTANCE_DEGREE",
        "ZeroPattern",
        "_rule_cells",
        "blocks",
        "render_pattern",
        "zero_pattern",
    ],
    "qsym.pattern": ["ZeroPattern.count"],
    "qsym.check": ["CERTIFIED_STATUS", "_entails"],
    "qsym.classify": ["_report"],
    "qsym.errors": ["K1Input"],
}


@pytest.mark.parametrize("module", GONE)
def test_removed_names_are_unreachable(module):
    for dotted in GONE[module]:
        owner = importlib.import_module(module)
        *path, name = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert not hasattr(owner, name), f"{module}.{dotted}"
