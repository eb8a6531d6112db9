"""Structural analysis of dependency sets.

Graph views, as plain adjacency dicts, of the objects the paper
reasons about: the Corollary 3.2 expression graph (whose reachability
*is* IND implication), the relation-level flow graph of an IND set,
and the cardinality digraph of the unary finite-implication engine
(whose strongly connected components trigger the cycle rule).
"""

from repro.analysis.ind_graph import (
    cardinality_digraph,
    cycle_rule_components,
    expression_graph,
    ind_flow_graph,
    summarize_ind_set,
)

__all__ = [
    "cardinality_digraph",
    "cycle_rule_components",
    "expression_graph",
    "ind_flow_graph",
    "summarize_ind_set",
]
