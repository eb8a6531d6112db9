"""Graph analysis of dependency sets."""

from repro.analysis.ind_graph import (
    cardinality_digraph,
    cycle_rule_components,
    expression_graph,
    ind_flow_graph,
    summarize_ind_set,
)
from repro.core.ind_decision import decide_ind
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependencies, parse_dependency


def _successors(graph, node):
    """Successor nodes in a digraph dict or a flow-graph edge list."""
    out = graph[node]
    return out if isinstance(out, dict) else [dst for dst, _data in out]


def _reachable(graph, start):
    """Nodes reachable from ``start`` by one or more edges."""
    seen = set()
    stack = list(_successors(graph, start))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(_successors(graph, node))
    return seen


def _is_acyclic(graph):
    return all(node not in _reachable(graph, node) for node in graph)


class TestExpressionGraph:
    def test_reachability_is_implication(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= T[C]"])
        graph = expression_graph(("R", ("A",)), premises)
        target = parse_dependency("R[A] <= T[C]")
        assert (("T", ("C",)) in _reachable(graph, ("R", ("A",)))) == (
            decide_ind(target, premises).implied
        )

    def test_edges_carry_justifications(self):
        premises = [parse_dependency("R[A,B] <= S[C,D]")]
        graph = expression_graph(("R", ("B",)), premises)
        edge_data = graph[("R", ("B",))][("S", ("D",))]
        assert edge_data["indices"] == (1,)

    def test_orbit_of_permutation(self):
        premises = [parse_dependency("R[A,B,C] <= R[B,C,A]")]
        graph = expression_graph(("R", ("A", "B", "C")), premises)
        assert len(graph) == 3
        # The orbit is a directed cycle.
        assert all(_reachable(graph, node) == set(graph) for node in graph)


class TestFlowGraph:
    def test_nodes_and_edges(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= R[A]"])
        graph = ind_flow_graph(premises)
        assert set(graph) == {"R", "S"}
        assert sum(len(out) for out in graph.values()) == 2

    def test_cyclicity_detection(self):
        acyclic = parse_dependencies(["R[A] <= S[B]"])
        cyclic = parse_dependencies(["R[A] <= S[B]", "S[B] <= R[A]"])
        assert _is_acyclic(ind_flow_graph(acyclic))
        assert not _is_acyclic(ind_flow_graph(cyclic))

    def test_parallel_inds_keep_one_edge_each(self):
        premises = parse_dependencies(["R[A] <= S[B]", "R[B] <= S[A]"])
        graph = ind_flow_graph(premises)
        assert [dst for dst, _data in graph["R"]] == ["S", "S"]
        assert [data["label"] for _dst, data in graph["R"]] == [
            str(p) for p in premises
        ]


class TestCardinalityGraph:
    def test_theorem_4_4_component(self):
        sigma = [FD("R", ("A",), ("B",)), IND("R", ("A",), "R", ("B",))]
        components = cycle_rule_components(sigma)
        assert any({("R", "A"), ("R", "B")} <= comp for comp in components)

    def test_no_cycle_no_component(self):
        sigma = [FD("R", ("A",), ("B",)), IND("R", ("B",), "S", ("A",))]
        assert cycle_rule_components(sigma) == []

    def test_edge_directions(self):
        sigma = [FD("R", ("A",), ("B",)), IND("R", ("A",), "S", ("B",))]
        graph = cardinality_digraph(sigma)
        # FD A->B: |B| <= |A| gives edge (R,B) -> (R,A).
        assert ("R", "A") in graph[("R", "B")]
        # IND: |source| <= |target|.
        assert ("S", "B") in graph[("R", "A")]


class TestSummary:
    def test_profile_fields(self):
        premises = parse_dependencies(
            ["R[A] <= S[A]", "R[A,B] <= S[A,B]", "S[A] <= R[B]"]
        )
        summary = summarize_ind_set(premises)
        assert summary.ind_count == 3
        assert summary.relations == 2
        assert summary.unary == 2
        assert summary.typed == 2
        assert summary.max_arity == 2
        assert summary.flow_cyclic
        assert "3 INDs" in str(summary)

    def test_self_loop_ind_is_a_flow_cycle(self):
        summary = summarize_ind_set([parse_dependency("R[A] <= R[B]")])
        assert summary.flow_cyclic
        assert summary.flow_components == 1

    def test_weak_components_ignore_direction(self):
        premises = parse_dependencies(
            ["R[A] <= S[A]", "T[A] <= S[A]", "U[A] <= V[A]"]
        )
        summary = summarize_ind_set(premises)
        assert not summary.flow_cyclic
        assert summary.flow_components == 2

    def test_empty_set(self):
        summary = summarize_ind_set([])
        assert summary.ind_count == 0
        assert not summary.flow_cyclic
