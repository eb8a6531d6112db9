"""Graph views of IND/FD sets, as plain adjacency dicts.

These are analysis conveniences on top of the core engines — useful
for inspecting why an implication holds (paths), why a decision blew
up (orbit sizes), or where the finite-implication cycle rule fires
(strongly connected components).  A digraph is a dict mapping every
node to ``{successor: edge data}``; the relation-level flow graph keeps
one ``(successor, edge data)`` entry per IND, so parallel edges
survive.  Components come from the package's one SCC routine,
:func:`~repro.core.graph.strongly_connected_components`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.core.graph import components_of
from repro.core.ind_decision import Expression, successors
from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.exceptions import SearchBudgetExceeded

Digraph = dict[Hashable, dict[Hashable, dict[str, Any]]]
"""``{node: {successor: edge data}}``; every node is a key."""

FlowGraph = dict[str, list[tuple[str, dict[str, Any]]]]
"""``{relation: [(target relation, edge data), ...]}``, one entry per IND."""


def expression_graph(
    start: Expression,
    premises: Iterable[IND],
    max_nodes: int = 100_000,
) -> Digraph:
    """The reachable part of the Corollary 3.2 expression graph.

    Nodes are expressions ``(relation, attribute sequence)``; each edge
    carries the premise and IND2 selection that justifies it.
    Reachability in this graph **is** IND implication (Corollary 3.2).
    """
    premise_list = list(premises)
    graph: Digraph = {start: {}}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for nxt, link in successors(current, premise_list):
            if nxt not in graph:
                if len(graph) >= max_nodes:
                    raise SearchBudgetExceeded(
                        f"expression graph exceeded {max_nodes} nodes",
                        explored=len(graph),
                    )
                graph[nxt] = {}
                frontier.append(nxt)
            graph[current].setdefault(
                nxt, {"premise": str(link.premise), "indices": link.indices}
            )
    return graph


def ind_flow_graph(premises: Iterable[IND]) -> FlowGraph:
    """The relation-level flow graph: one node per relation, one edge
    per IND (labelled with its attribute mapping).

    Cycles here are where Rule (*) saturation, chase divergence, and
    the finite-implication phenomena live.
    """
    graph: FlowGraph = {}
    for premise in premises:
        graph.setdefault(premise.lhs_relation, []).append((
            premise.rhs_relation,
            {"label": str(premise), "mapping": premise.attribute_mapping()},
        ))
        graph.setdefault(premise.rhs_relation, [])
    return graph


def cardinality_digraph(dependencies: Iterable[Dependency]) -> Digraph:
    """The unary engine's cardinality digraph.

    Edge ``u -> v`` means ``|u| <= |v|`` in every finite model: INDs
    contribute source -> target; FDs ``R: A -> B`` contribute
    ``(R,B) -> (R,A)``.
    """
    graph: Digraph = {}

    def add_edge(u: Hashable, v: Hashable, kind: str) -> None:
        graph.setdefault(u, {})
        graph.setdefault(v, {})
        graph[u][v] = {"kind": kind}

    for dep in dependencies:
        if isinstance(dep, IND) and dep.is_unary():
            add_edge(
                (dep.lhs_relation, dep.lhs_attributes[0]),
                (dep.rhs_relation, dep.rhs_attributes[0]),
                "ind",
            )
        elif isinstance(dep, FD) and dep.is_unary():
            add_edge(
                (dep.relation, dep.rhs[0]), (dep.relation, dep.lhs[0]), "fd"
            )
    return graph


def _cyclic_components(adjacency: dict[Hashable, Any]) -> list[set]:
    """The SCCs that contain a cycle: two or more nodes, or a self-loop."""
    return [
        set(component)
        for component in components_of(adjacency)
        if len(component) > 1 or component[0] in adjacency[component[0]]
    ]


def cycle_rule_components(dependencies: Iterable[Dependency]) -> list[set]:
    """The nontrivial SCCs of the cardinality digraph — exactly the
    places where the finite-implication cycle rule reverses
    dependencies (Theorem 4.4 / Section 6)."""
    return _cyclic_components(cardinality_digraph(dependencies))


@dataclass
class IndSetSummary:
    """Headline statistics of an IND set."""

    ind_count: int
    relations: int
    unary: int
    typed: int
    max_arity: int
    flow_cyclic: bool
    flow_components: int

    def __str__(self) -> str:
        return (
            f"{self.ind_count} INDs over {self.relations} relations "
            f"({self.unary} unary, {self.typed} typed, max arity "
            f"{self.max_arity}); flow graph "
            f"{'cyclic' if self.flow_cyclic else 'acyclic'} with "
            f"{self.flow_components} weakly connected component(s)"
        )


def summarize_ind_set(premises: Iterable[IND]) -> IndSetSummary:
    """Quick structural profile of an IND set."""
    premise_list = list(premises)
    flow = ind_flow_graph(premise_list)
    targets = {rel: [dst for dst, _data in out] for rel, out in flow.items()}
    # Weak components are the SCCs of the symmetrized flow graph.
    undirected: dict[str, list[str]] = {rel: [] for rel in flow}
    for rel, dsts in targets.items():
        for dst in dsts:
            undirected[rel].append(dst)
            undirected[dst].append(rel)
    relations = set()
    for premise in premise_list:
        relations.update(premise.relations())
    return IndSetSummary(
        ind_count=len(premise_list),
        relations=len(relations),
        unary=sum(1 for p in premise_list if p.is_unary()),
        typed=sum(1 for p in premise_list if p.is_typed()),
        max_arity=max((p.arity for p in premise_list), default=0),
        flow_cyclic=bool(_cyclic_components(targets)),
        flow_components=len(components_of(undirected)),
    )
