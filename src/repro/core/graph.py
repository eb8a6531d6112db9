"""Strongly connected components: the one SCC routine of the package.

Two of the paper's procedures rest on SCCs.  Corollary 3.2 decides IND
implication by reachability, which
:class:`~repro.core.reach_index.ReachIndex` compiles by condensing the
materialized expression graph; and the finite-implication cycle rule
for unary FDs and INDs (Section 4, Theorem 4.4) reverses every
dependency whose cardinality edge lies inside an SCC.  The structural
views in :mod:`repro.analysis.ind_graph` use the same routine for
cycle detection and weak connectivity.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(
    adjacency: Sequence[Sequence[int]], first: int = 0
) -> list[list[int]]:
    """Tarjan's algorithm over the dense node ids ``first..n-1``.

    ``adjacency[u]`` lists the successor ids of node ``u``, in the
    order the depth-first search follows them.  Nodes below ``first``
    count as already final — their components were emitted by an
    earlier call — so edges into them are skipped; this is what lets
    :class:`~repro.core.reach_index.ReachIndex` condense only the nodes
    a new expansion appended.

    Components are returned in reverse topological order: every edge
    between two returned components points from a later component to
    an earlier one.  The search is iterative (an explicit work stack),
    because materialized expression chains are longer than the
    recursion limit allows.
    """
    n = len(adjacency)
    # DFS state for the nodes >= first only, indexed by node - first.
    order = [-1] * (n - first)
    low = [0] * (n - first)
    on_stack = [False] * (n - first)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(first, n):
        if order[root - first] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            local = node - first
            if edge_index == 0:
                order[local] = low[local] = counter
                counter += 1
                stack.append(node)
                on_stack[local] = True
            descended = False
            successors = adjacency[node]
            for i in range(edge_index, len(successors)):
                succ_local = successors[i] - first
                if succ_local < 0:
                    continue  # edge into an already-final component
                if order[succ_local] == -1:
                    work[-1] = (node, i + 1)
                    work.append((successors[i], 0))
                    descended = True
                    break
                if on_stack[succ_local] and order[succ_local] < low[local]:
                    low[local] = order[succ_local]
            if descended:
                continue
            work.pop()
            if work:
                parent_local = work[-1][0] - first
                if low[local] < low[parent_local]:
                    low[parent_local] = low[local]
            if low[local] == order[local]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member - first] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def components_of(adjacency: Mapping[Node, Iterable[Node]]) -> list[list[Node]]:
    """:func:`strongly_connected_components` over hashable nodes.

    Every node must be a key of ``adjacency`` (sinks map to an empty
    iterable).  Nodes are numbered in key order; the components come
    back in the same reverse topological order, as lists of nodes.
    """
    nodes = list(adjacency)
    ids = {node: i for i, node in enumerate(nodes)}
    dense = [[ids[succ] for succ in adjacency[node]] for node in nodes]
    return [
        [nodes[i] for i in component]
        for component in strongly_connected_components(dense)
    ]
