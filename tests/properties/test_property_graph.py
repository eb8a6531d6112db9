"""Properties of the one SCC routine, :mod:`repro.core.graph`.

On random small digraphs — self-loops, isolated nodes, parallel edges,
and a nonzero ``first`` whose earlier nodes count as already final —
the components must be exactly the mutual-reachability classes of the
subgraph induced on ``first..n-1``, and they must be emitted in
reverse topological order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import components_of, strongly_connected_components


@st.composite
def digraphs(draw):
    n = draw(st.integers(0, 12))
    adjacency = [
        draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)
    ]
    first = draw(st.integers(0, n))
    return adjacency, first


def _reach(adjacency, first):
    """Brute-force reachability (reflexive) inside ``first..n-1``."""
    reach = {}
    for start in range(first, len(adjacency)):
        seen = {start}
        stack = [start]
        while stack:
            for succ in adjacency[stack.pop()]:
                if succ >= first and succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        reach[start] = seen
    return reach


@settings(max_examples=300, deadline=None, derandomize=True)
@given(digraphs())
def test_components_are_mutual_reachability_classes(graph):
    adjacency, first = graph
    components = strongly_connected_components(adjacency, first)
    emitted = [node for component in components for node in component]
    assert sorted(emitted) == list(range(first, len(adjacency)))
    component_of = {
        node: cid for cid, component in enumerate(components)
        for node in component
    }
    reach = _reach(adjacency, first)
    for u in range(first, len(adjacency)):
        for v in range(first, len(adjacency)):
            mutual = v in reach[u] and u in reach[v]
            assert (component_of[u] == component_of[v]) == mutual


@settings(max_examples=300, deadline=None, derandomize=True)
@given(digraphs())
def test_emission_is_reverse_topological(graph):
    adjacency, first = graph
    components = strongly_connected_components(adjacency, first)
    component_of = {
        node: cid for cid, component in enumerate(components)
        for node in component
    }
    for u in range(first, len(adjacency)):
        for v in adjacency[u]:
            if v >= first:
                # An edge leaves a later-emitted component (or stays).
                assert component_of[u] >= component_of[v]


def test_long_chain_does_not_recurse():
    n = 50_000
    adjacency = [[i + 1] for i in range(n - 1)] + [[0]]
    assert [len(c) for c in strongly_connected_components(adjacency)] == [n]


def test_components_of_maps_hashable_nodes():
    adjacency = {"a": ["b"], "b": ["a", "c"], "c": [], "d": ["d"]}
    components = [set(c) for c in components_of(adjacency)]
    assert {"a", "b"} in components
    assert components.index({"c"}) < components.index({"a", "b"})
    assert {"d"} in components
