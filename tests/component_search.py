"""Test-only reference: components of an assignment graph by breadth-first search.

An LP point's support is a bipartite graph with agent nodes ``("a", i)``,
chore nodes ``("c", j)`` and an edge for each positive ``x_ij``.  It is a
pseudoforest when no component has more edges than nodes.  This module
counts that from the components a plain search finds, independently of the
union-find pass that ``choreshare.lp._is_pseudoforest`` makes.
"""

from __future__ import annotations

from typing import Iterable


def components(edges: Iterable[tuple[int, int]]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(agents, chores, edge count) per connected component, by breadth-first search."""
    edges = set(edges)
    adjacent: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for i, j in edges:
        adjacent.setdefault(("a", i), set()).add(("c", j))
        adjacent.setdefault(("c", j), set()).add(("a", i))
    seen: set[tuple[str, int]] = set()
    found = []
    for start in sorted(adjacent):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            frontier = [n for node in frontier for n in adjacent[node] if n not in component]
            component.update(frontier)
        seen |= component
        agents = tuple(sorted(k for kind, k in component if kind == "a"))
        chores = tuple(sorted(k for kind, k in component if kind == "c"))
        found.append((agents, chores, sum(1 for i, _ in edges if i in agents)))
    return found


def is_pseudoforest(edges: Iterable[tuple[int, int]]) -> bool:
    """No component has more edges than agent and chore nodes together."""
    return all(count <= len(agents) + len(chores) for agents, chores, count in components(edges))
