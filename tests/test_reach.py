"""The breadth-first reachability kernel: parent map, edge count and
shortest label paths."""
from __future__ import annotations

from durastm.reach import path, reach


def _graph(edges: dict):
    """A successor function over a dict from key to (label, key2) list."""
    return lambda key: edges.get(key, ())


def test_parent_path_is_breadth_first_shortest() -> None:
    # a depth-first search from 0 would reach 3 through 1 and 2 first
    succ = _graph({0: [("a", 1), ("b", 3)], 1: [("c", 2)], 2: [("d", 3)]})
    parents, _ = reach([0], succ)
    assert path(parents, 3) == ["b"]
    assert path(parents, 2) == ["a", "c"]
    assert path(parents, 0) == []


def test_edges_to_keys_already_seen_are_counted() -> None:
    succ = _graph({0: [("a", 1), ("b", 1), ("c", 0)], 1: [("d", 0)]})
    parents, edges = reach([0], succ)
    assert parents == {0: None, 1: (0, "a")}
    assert edges == 4


def test_initial_keys_are_never_reparented() -> None:
    succ = _graph({0: [("a", 2), ("b", 1)], 2: [("c", 0)]})
    parents, edges = reach([0, 2], succ)
    assert parents == {0: None, 2: None, 1: (0, "b")}
    assert edges == 3
    assert path(parents, 1) == ["b"]


def test_no_successors_leaves_only_the_initial_keys() -> None:
    assert reach([1, 2], lambda key: ()) == ({1: None, 2: None}, 0)
