"""One breadth-first reachability kernel.

``reach(initial, successors)`` visits every key reachable from the initial
keys, where ``successors(key)`` yields ``(label, key2)`` pairs; per-key
checks live in the callback.  It returns the parent map, from each key to
the ``(previous key, label)`` pair that first reached it (``None`` for an
initial key), and the number of edges, those to keys already seen
included.  Breadth-first order makes ``path(parents, key)`` a shortest
label sequence from an initial key.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable


def reach(initial: Iterable[Hashable],
          successors: Callable[[Hashable], Iterable[tuple]],
          ) -> tuple[dict, int]:
    parents: dict = dict.fromkeys(initial)
    queue = deque(parents)
    edges = 0
    while queue:
        key = queue.popleft()
        for label, key2 in successors(key):
            edges += 1
            if key2 not in parents:
                parents[key2] = (key, label)
                queue.append(key2)
    return parents, edges


def path(parents: dict, key: Hashable) -> list:
    """The labels from an initial key to ``key``, in order."""
    labels = []
    step = parents[key]
    while step is not None:
        key, label = step
        labels.append(label)
        step = parents[key]
    return labels[::-1]
