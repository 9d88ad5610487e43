"""The match graph on integer ids, which the clean-ups cut in place.

Every clean-up strategy cuts one connected component at a time, so the
graph is indexed once: the nodes, in sorted order (natural, or by ``repr``
where the labels do not compare), become the ints ``0 .. n-1``, each with
its neighbours in a sorted int list.  A *piece* is a list of the ids of one
connected component.  To cut a piece, :class:`IdGraph` relabels it to
``0 .. k-1`` for the kernels
(:func:`~repro.graphs.betweenness.edge_betweenness`,
:func:`~repro.graphs.mincut.minimum_edge_cut`,
:func:`~repro.graphs.bridges.bridges`) and maps their answer back.

The relabelled piece lists its nodes, and each node its neighbours, in the
sorted order of their labels, so a kernel searches the piece exactly as it
would search the piece's labels in sorted order.  (Mixed labels, such as
ints with strings, sort by ``repr`` only where a set of them does not sort
naturally, so there a piece and each neighbour list are ordered by their
own labels.)
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graphs.betweenness import max_betweenness_pair
from repro.graphs.bridges import bridges
from repro.graphs.graph import Edge, Node, canonical_edge
from repro.graphs.mincut import minimum_edge_cut


class IdGraph:
    """A simple undirected graph on int ids (no self-loops, no parallel
    edges).

    Node ``i`` is ``labels[i]``: ids follow the sorted order of the labels,
    and ``adjacency[i]`` holds the neighbours of ``i`` by increasing id,
    which a removal keeps.  Every neighbour of a piece's node is in the
    piece.
    """

    def __init__(self, edges: Iterable[Edge]) -> None:
        neighbours: dict[Node, set[Node]] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r} is not allowed")
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
        # Sorted, noting whether the order is the natural one (see _ordered).
        try:
            self.labels: list[Node] = sorted(neighbours)  # type: ignore[type-var]
            self.natural = True
        except TypeError:
            self.labels = sorted(neighbours, key=repr)
            self.natural = False
        self.ids = {label: i for i, label in enumerate(self.labels)}
        self.adjacency = [
            sorted(self.ids[w] for w in neighbours[label]) for label in self.labels
        ]
        #: Scratch: a piece's node ids relabelled to 0 .. k-1.
        self._position = [0] * len(self.labels)

    def edge(self, i: int, j: int) -> Edge:
        """The edge between ``i`` and ``j``, named by its labels."""
        return canonical_edge(self.labels[i], self.labels[j])

    def remove_edge(self, i: int, j: int) -> None:
        self.adjacency[i].remove(j)
        self.adjacency[j].remove(i)

    def pieces(self, ids: Iterable[int]) -> list[list[int]]:
        """The connected components holding ``ids``, by breadth-first search."""
        adjacency = self.adjacency
        seen: set[int] = set()
        pieces = []
        for start in ids:
            if start in seen:
                continue
            seen.add(start)
            piece = [start]
            for i in piece:
                for j in adjacency[i]:
                    if j not in seen:
                        seen.add(j)
                        piece.append(j)
            pieces.append(piece)
        return pieces

    def max_betweenness_edge(self, piece: list[int]) -> tuple[int, int]:
        """The ids of ``piece``'s maximum-betweenness edge (ties as in
        :func:`~repro.graphs.betweenness.max_betweenness_pair`)."""
        order, adjacency = self._relabel(piece)
        (a, b), _ = max_betweenness_pair(adjacency, [self.labels[i] for i in order])
        return order[a], order[b]

    def minimum_edge_cut(self, piece: list[int]) -> list[tuple[int, int]]:
        """The id pairs of a minimum edge cut of ``piece`` (at least two
        nodes), as :func:`~repro.graphs.mincut.minimum_edge_cut` picks it."""
        order, adjacency = self._relabel(piece)
        cut = minimum_edge_cut(adjacency, [self.labels[i] for i in order])
        return [(order[a], order[b]) for a, b in cut]

    def bridges(self, piece: list[int]) -> list[tuple[int, int]]:
        """The id pairs of ``piece``'s bridges."""
        order, adjacency = self._relabel(piece)
        return [(order[a], order[b]) for a, b in bridges(adjacency)]

    def _relabel(self, piece: list[int]) -> tuple[list[int], list[list[int]]]:
        """``piece`` on the ints ``0 .. k-1``: the ids in the sorted order
        of their labels, and the adjacency of each, its neighbours in the
        same order."""
        order = self._ordered(sorted(piece))
        position = self._position
        for local, i in enumerate(order):
            position[i] = local
        return order, [[position[j] for j in self._ordered(self.adjacency[i])] for i in order]

    def _ordered(self, ids: list[int]) -> list[int]:
        """``ids``, given by increasing id, in the sorted order of their
        labels.

        Labels that sort naturally all together sort every subset by id.
        Labels that do not (ints mixed with strings) are in ``repr`` order,
        which is id order, only in a subset that does not sort naturally
        either: a piece or a neighbour list of one type sorts naturally.
        """
        if self.natural:
            return ids
        try:
            return sorted(ids, key=self.labels.__getitem__)
        except TypeError:
            return ids
