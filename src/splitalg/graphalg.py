"""Path algebras of weighted digraphs and their canonical coproducts.

The basis of a path algebra is: one idempotent per vertex, then all directed
paths (composable arc sequences), ordered by length and then lexicographically
by arc indices.  Products concatenate composable paths; vertex idempotents
act as local units and their sum is the global unit.

Two coproducts make these into t-twisted bialgebras:

* the *arc-weighted* coproduct (parameter 0): vertices go to zero and a path
  splits at each arc, with that arc's weight, into its prefix and suffix
  (vertex idempotents standing in for empty ends);
* the *splitting* coproduct (parameter -1): a vertex goes to itself tensor
  itself, and a path splits at every vertex it visits, endpoints included.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra_core import CoalgebraData, FiniteAlgebra
from .exactlin import ONE, ZERO, Scalar, Tensor3, rat


@dataclasses.dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    weight: Fraction


@dataclasses.dataclass(frozen=True)
class WeightedDigraph:
    vertices: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        for arc in self.arcs:
            if not (0 <= arc.src < self.vertices and 0 <= arc.dst < self.vertices):
                raise ValueError("arc endpoint out of range")

    @staticmethod
    def build(vertices: int, arcs: Iterable[tuple[int, int, Scalar]]) -> "WeightedDigraph":
        return WeightedDigraph(
            vertices, tuple(Arc(s, d, rat(w)) for s, d, w in arcs)
        )

    def path_count(self) -> int | None:
        """The number of directed paths of length >= 1, or None when a cycle
        makes it infinite; a path algebra has dimension vertices + paths."""
        out: list[list[int]] = [[] for _ in range(self.vertices)]
        indegree = [0] * self.vertices
        for arc in self.arcs:
            out[arc.src].append(arc.dst)
            indegree[arc.dst] += 1
        order = [v for v in range(self.vertices) if not indegree[v]]
        for v in order:  # Kahn's topological order, extended while walked
            for w in out[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    order.append(w)
        if len(order) < self.vertices:
            return None
        starting = [0] * self.vertices  # paths starting at each vertex
        for v in reversed(order):
            starting[v] = sum(1 + starting[w] for w in out[v])
        return sum(starting)

    def is_acyclic(self) -> bool:
        return self.path_count() is not None


@dataclasses.dataclass(frozen=True)
class PathAlgebra:
    """A path algebra: its graph, path list, and the algebra itself.

    ``paths`` holds arc-index tuples (length >= 1); basis index i < vertices
    is the vertex idempotent e_i, index vertices + p is paths[p].
    """

    graph: WeightedDigraph
    paths: tuple[tuple[int, ...], ...]
    algebra: FiniteAlgebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def index_of_path(self, arcs: tuple[int, ...]) -> int:
        return self.graph.vertices + self.paths.index(arcs)

    def path_src(self, arcs: tuple[int, ...]) -> int:
        return self.graph.arcs[arcs[0]].src

    def path_dst(self, arcs: tuple[int, ...]) -> int:
        return self.graph.arcs[arcs[-1]].dst


def path_algebra(graph: WeightedDigraph) -> PathAlgebra:
    """Build the path algebra of an acyclic graph; a cycle raises ValueError."""
    if not graph.is_acyclic():
        raise ValueError("the graph has a cycle, so its path algebra is infinite")

    paths: list[tuple[int, ...]] = []
    frontier = [(i,) for i in range(len(graph.arcs))]
    while frontier:
        frontier.sort()
        paths.extend(frontier)
        nxt = []
        for p in frontier:
            dst = graph.arcs[p[-1]].dst
            for a, arc in enumerate(graph.arcs):
                if arc.src == dst:
                    nxt.append(p + (a,))
        frontier = nxt

    nv = graph.vertices
    dim = nv + len(paths)
    index = {p: nv + a for a, p in enumerate(paths)}
    items: list[tuple[int, int, int, Fraction]] = []
    for i in range(nv):
        items.append((i, i, i, ONE))  # e_i e_i = e_i
    src = {p: graph.arcs[p[0]].src for p in paths}
    dst = {p: graph.arcs[p[-1]].dst for p in paths}
    for p, a in index.items():
        items.append((src[p], a, a, ONE))  # e_src . p = p
        items.append((a, dst[p], a, ONE))  # p . e_dst = p
        for q, b in index.items():
            if dst[p] == src[q]:
                items.append((a, b, index[p + q], ONE))
    unit = tuple(ONE if i < nv else ZERO for i in range(dim))
    labels = tuple(f"e{i}" for i in range(nv)) + tuple(
        "*".join(f"a{a}" for a in p) for p in paths
    )
    algebra = FiniteAlgebra(Tensor3.from_sparse(dim, items), unit=unit, labels=labels)
    return PathAlgebra(graph, tuple(paths), algebra)


def weighted_coproduct(pa: PathAlgebra, weights: Sequence[Scalar] | None = None) -> CoalgebraData:
    """The arc-weighted coproduct (compatibility parameter 0).

    Vertices go to zero; a path splits at each of its arcs with that arc's
    weight, prefix tensor suffix, vertex idempotents standing in for empty
    prefixes/suffixes.
    """
    graph = pa.graph
    if weights is None:
        w = [arc.weight for arc in graph.arcs]
    else:
        if len(weights) != len(graph.arcs):
            raise ValueError("need one weight per arc")
        w = [rat(v) for v in weights]
    nv = graph.vertices
    items: list[tuple[int, int, int, Fraction]] = []
    for p in pa.paths:
        row = pa.index_of_path(p)
        for m in range(len(p)):
            left = (
                pa.index_of_path(p[:m]) if m > 0 else graph.arcs[p[m]].src
            )
            right = (
                pa.index_of_path(p[m + 1 :]) if m + 1 < len(p) else graph.arcs[p[m]].dst
            )
            items.append((row, left, right, w[p[m]]))
    return CoalgebraData.from_items(pa.dim, items)


def splitting_coproduct(pa: PathAlgebra) -> CoalgebraData:
    """The vertex-splitting coproduct: vertex idempotents are grouplike and a
    path splits at every visited vertex, endpoints included (idempotents
    standing in for empty ends).

    On graphs with several vertices it is coassociative and it exchanges
    with the weighted coproduct (the hypercubic laws), which is what the
    multi-vertex checks exercise; the twisted product rule itself fails
    there, so the deformation machinery uses ``chain_coproduct`` instead.
    """
    graph = pa.graph
    items: list[tuple[int, int, int, Fraction]] = []
    for i in range(graph.vertices):
        items.append((i, i, i, ONE))
    for p in pa.paths:
        row = pa.index_of_path(p)
        items.append((row, pa.path_src(p), row, ONE))
        for m in range(1, len(p)):
            items.append((row, pa.index_of_path(p[:m]), pa.index_of_path(p[m:]), ONE))
        items.append((row, row, pa.path_dst(p), ONE))
    return CoalgebraData.from_items(pa.dim, items)


def chain_order(graph: WeightedDigraph) -> tuple[int, ...] | None:
    """A vertex order in which every arc joins consecutive vertices of its
    weakly-connected component, components laid out one after another.

    Returns None when no such order exists, i.e. when some component is not
    a chain: a vertex with two distinct arc successors (or predecessors)
    already disqualifies the graph, however the arcs are weighted.
    """
    nv = graph.vertices
    succ: list[set[int]] = [set() for _ in range(nv)]
    pred: list[set[int]] = [set() for _ in range(nv)]
    for arc in graph.arcs:
        if arc.src == arc.dst:
            return None
        succ[arc.src].add(arc.dst)
        pred[arc.dst].add(arc.src)
    if any(len(s) > 1 for s in succ) or any(len(p) > 1 for p in pred):
        return None
    order: list[int] = []
    seen = [False] * nv
    for head in range(nv):
        if seen[head] or pred[head]:
            continue
        v = head
        while True:
            order.append(v)
            seen[v] = True
            if not succ[v]:
                break
            v = next(iter(succ[v]))
            if seen[v]:
                return None
    return tuple(order) if len(order) == nv else None


def chain_coproduct(pa: PathAlgebra, weights: Sequence[Scalar] | None = None) -> CoalgebraData:
    """The unit-flanked coproduct (compatibility parameter -1) on chains.

    Writing u_v for the sum of the idempotents at or after vertex v in the
    chain order, a vertex row is  e_v (x) u_v + u_v (x) e_v - e_v (x) e_v,
    and a path p from s to t is flanked as  u_s (x) p + p (x) (u_t - e_t)
    plus the legs of ``weighted_coproduct(pa, weights)`` (the weighted
    splits at each arc of p; ``weights`` defaults to the arc weights).

    Together with the weighted coproduct this is the worked deformation
    pair: the identity-convolution operators of the two coproducts satisfy
    the two-operator deformation identity on End(A).  Only disjoint unions
    of chains admit such a partner -- already the smallest branching graph
    makes the defining constraints unsolvable -- so other graphs are
    refused.
    """
    graph = pa.graph
    order = chain_order(graph)
    if order is None:
        raise ValueError(
            "chain_coproduct needs a disjoint union of chain-shaped "
            "components; this graph branches"
        )
    nv = graph.vertices
    pos = [0] * nv
    for p, v in enumerate(order):
        pos[v] = p
    at_or_after = [[j for j in range(nv) if pos[j] >= pos[i]] for i in range(nv)]
    items = list(weighted_coproduct(pa, weights).items())
    for i in range(nv):
        for j in at_or_after[i]:
            items.append((i, i, j, ONE))
            items.append((i, j, i, ONE))
        items.append((i, i, i, -ONE))
    for p in pa.paths:
        row = pa.index_of_path(p)
        s, t = pa.path_src(p), pa.path_dst(p)
        for j in at_or_after[s]:
            items.append((row, j, row, ONE))
        for j in at_or_after[t]:
            if j != t:
                items.append((row, row, j, ONE))
    return CoalgebraData.from_items(pa.dim, items)
