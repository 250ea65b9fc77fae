"""Exhaustive search for maximum intersecting families in PSL(2,q).

Two elements g1, g2 intersect when x^g1 = x^g2 for some projective point x,
that is, when g1 * g2^(-1) fixes a point.  Intersecting families are exactly
the cliques of the graph on PSL(2,q) with that adjacency.

This module owns the bitmask format.  `psl_point_cosets` reads the image
array of PSL(2,q) (`PGL2.image_array`): the vertices are its sorted
elements, each with the tuple of its point images, and a set of vertices is
a bitmask over their positions.  The stabilizer coset {g : x^g = y} is one
such mask, and the neighbourhood of g is the OR over x of the cosets
{x -> x^g}, less g itself.  By sharp 3-transitivity the images of 0, 1 and
infinity determine an element; the graph maps those triples back to
positions, so a right translation g -> g*h is three tuple lookups and one
dict lookup, with no matrix product.  The graph's methods work on masks
(`mask` and `members` convert); the module functions take and return sets of
Element tuples.

The adjacency is invariant under right translation, so every maximum family
is a translate of one through the identity e; conjugation by PGL(2,q) fixes
e and preserves the adjacency too.  So the search branches once per PGL
class that meets the neighbourhood N(e) (orbital branching): with r the
class's first vertex, a branch and bound with a greedy coloring bound
searches N(e) and the neighbourhood of r, less the classes of the earlier
branches, for the largest cliques; a family with a vertex of an earlier
class is conjugate to one through that class's representative.  A branch
is cut only when it falls strictly below the best size so far, so ties are
kept.  Each clique e + r + C is re-expanded by every conjugation and then
by every right translation.  A stabilizer {g : x^g = x} conjugates to every
{z -> z} and translates by h to the coset {x -> x^h}, so to every {x -> z}
(PSL(2,q) is transitive on the points), and only a family that is no coset
(q = 3) is conjugated (through the group's product) and translated element
by element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NotIntersectingError
from .groups import PGL2, Element

MAX_Q = 19


def mask_bits(mask: int):
    """Indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def psl_point_cosets(group: PGL2) -> tuple[list[Element], list[tuple[int, ...]], list[list[int]]]:
    """PSL(2,q) as permutations of the q+1 points: its elements, sorted; the
    tuple of images x^g for x = 0..q of each; and coset[x][y], the stabilizer
    coset {g : x^g = y} as a bitmask over the sorted positions."""
    psl = group.element_array("psl")
    elements = psl[np.lexsort(psl.T[::-1])]
    image = group.image_array(elements)
    points = np.arange(group.q + 1)
    coset = []
    for x in points:
        hits = np.packbits(image[:, x] == points[:, None], axis=1, bitorder="little")
        coset.append([int.from_bytes(row.tobytes(), "little") for row in hits])
    return list(map(tuple, elements.tolist())), list(map(tuple, image.tolist())), coset


@dataclass(frozen=True)
class FamilyClassification:
    kind: str  # "stabilizer_coset" | "other"
    point_pair: tuple[int, int] | None = None


class IntersectionGraph:
    """Vertex i is vertices[i]; the vertices are sorted, so the ascending bit
    indices of a family list its elements in sorted order."""

    def __init__(self, group: PGL2):
        if group.q > MAX_Q:
            raise BudgetExceededError(f"q = {group.q} exceeds the clique-search budget {MAX_Q}")
        self.group = group
        self.vertices, self.images, self.coset = psl_point_cosets(group)
        self.index = {g: i for i, g in enumerate(self.vertices)}
        inf = group.infinity
        self._by_triple = {(img[0], img[1], img[inf]): i for i, img in enumerate(self.images)}
        coset = self.coset
        adj = []
        for i, image in enumerate(self.images):
            row = 0
            for x, y in enumerate(image):
                row |= coset[x][y]
            adj.append(row & ~(1 << i))
        self.adjacency = adj

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def mask(self, members) -> int:
        mask = 0
        for g in members:
            i = self.index.get(g)
            if i is None:
                raise ValueError(f"{g} is not an element of PSL(2,{self.group.q})")
            mask |= 1 << i
        return mask

    def members(self, mask: int) -> frozenset[Element]:
        return frozenset(self.vertices[i] for i in mask_bits(mask))

    def is_clique(self, mask: int) -> bool:
        """Every member g has the whole family inside adj[g] + {g}."""
        adj = self.adjacency
        return all((mask & ~adj[i]) == 1 << i for i in mask_bits(mask))

    def coset_of(self, mask: int) -> tuple[int, int] | None:
        """The first (x, y), by x, whose coset {g : x^g = y} is exactly mask."""
        if mask:
            image = self.images[(mask & -mask).bit_length() - 1]
            for x, y in enumerate(image):
                if self.coset[x][y] == mask:
                    return x, y
        return None

    def translate(self, mask: int, h: int) -> int:
        """{g*h : g in mask}: x^(g*h) = (x^g)^h on the three points that fix g*h."""
        image_h = self.images[h]
        inf = self.group.infinity
        out = 0
        for i in mask_bits(mask):
            image = self.images[i]
            out |= 1 << self._by_triple[image_h[image[0]], image_h[image[1]], image_h[image[inf]]]
        return out

    def translates(self, mask: int) -> set[int]:
        """Every right translate of a family.  A coset {x -> y} translates by
        h to {x -> y^h}, and PSL(2,q) is transitive on the points, so its
        translates are the q+1 cosets {x -> z}."""
        pair = self.coset_of(mask)
        if pair is None:
            return {self.translate(mask, h) for h in range(len(self.vertices))}
        return set(self.coset[pair[0]])

    def conjugate(self, mask: int, h: Element) -> int:
        """{h^-1 g h : g in mask}, h an element of PGL(2,q)."""
        mul, inv = self.group.mul, self.group.inv
        return self.mask(mul(inv(h), mul(g, h)) for g in self.members(mask))

    def conjugates(self, mask: int) -> set[int]:
        """Every conjugate of a family by PGL(2,q)."""
        pair = self.coset_of(mask)
        if pair is not None and pair[0] == pair[1]:
            return {self.coset[z][z] for z in self.group.points}
        return {self.conjugate(mask, h) for h in self.group.elements("pgl")}

    def branch_representatives(self) -> tuple[int, list[int], list[int]]:
        """The identity's position; the first neighbour of the identity in each
        PGL class that meets its neighbourhood, by class position; and each
        such class as a mask."""
        identity = self.index[self.group.identity]
        neighbours = np.fromiter(mask_bits(self.adjacency[identity]), dtype=np.intp)
        classes = self.group.class_array(self.vertices)
        present, first = np.unique(classes[neighbours], return_index=True)
        orbits = [np.packbits(classes == c, bitorder="little").tobytes() for c in present]
        return identity, neighbours[first].tolist(), [int.from_bytes(orbit, "little") for orbit in orbits]

    def maximum_families(self) -> tuple[int, list[int]]:
        """Size of the largest intersecting family and every family of that
        size, as masks ordered by their sorted elements: the largest cliques
        through the identity e and one representative r per branch, each
        expanded by conjugation and right translation."""
        adj = self.adjacency
        identity, representatives, orbits = self.branch_representatives()
        best, found, earlier = 0, [], 0
        for r, orbit in zip(representatives, orbits):
            size, cliques = _maximum_cliques(adj, adj[identity] & adj[r] & ~earlier, best)
            if size > best:
                best, found = size, []
            found += [clique | 1 << identity | 1 << r for clique in cliques]
            earlier |= orbit
        conjugated = set().union(*(self.conjugates(clique) for clique in found))
        families = set().union(*(self.translates(mask) for mask in conjugated))
        return best + 2, sorted(families, key=lambda mask: list(mask_bits(mask)))


def _color_bound_order(adj: list[int], cand: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; vertices come back ordered by
    color class with the number of classes used so far as their bound."""
    order, bounds = [], []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        available = uncolored
        while available:
            v = (available & -available).bit_length() - 1
            available &= available - 1
            bit = 1 << v
            uncolored &= ~bit
            available &= ~adj[v]
            order.append(v)
            bounds.append(color)
    return order, bounds


def _maximum_cliques(adj: list[int], cand: int, floor: int = 0) -> tuple[int, list[int]]:
    """Size of the largest clique inside cand, or floor if that is larger,
    and every clique of that size.

    A branch is cut only when it cannot reach the best size so far, starting
    from floor, so ties are explored; a clique is recorded when nothing
    extends it, and each clique is reached along one path because a vertex
    leaves the candidates once its branch is done.
    """
    best, found = floor, []

    def extend(cand: int, clique: int, size: int):
        nonlocal best, found
        if not cand:
            if size > best:
                best, found = size, [clique]
            elif size == best:
                found.append(clique)
            return
        order, bounds = _color_bound_order(adj, cand)
        for idx in range(len(order) - 1, -1, -1):
            if size + bounds[idx] < best:
                return
            v = order[idx]
            extend(cand & adj[v], clique | 1 << v, size + 1)
            cand &= ~(1 << v)

    extend(cand, 0, 0)
    return best, found


def _graph_for(group: PGL2, graph: IntersectionGraph | None) -> IntersectionGraph:
    if graph is None:
        return IntersectionGraph(group)
    if graph.group is not group:
        raise ValueError("the intersection graph was built for another group")
    return graph


def max_intersecting_families(
    group: PGL2, graph: IntersectionGraph | None = None
) -> tuple[int, list[frozenset[Element]]]:
    """Size of the largest intersecting family and every family of that size,
    ordered by their sorted elements."""
    graph = _graph_for(group, graph)
    size, families = graph.maximum_families()
    return size, [graph.members(mask) for mask in families]


def is_intersecting(group: PGL2, members, graph: IntersectionGraph | None = None) -> bool:
    graph = _graph_for(group, graph)
    return graph.is_clique(graph.mask(members))


def stabilizer_coset(
    group: PGL2, x: int, y: int, graph: IntersectionGraph | None = None
) -> frozenset[Element]:
    """{g in PSL : x^g = y}; the extremal families of the classification."""
    graph = _graph_for(group, graph)
    return graph.members(graph.coset[x][y])


def classify_family(
    group: PGL2, members, graph: IntersectionGraph | None = None
) -> FamilyClassification:
    """Decide whether an intersecting family is exactly a stabilizer coset."""
    graph = _graph_for(group, graph)
    mask = graph.mask(members)
    if not graph.is_clique(mask):
        raise NotIntersectingError("the set is not pairwise intersecting")
    pair = graph.coset_of(mask)
    if pair is None:
        return FamilyClassification("other")
    return FamilyClassification("stabilizer_coset", pair)
