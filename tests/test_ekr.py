"""Tests for maximum intersecting family enumeration and classification."""

import random

import pytest

from psl2q.ekr import (
    IntersectionGraph,
    _maximum_cliques,
    classify_family,
    is_intersecting,
    mask_bits,
    max_intersecting_families,
    psl_point_cosets,
    stabilizer_coset,
)
from psl2q.errors import BudgetExceededError, NotIntersectingError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.verify import run_suite


@pytest.fixture(scope="module")
def psl_groups():
    return {q: PGL2(field_ctx_for_q(q)) for q in (3, 5, 7)}


def test_graph_budget():
    G = PGL2(field_ctx_for_q(23))
    with pytest.raises(BudgetExceededError):
        IntersectionGraph(G)
    with pytest.raises(BudgetExceededError):
        max_intersecting_families(G)


@pytest.mark.parametrize("q", [3, 9, 25, 27])
def test_psl_point_cosets_match_the_action(q):
    """The graph's vertices, image tuples and coset masks against `act`, one
    point at a time; q = 9, 25, 27 are prime powers with p = 3 and p = 5,
    built here past the clique-search budget."""
    G = PGL2(field_ctx_for_q(q))
    vertices, images, coset = psl_point_cosets(G)
    assert vertices == sorted(G.elements("psl"))
    assert images == [tuple(G.act(x, g) for x in G.points) for g in vertices]
    expected = [[0] * (q + 1) for _ in G.points]
    for i, image in enumerate(images):
        for x, y in enumerate(image):
            expected[x][y] |= 1 << i
    assert coset == expected
    assert all(type(y) is int for image in images for y in image)
    assert all(type(mask) is int for row in coset for mask in row)
    if q <= 9:
        graph = IntersectionGraph(G)
        assert (graph.vertices, graph.images, graph.coset) == (vertices, images, coset)
        assert graph.index == {g: i for i, g in enumerate(vertices)}


def test_graph_q5(psl_groups):
    G = psl_groups[5]
    graph = IntersectionGraph(G)
    assert len(graph.vertices) == 60
    id_idx = graph.index[G.identity]
    # closed neighborhood of the identity: everything except the derangements
    assert graph.degree(id_idx) + 1 == 60 - 20


def test_adjacency_translation_invariance(psl_groups):
    G = psl_groups[5]
    rng = random.Random(8)
    psl = G.elements("psl")
    for _ in range(100):
        g1, g2, h = rng.choice(psl), rng.choice(psl), rng.choice(psl)
        base = G.is_derangement(G.mul(g1, G.inv(g2)))
        translated = G.is_derangement(G.mul(G.mul(g1, h), G.inv(G.mul(g2, h))))
        assert base == translated


@pytest.mark.parametrize("q,size", [(3, 3), (5, 10), (7, 21)])
def test_max_family_size(psl_groups, q, size):
    got, _ = max_intersecting_families(psl_groups[q])
    assert got == size == q * (q - 1) // 2


def test_q5_families_are_exactly_the_cosets(psl_groups):
    G = psl_groups[5]
    size, families = max_intersecting_families(G)
    cosets = {stabilizer_coset(G, x, y) for x in G.points for y in G.points}
    assert len(cosets) == 36
    assert set(families) == cosets
    for fam in families:
        assert classify_family(G, fam).kind == "stabilizer_coset"


def test_q7_all_families_are_cosets(psl_groups):
    G = psl_groups[7]
    size, families = max_intersecting_families(G)
    assert size == 21
    assert len(families) == 64
    for fam in families:
        assert len(fam) == 21
        assert classify_family(G, fam).kind == "stabilizer_coset"


def test_q3_has_noncoset_maximum_family(psl_groups):
    G = psl_groups[3]
    size, families = max_intersecting_families(G)
    assert size == 3
    kinds = [classify_family(G, fam).kind for fam in families]
    assert "other" in kinds  # the anomaly: a maximum family that is no coset
    assert "stabilizer_coset" in kinds
    others = [f for f, k in zip(families, kinds) if k == "other"]
    for fam in others:
        assert is_intersecting(G, fam) and len(fam) == 3


def test_classify_stabilizer(psl_groups):
    G = psl_groups[5]
    stab = stabilizer_coset(G, 0, 0)
    assert G.identity in stab
    result = classify_family(G, stab)
    assert result.kind == "stabilizer_coset" and result.point_pair == (0, 0)


def test_proper_subfamily_is_not_a_coset(psl_groups):
    G = psl_groups[7]
    coset = sorted(stabilizer_coset(G, 2, 5))
    assert classify_family(G, coset[1:]).kind == "other"
    assert classify_family(G, []).kind == "other"


def test_foreign_input_is_rejected(psl_groups):
    G = psl_groups[5]
    outside = next(g for g in G.elements("pgl") if not G.in_psl(g))
    with pytest.raises(ValueError):
        is_intersecting(G, [G.identity, outside])
    with pytest.raises(ValueError):
        classify_family(G, [G.identity], IntersectionGraph(psl_groups[7]))


def test_classify_rejects_non_intersecting(psl_groups):
    G = psl_groups[5]
    der = next(g for g in G.elements("psl") if G.is_derangement(g))
    with pytest.raises(NotIntersectingError):
        classify_family(G, [G.identity, der])


def test_subfamilies_stay_intersecting(psl_groups):
    G = psl_groups[7]
    coset = sorted(stabilizer_coset(G, 2, 5))
    assert is_intersecting(G, coset)
    assert is_intersecting(G, coset[:10])
    assert is_intersecting(G, coset[::3])


def test_q9_all_families_are_cosets():
    G = PGL2(field_ctx_for_q(9))
    size, families = max_intersecting_families(G)
    assert size == 36
    assert len(families) == 100
    for fam in families:
        assert classify_family(G, fam).kind == "stabilizer_coset"


def _intersect(G, g1, g2) -> bool:
    return not G.is_derangement(G.mul(g1, G.inv(g2)))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_adjacency_matches_the_derangement_relation(q):
    G = PGL2(field_ctx_for_q(q))
    graph = IntersectionGraph(G)
    for i, g1 in enumerate(graph.vertices):
        for j, g2 in enumerate(graph.vertices):
            assert bool(graph.adjacency[i] >> j & 1) == (i != j and _intersect(G, g1, g2))


@pytest.mark.parametrize("q", [9, 11])
def test_identity_row_matches_the_derangement_relation(q):
    G = PGL2(field_ctx_for_q(q))
    graph = IntersectionGraph(G)
    row = graph.adjacency[graph.index[G.identity]]
    for j, g in enumerate(graph.vertices):
        assert bool(row >> j & 1) == (g != G.identity and _intersect(G, G.identity, g))


def test_is_intersecting_matches_the_pairwise_relation(psl_groups):
    G = psl_groups[5]
    rng = random.Random(5)
    psl = G.elements("psl")
    outcomes = set()
    for _ in range(300):
        members = rng.sample(psl, rng.randint(2, 5))
        expected = all(_intersect(G, g1, g2) for g1 in members for g2 in members)
        assert is_intersecting(G, members) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [5, 7])
def test_translation_matches_group_mul(q):
    G = PGL2(field_ctx_for_q(q))
    graph = IntersectionGraph(G)
    rng = random.Random(q)
    for _ in range(200):
        g, h = rng.choice(graph.vertices), rng.choice(graph.vertices)
        got = graph.translate(1 << graph.index[g], graph.index[h])
        assert graph.members(got) == {G.mul(g, h)}


@pytest.mark.parametrize("q", [3, 5])
def test_families_match_a_group_mul_reexpansion(q):
    G = PGL2(field_ctx_for_q(q))
    size, families = max_intersecting_families(G)
    through_identity = [fam for fam in families if G.identity in fam]
    for fam in through_identity:
        assert all(_intersect(G, g1, g2) for g1 in fam for g2 in fam)
    expanded = {
        frozenset(G.mul(g, h) for g in base) for base in through_identity for h in G.elements("psl")
    }
    assert expanded == set(families)
    assert families == sorted(families, key=sorted)


def test_ekr_suite_q11():
    report = run_suite("ekr", 11)
    assert report["pass"] is True
    assert report["max_size"] == 55
    assert report["family_count"] == 144


def _whole_neighbourhood_families(graph):
    """The search without orbital branching, as the tests' oracle: one branch
    and bound over the whole neighbourhood of the identity, each clique
    expanded by right translation only."""
    identity = graph.index[graph.group.identity]
    size, cliques = _maximum_cliques(graph.adjacency, graph.adjacency[identity])
    families = set()
    for clique in cliques:
        families |= graph.translates(clique | 1 << identity)
    return size + 1, sorted(families, key=lambda mask: list(mask_bits(mask)))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_orbital_search_matches_the_whole_neighbourhood_search(q):
    graph = IntersectionGraph(PGL2(field_ctx_for_q(q)))
    size, families = graph.maximum_families()
    assert (size, families) == _whole_neighbourhood_families(graph)
    others = [mask for mask in families if graph.coset_of(mask) is None]
    assert bool(others) == (q == 3)  # the non-coset families of q = 3 come through conjugation too


@pytest.mark.parametrize("q", [3, 5, 13])
def test_branches_are_the_identity_neighbours_classes(q):
    G = PGL2(field_ctx_for_q(q))
    graph = IntersectionGraph(G)
    identity, representatives, orbits = graph.branch_representatives()
    assert graph.vertices[identity] == G.identity
    neighbours = set(mask_bits(graph.adjacency[identity]))
    labels = [G.classify(graph.vertices[r]) for r in representatives]
    assert len(set(labels)) == len(labels)
    for r, label, orbit in zip(representatives, labels, orbits):
        members = {i for i in neighbours if G.classify(graph.vertices[i]) == label}
        assert set(mask_bits(orbit)) == members and r == min(members)
    assert set().union(*(mask_bits(orbit) for orbit in orbits)) == neighbours


@pytest.mark.parametrize("q", [3, 5])
def test_conjugates_match_group_mul(q):
    G = PGL2(field_ctx_for_q(q))
    graph = IntersectionGraph(G)
    rng = random.Random(q)
    pgl = G.elements("pgl")
    cosets = [stabilizer_coset(G, x, y) for x in (0, q) for y in (0, 1)]
    samples = [frozenset(rng.sample(graph.vertices, rng.randint(1, 4))) for _ in range(6)]
    for family in cosets + samples:
        got = graph.conjugates(graph.mask(family))
        expected = {frozenset(G.mul(G.inv(h), G.mul(g, h)) for g in family) for h in pgl}
        assert {graph.members(mask) for mask in got} == expected
    for _ in range(50):
        g, h = rng.choice(graph.vertices), rng.randrange(len(pgl))
        got = graph.conjugate(1 << graph.index[g], pgl[h])
        assert graph.members(got) == {G.mul(G.inv(pgl[h]), G.mul(g, pgl[h]))}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_coset_translates_match_the_walk(q):
    # every coset {x -> y}: its translates against the walk over every
    # element's images, and at q <= 5 against element-by-element translation
    graph = IntersectionGraph(PGL2(field_ctx_for_q(q)))
    for x, row in enumerate(graph.coset):
        for y, mask in enumerate(row):
            got = graph.translates(mask)
            assert got == {graph.coset[x][image[y]] for image in graph.images}, (x, y)
            if q <= 5:
                assert got == {graph.translate(mask, h) for h in range(len(graph.vertices))}, (x, y)
