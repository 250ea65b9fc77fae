"""Tests for the PGL(2,q) element model, action and conjugacy classes."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from psl2q.errors import InvalidConstraintError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2


@pytest.fixture(scope="module")
def groups():
    return {q: PGL2(field_ctx_for_q(q)) for q in (5, 7, 9)}


@pytest.mark.parametrize("q,pgl,psl", [(5, 120, 60), (7, 336, 168), (9, 720, 360)])
def test_group_orders(groups, q, pgl, psl):
    G = groups[q]
    assert len(G.elements("pgl")) == pgl
    assert len(G.elements("psl")) == psl
    assert len(set(G.elements("pgl"))) == pgl  # normal forms are unique


def test_action_examples(groups):
    G = groups[5]
    u = G.make(1, 1, 0, 1)
    assert G.act(0, u) == 1
    assert G.act(G.infinity, u) == G.infinity
    g = G.make(0, 2, 1, 0)  # sends 0 to infinity and infinity to 0
    assert G.act(0, g) == G.infinity
    assert G.act(G.infinity, g) == 0


@pytest.mark.parametrize("q", [5, 7])
def test_action_laws(groups, q):
    G = groups[q]
    rng = random.Random(1)
    els = G.elements("pgl")
    for _ in range(200):
        g, h = rng.choice(els), rng.choice(els)
        pt = rng.choice(list(G.points))
        assert G.act(pt, G.identity) == pt
        assert G.act(G.act(pt, g), h) == G.act(pt, G.mul(g, h))
        assert G.act(G.act(pt, g), G.inv(g)) == pt


def test_normalization_idempotent(groups):
    G = groups[7]
    ctx = G.ctx
    for g in G.elements("pgl")[:50]:
        assert G.normalize(g) == g
        scaled = tuple(ctx.mul(3, v) for v in g)
        assert G.normalize(scaled) == g


def test_classify_census_q5(groups):
    # frozen oracle: exhaustive classification of all 120 elements by size
    G = groups[5]
    by_size = Counter()
    labels = set()
    for g in G.elements("pgl"):
        lab = G.classify(g)
        labels.add(lab)
    for lab in labels:
        by_size[G.class_size(lab)] += 1
    assert dict(by_size) == {1: 1, 24: 1, 15: 1, 30: 1, 10: 1, 20: 2}


@pytest.mark.parametrize("q", [5, 7, 9])
def test_class_equation(groups, q):
    G = groups[q]
    counts = Counter(G.classify(g) for g in G.elements("pgl"))
    assert sum(counts.values()) == q**3 - q
    for lab, n in counts.items():
        assert n == G.class_size(lab)
    assert set(counts) == set(G.class_labels())
    for lab in G.class_labels():
        assert G.classify(G.class_representative(lab)) == lab


@pytest.mark.parametrize("q,count", [(5, 20), (7, 63), (9, 144)])
def test_derangement_counts(groups, q, count):
    G = groups[q]
    ders = G.derangements()
    assert len(ders) == count == q * (q - 1) ** 2 // 4
    for g in ders[:25]:
        assert not G.fixed_points(g)
    assert not G.is_derangement(G.identity)
    # derangements are exactly the classes without eigenvalues in GF(q)
    for g in G.elements("psl")[:80]:
        assert G.is_derangement(g) == (len(G.fixed_points(g)) == 0)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_conjugation_invariance(groups, q):
    G = groups[q]
    rng = random.Random(2)
    els = G.elements("pgl")
    for _ in range(200):
        g, k = rng.choice(els), rng.choice(els)
        assert G.classify(G.mul(G.mul(G.inv(k), g), k)) == G.classify(g)


@pytest.mark.parametrize("q", [5, 7])
def test_psl_normality(groups, q):
    G = groups[q]
    rng = random.Random(3)
    for _ in range(200):
        g = rng.choice(G.elements("pgl"))
        k = rng.choice(G.elements("psl"))
        assert G.in_psl(G.mul(G.mul(G.inv(g), k), g))


def test_swap_one_infinity(groups):
    for q in (5, 7, 9):
        G = groups[q]
        h = G.swap_one_infinity()
        assert G.act(0, h) == 0
        assert G.act(1, h) == G.infinity
        assert G.act(G.infinity, h) == 1
        ctx = G.ctx
        for b in range(2, q):
            expected = ctx.mul(b, ctx.inv(ctx.sub(b, 1)))
            assert G.act(b, h) == expected
            assert G.act(G.act(b, h), h) == b
    # q=5, b=3: 3/(3-1) = 3 * 3 = 4 in GF(5)
    assert groups[5].act(3, groups[5].swap_one_infinity()) == 4


@pytest.mark.parametrize("q", [5, 7])
def test_constrained_elements(groups, q):
    G = groups[q]
    inf = G.infinity
    sols = G.elements_with_constraints([(0, inf), (inf, 0)])
    assert len(sols) == q - 1
    for g in sols:
        assert G.act(0, g) == inf and G.act(inf, g) == 0
    unique = G.elements_with_constraints([(0, 0), (1, inf), (inf, 1)])
    assert unique == [G.swap_one_infinity()]
    with pytest.raises(InvalidConstraintError):
        G.elements_with_constraints([(0, 1), (0, 2)])
    with pytest.raises(InvalidConstraintError):
        G.elements_with_constraints([])
    # every point must be an int in 0..q; -1 must not wrap around to q
    for bad in ([(0, q + 1)], [(0, -1)], [(-1, 0)], [(q + 1, 0), (0, 1)], [(0.0, 1)], [("0", 1)]):
        with pytest.raises(InvalidConstraintError):
            G.elements_with_constraints(bad)
        with pytest.raises(InvalidConstraintError):
            G.constraint_mask(bad)


def test_constraints_psl_example():
    G = PGL2(field_ctx_for_q(7))
    sols = [g for g in G.elements_with_constraints([(0, G.infinity), (1, 3)]) if G.in_psl(g)]
    assert len(sols) == 3  # half of the q-1 solutions in PGL


@pytest.mark.parametrize("q", [5, 7, 9])
def test_single_constraint_fiber(groups, q):
    """Constraint queries against a brute-force filter of the group by act."""
    G = groups[q]
    points = list(G.points)
    queries = [[(s, t)] for s in points for t in points]
    if q == 5:
        queries += [
            [(s1, t1), (s2, t2)]
            for s1 in points
            for s2 in points
            for t1 in points
            for t2 in points
            if s1 != s2 and t1 != t2
        ]
    else:
        rng = random.Random(q)
        for k in (2, 3):
            queries += [list(zip(rng.sample(points, k), rng.sample(points, k))) for _ in range(150)]
    pgl = G.elements("pgl")
    for pairs in queries:
        brute = sorted(g for g in pgl if all(G.act(s, g) == t for s, t in pairs))
        assert G.elements_with_constraints(pairs) == brute, pairs
        assert G.constraint_mask(pairs).tolist() == [g in brute for g in pgl]
        if len(pairs) == 1:
            assert len(brute) * (q + 1) == q**3 - q
            psl = [g for g in G.elements("psl") if G.act(pairs[0][0], g) == pairs[0][1]]
            assert len(psl) * (q + 1) == (q**3 - q) // 2
    # sharp 3-transitivity: one element of PGL per image of (0, 1, infinity)
    sources = (0, 1, G.infinity)
    for targets in itertools.permutations(points, 3):
        (g,) = G.elements_with_constraints(list(zip(sources, targets)))
        assert tuple(G.act(s, g) for s in sources) == targets


def test_two_point_transitivity_q5(groups):
    G = groups[5]
    pairs = [(a, b) for a in G.points for b in G.points if a != b]
    psl = G.elements("psl")
    for src in pairs:
        for tgt in pairs:
            assert any(G.act(src[0], g) == tgt[0] and G.act(src[1], g) == tgt[1] for g in psl), (src, tgt)


@pytest.mark.parametrize("q", [3, 9, 25, 27])
def test_pgl_images_match_the_action(q):
    """The cached image array against `act`, one point at a time; q = 9, 25,
    27 are prime powers with p = 3 and p = 5."""
    G = PGL2(field_ctx_for_q(q))
    images = G.pgl_images()
    assert images is G.pgl_images()
    assert images.tolist() == [[G.act(x, g) for x in G.points] for g in G.elements("pgl")]
    assert images.T.flags.c_contiguous
    assert images.dtype.kind == "u" and np.iinfo(images.dtype).max >= (q + 1) ** 2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_class_array_matches_classify(q):
    """The (flag, tr^2/det) lookup against `classify`, element by element,
    on normal forms and on scaled, unnormalized matrices."""
    G = PGL2(field_ctx_for_q(q))
    labels = G.class_labels()
    pgl = G.elements("pgl")
    assert [labels[i] for i in G.class_array(pgl).tolist()] == [G.classify(g) for g in pgl]
    nonsquare = G.ctx.generator
    scaled = [tuple(G.ctx.mul(nonsquare, v) for v in g) for g in pgl]
    assert G.class_array(scaled).tolist() == G.class_array(pgl).tolist()


@pytest.mark.parametrize("q", [5, 7, 9, 25])
def test_derangements_match_the_per_element_filter(q):
    G = PGL2(field_ctx_for_q(q))
    assert G.derangements() == [g for g in G.elements("psl") if G.is_derangement(g)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_psl_filter_matches_in_psl(q):
    """`elements("psl")` (one det-square mask) against the per-element
    `in_psl` oracle, and the mask on scaled, unnormalized matrices."""
    G = PGL2(field_ctx_for_q(q))
    pgl = G.elements("pgl")
    assert G.elements("psl") == [g for g in pgl if G.in_psl(g)]
    nonsquare = G.ctx.generator
    scaled = [tuple(G.ctx.mul(nonsquare, v) for v in g) for g in pgl]
    assert G.psl_mask(scaled).tolist() == [G.in_psl(g) for g in pgl]
