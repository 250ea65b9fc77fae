"""Named verification suites over a chosen field size.

Each suite returns a JSON-ready report with one entry per check.  All checks
are exact unless explicitly labeled as a sampled spot check; sampling is
driven by a caller-supplied seed so reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .chartable import build_table
from .charsums import CharacterSums
from .cyclotomic import CycNum
from .derangement import DerangementModel
from .ekr import (
    IntersectionGraph,
    classify_family,
    is_intersecting,
    max_intersecting_families,
    stabilizer_coset,
)
from .errors import IdentityViolationError
from .fields import field_ctx_for_q
from .groups import PGL2
from .intrank import rank_with_kernel

SUITES = ("table", "sums", "rank", "ekr")


class _Checks:
    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append({"name": name, "pass": bool(ok), "detail": detail})

    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.items)


def _rng(seed: int, q: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{q}:{suite}")


def _report(q: int, suite: str, seed: int, checks: _Checks, extra: dict | None = None) -> dict:
    report = {
        "schema": "1",
        "q": q,
        "suite": suite,
        "seed": seed,
        "checks": checks.items,
        "pass": checks.all_pass(),
    }
    if extra:
        report.update(extra)
    return report


# -- table suite ---------------------------------------------------------------


def _is_diagonal(gram: np.ndarray, diagonal) -> bool:
    """gram[a, b] (numerators in Q(zeta_L)) is the rational diagonal[a] when
    a == b and 0 otherwise, for every a and b."""
    constant = gram[..., 0].tolist()
    return not gram[..., 1:].any() and all(
        value == (diagonal[a] if a == b else 0)
        for a, line in enumerate(constant)
        for b, value in enumerate(line)
    )


def _distinct_pairs(first: np.ndarray, second: np.ndarray) -> list[tuple[int, int]]:
    """The distinct (first[i], second[i]) over all i, sorted."""
    return sorted(set(zip(first.tolist(), second.tolist())))


def _pair_reach(images: np.ndarray, sources) -> dict[tuple[int, int], np.ndarray]:
    """For each source pair (s0, s1), which target pairs (t0, t1), at
    t0 * (q+1) + t1, some row of the image array sends it to."""
    n = images.shape[1]
    columns = np.ascontiguousarray(images.T)
    reach = {}
    for s0, s1 in sources:
        hit = np.zeros(n * n, dtype=bool)
        hit[columns[s0] * n + columns[s1]] = True
        reach[(s0, s1)] = hit
    return reach


def run_table_suite(q: int, seed: int = 0) -> dict:
    group = PGL2(field_ctx_for_q(q))
    table = build_table(group)
    checks = _Checks()
    rng = _rng(seed, q, "table")
    pgl = group.elements("pgl")
    psl = group.elements("psl")
    labels = table.classes
    rows = np.array(pgl, dtype=np.intp)
    classes = group.class_array(rows)
    in_psl = group.psl_mask(rows)
    point_images = group.pgl_images()

    sizes = np.bincount(classes, minlength=len(labels))
    census_ok = (
        len(pgl) == q**3 - q
        and len(psl) == (q**3 - q) // 2
        and sizes.tolist() == [group.class_size(lab) for lab in labels]
    )
    checks.add("class_equation_census", census_ok, f"{np.count_nonzero(sizes)} classes, |PGL| = {len(pgl)}")

    checks.add(
        "degree_sum_squares",
        sum(c.degree**2 for c in table.chars) == q**3 - q,
        f"sum of squared degrees = {q ** 3 - q}",
    )

    order = q**3 - q
    checks.add("row_orthogonality", _is_diagonal(table.row_gram(), [order] * len(labels)))
    checks.add(
        "column_orthogonality",
        _is_diagonal(table.column_gram(), [Fraction(order, size) for size in table.sizes]),
    )

    # each element contributes its (class, count) pair; each distinct pair is compared once
    psi1 = table.chars[2]
    fixed = (point_images == np.arange(q + 1)).sum(axis=1) - 1
    ok = all(table.value_on_class(psi1, labels[c]) == n for c, n in _distinct_pairs(classes, fixed))
    checks.add("psi1_counts_fixed_points", ok, "checked on every group element")

    lam_m1 = table.chars[1]
    ok = all(
        (table.value_on_class(lam_m1, labels[c]) == 1) == bool(member)
        for c, member in _distinct_pairs(classes, in_psl)
    )
    checks.add("sign_character_is_psl_indicator", ok)

    pi = table.permutation_character()
    pi_brute = []
    for rep in table.representatives:
        images = {pt: group.act(pt, rep) for pt in group.points}
        fixed_pairs = sum(
            1
            for a in group.points
            for b in group.points
            if a != b and images[a] == a and images[b] == b
        )
        pi_brute.append(CycNum.rational(fixed_pairs))
    dec = table.decompose(pi)
    expected = {
        c.name(): Fraction(2 if c.kind == "psi1" else (0 if c.kind == "lambda_minus1" else 1))
        for c in table.chars
    }
    checks.add(
        "pair_module_decomposition",
        all(x == y for x, y in zip(pi, pi_brute)) and dec == expected,
        "multiplicities 1, 0, 2, 1 and 1 per eta and nu",
    )

    ok = True
    for _ in range(200):
        g, k = rng.choice(pgl), rng.choice(pgl)
        ok = ok and group.classify(group.mul(group.mul(group.inv(k), g), k)) == group.classify(g)
    checks.add("conjugation_invariance_sample", ok, "200 seeded samples")

    ok = True
    for _ in range(200):
        g, k = rng.choice(pgl), rng.choice(psl)
        ok = ok and group.in_psl(group.mul(group.mul(group.inv(g), k), g))
    checks.add("psl_normality_sample", ok, "200 seeded samples")

    pairs = [(a, b) for a in group.points for b in group.points if a != b]
    if q <= 7:
        cases = [(s, t) for s in pairs for t in pairs]
        note = "all ordered pairs"
    else:
        cases = [(rng.choice(pairs), rng.choice(pairs)) for _ in range(300)]
        note = "300 seeded samples"
    # some g in PSL sends s0 -> t0 and s1 -> t1
    reach = _pair_reach(point_images[in_psl], {s for s, _ in cases})
    ok = all(reach[s][t[0] * (q + 1) + t[1]] for s, t in cases)
    checks.add("psl_two_point_transitivity", ok, note)

    columns = set()
    for _ in range(50):
        g = rng.choice(pgl)
        columns.add((table.class_index[group.classify(g)], table.class_index[group.classify(group.inv(g))]))
    ok = all(row[b] == row[a].conjugate() for a, b in sorted(columns) for row in table.values)
    checks.add("inverse_is_conjugate_sample", ok, "50 seeded samples, all characters")

    return _report(q, "table", seed, checks)


# -- sums suite ------------------------------------------------------------------


def base_coset_log_shifts(ctx) -> set[int]:
    """{log2(r u) - log2(r) mod q+1 : r in GF(q^2)*, u in GF(q)*}, every
    product r u computed in one numpy pass."""
    q = ctx.q
    r = np.arange(1, q * q)[:, None]
    log2 = ctx.arrays.log2
    shifts = (log2[ctx.q2_mul_array(r, np.arange(1, q))] - log2[r]) % (q + 1)
    return set(shifts.ravel().tolist())


def run_sums_suite(q: int, seed: int = 0) -> dict:
    ctx = field_ctx_for_q(q)
    sums = CharacterSums(ctx)
    checks = _Checks()
    rng = _rng(seed, q, "sums")
    eps = ctx.trivial_char()
    phi = ctx.quadratic_char()
    minus_one = ctx.neg(1)
    gammas = ctx.gamma_set()
    betas = ctx.beta_set()

    checks.add(
        "measure_total_mass",
        sum(sums.measure(x) for x in range(q)) == 3 * q,
        "weights q+1 at +-1, 1 elsewhere",
    )

    ok = all(
        sums.legendre_sum(eps, a)
        == (Fraction(q - 2, q) if a in (1, minus_one) else Fraction(-2, q))
        for a in range(q)
    )
    checks.add("trivial_legendre_closed_form", ok, "all a in F_q")

    ok = True
    for gamma in gammas:
        sign = -1 if gamma.exponent % 2 else 1
        ok = ok and sums.legendre_sum(gamma, 1) == Fraction(-1, q)
        ok = ok and sums.legendre_sum(gamma, minus_one) == Fraction(-sign, q)
    for beta in betas:
        ok = ok and sums.soto_andrade_sum(beta, 1) == Fraction(1, q)
        ok = ok and sums.soto_andrade_sum(beta, minus_one) == Fraction(-beta.sign_at_i(), q)
    checks.add("boundary_values_at_plus_minus_one", ok)

    ok = True
    for gamma in gammas:
        for a in range(q):
            v = sums.legendre_sum(gamma, a)
            ok = ok and v.is_real() and sums.legendre_sum(gamma.conj(), a) == v
    for beta in betas:
        for a in range(q):
            v = sums.soto_andrade_sum(beta, a)
            ok = ok and v.is_real() and sums.soto_andrade_sum(beta.conj(), a) == v
    checks.add("values_real_and_inversion_symmetric", ok)

    basis = sums.orthogonal_basis()
    gram = sums.gram([vec for _, vec, _ in basis])
    ok = len(basis) == q
    for i, (_, _, norm1) in enumerate(basis):
        for j in range(len(basis)):
            ok = ok and gram[i][j] == (norm1 if i == j else 0)
    checks.add("orthogonal_basis_gram_matrix", ok, f"{len(basis)} x {len(basis)} Gram, exact")

    # beta(r u) = beta(r) for all r and u in GF(q)* iff k * (log2(r u) - log2(r)) = 0
    # mod q+1, so each log difference is computed once and checked for every beta
    base = {ctx.log2[r] % (q + 1) for r in range(1, q)}  # embedded GF(q)*
    shifts = base_coset_log_shifts(ctx)
    ok = all(
        {(beta.exponent * b) % (q + 1) for b in base} == {0}
        and all((beta.exponent * d) % (q + 1) == 0 for d in shifts)
        for beta in betas
    )
    checks.add("beta_trivial_on_base_cosets", ok, "nonvanishing and coset-constant")

    ok = True
    for d in range(q - 1):
        total = CycNum.zero()
        for x in range(1, q):
            total = total + CycNum.root_of_unity(q - 1, d * ctx.log[x])
        ok = ok and total == (q - 1 if d == 0 else 0)
    checks.add("multiplicative_character_orthogonality", ok, "all character ratios")

    ok = True
    for gamma in gammas:
        for x in range(1, q):
            ok = ok and ctx.char_eval(gamma, x) * ctx.char_eval(gamma, ctx.inv(x)) == 1
    checks.add("character_inverse_product", ok)

    half = ctx.inv(ctx.embed_int(2))
    ok = True
    for k in range(1, q - 1):
        gamma = ctx.fq_char(k)
        for a in range(q):
            if a in (1, minus_one):
                continue
            arg = ctx.mul(ctx.sub(1, a), half)
            ok = ok and sums.legendre_sum(gamma, a) == sums.greene_2f1(gamma, gamma.conj(), eps, arg)
    checks.add("legendre_equals_2f1", ok, "all nontrivial characters, all a != +-1")

    ok = all(
        sums.greene_2f1(phi, phi, eps, x)
        == sums.greene_2f1(phi, phi, eps, ctx.inv(x)) * ctx.phi_int(x)
        for x in range(1, q)
    )
    checks.add("2f1_reflection", ok, "all x != 0")

    ok = True
    phi_2f1 = [sums.greene_2f1(phi, phi, eps, z) * ctx.phi_int(z) for z in range(1, q)]
    for k in range(1, q - 1):
        gamma = ctx.fq_char(k)
        lhs = sums.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1) * q
        rhs = CycNum.zero()
        for z, weight in enumerate(phi_2f1, start=1):
            rhs = rhs + weight * sums.greene_2f1(gamma, gamma.conj(), eps, z)
        ok = ok and lhs == rhs
    checks.add("4f3_product_identity", ok, "all nontrivial characters")

    # Greene's step 3F2(A0, A1, A2; B1, B2 | x) = (A2 B2)(-1)/q * sum over y of
    # A2(y) (B2/A2)(1-y) 2F1(A0, A1; B1 | xy), on a tuple whose values are not
    # real, so a complex-conjugated 3F2 fails here
    gamma = ctx.fq_char(1)
    base = [sums.greene_2f1(gamma, gamma, eps, t) for t in range(q)]
    sign = ctx.char_eval(gamma, minus_one) * ctx.char_eval(eps, minus_one) * Fraction(1, q)
    ok = True
    for x in range(q):
        rhs = CycNum.zero()
        for y in range(1, q):
            weight = ctx.char_eval(gamma, y) * ctx.char_eval(gamma.conj(), ctx.sub(1, y))
            rhs = rhs + weight * base[ctx.mul(x, y)]
        ok = ok and sums.greene_nfn([gamma] * 3, [eps] * 2, x) == rhs * sign
    checks.add("3f2_matches_2f1_recursion", ok, "gamma of exponent 1, all x in F_q")

    details = []
    ok = True
    for n in (2, 3, 4, 6):
        if (q - 1) % n == 0:
            dev, bound, holds = sums.f43_deviation_bound(n)
            ok = ok and holds
            details.append(f"n={n}: {dev} <= {bound}")
    checks.add("4f3_deviation_bound", ok, "; ".join(details))

    details = []
    ok = True
    for n in (2, 3, 4, 6):
        if (q - 1) % n == 0:
            gamma = ctx.fq_char((q - 1) // n)
            f43 = sums.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1)
            alpha = [Fraction(1, n), Fraction(n - 1, n), Fraction(1, 2), Fraction(1, 2)]
            beta_params = [Fraction(1)] * 4
            h1 = sums.katz_h(alpha, beta_params, 1)
            second = next(s for s in range(2, q - 1) if math.gcd(s, q - 1) == 1)
            h2 = sums.katz_h(alpha, beta_params, 1, omega_exponent=second)
            ok = ok and f43 * (-(q**3)) == h1 and h1 == h2
            details.append(f"n={n}")
    checks.add("katz_conversion_and_generator_independence", ok, "; ".join(details))

    f_norm = sums.f_norm_squared()
    coeff_squares = sums.orthonormal_coefficient_squares()
    total = CycNum.zero()
    for _, sq in coeff_squares:
        total = total + sq
    checks.add(
        "f_norm_and_expansion",
        f_norm == 1 - Fraction(1, q) - Fraction(2, q * q) and total == f_norm,
        f"||f||^2 = {f_norm}",
    )

    ok = True
    for d in range(q):
        if d in (0, 1):
            continue
        four_d = ctx.mul(ctx.embed_int(4), d)
        s = 0
        for x in range(1, q):
            t = ctx.add(x, ctx.inv(x))
            s += ctx.phi_int(ctx.sub(ctx.mul(t, t), four_d))
        arg = ctx.sub(ctx.add(d, d), 1)
        ok = ok and Fraction(s) == -2 + q * sums.legendre_phi(arg)
    checks.add("trace_square_double_sum", ok, "all d outside {0, 1}")

    ok = ctx.gauss_sum(eps) == -1
    for k in range(1, q - 1):
        g = ctx.gauss_sum(ctx.fq_char(k))
        ok = ok and g * g.conjugate() == q
    checks.add("gauss_sum_properties", ok, "g(trivial) = -1 and |g|^2 = q")

    ok = True
    for _ in range(100):
        m = rng.choice([q - 1, q + 1])
        a = CycNum.root_of_unity(m, rng.randrange(m)) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        b = CycNum.root_of_unity(m, rng.randrange(m)) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        c = CycNum.root_of_unity(m, rng.randrange(m))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and abs(complex(a * b) - complex(a) * complex(b)) < 1e-9
        ok = ok and abs(complex(a * a.conjugate()).imag) < 1e-9
    checks.add("cyclotomic_arithmetic_sample", ok, "100 seeded samples")

    return _report(q, "sums", seed, checks)


# -- rank suite --------------------------------------------------------------------


def run_rank_suite(q: int, seed: int = 0, approx_digits: int = 12) -> dict:
    group = PGL2(field_ctx_for_q(q))
    table = build_table(group)
    model = DerangementModel(table)
    sums = model.sums
    ctx = group.ctx
    checks = _Checks()
    rng = _rng(seed, q, "rank")
    inf = group.infinity

    m = model.build_m()
    n_rows, n_cols = m.shape
    checks.add(
        "derangement_matrix_shape",
        n_rows == q * (q - 1) ** 2 // 4
        and n_cols == q * (q + 1)
        and (m.sum(axis=1) == q + 1).all()
        and (m.sum(axis=0) == (q - 1) ** 2 // 4).all(),
        f"{n_rows} x {n_cols}, row sums q+1, column sums (q-1)^2/4",
    )

    gram = model.gram_bruteforce()
    checks.add(
        "gram_equals_closed_form",
        bool((gram == model.gram_closed()).all()) and bool((gram == gram.T).all()),
        "entrywise over all pairs",
    )

    images = group.pgl_images()
    ok = True
    for _ in range(200):
        r_pair = rng.choice(model.omega)
        c_pair = rng.choice(model.omega)
        image = images[rng.randrange(len(images))].tolist()  # draws as rng.choice(elements("pgl")) does
        moved_r = (image[r_pair[0]], image[r_pair[1]])
        moved_c = (image[c_pair[0]], image[c_pair[1]])
        ok = ok and (
            gram[model.omega_index[r_pair], model.omega_index[c_pair]]
            == gram[model.omega_index[moved_r], model.omega_index[moved_c]]
        )
    checks.add("gram_relabeling_invariance_sample", ok, "200 seeded samples")

    # N v = M^T (M v), so the kernel witnesses of M bound rank(N) as well
    kernel = model.kernel_basis()
    rank_m, method_m = model.rank_of_m()
    checks.add(
        "rank_of_m", rank_m == q * (q - 1), f"rank {rank_m} ({method_m}), expected {q * (q - 1)}"
    )
    rank_n, method_n = model.rank_of_gram()
    checks.add("rank_of_gram_matches", rank_n == rank_m, f"rank(N) = {rank_n} ({method_n})")

    left, right = model.kernel_vectors()
    ok = model.annihilates([*left.values(), *right.values()])
    ok = ok and rank_with_kernel(kernel)[0] == 2 * q
    ok = ok and not (gram @ left[(0, 1)]).any()
    a_pt, b_pt, c_pt = 0, 1, 2
    ok = ok and (left[(a_pt, b_pt)] - left[(a_pt, c_pt)] == left[(c_pt, b_pt)]).all()
    ok = ok and rank_m + 2 * q <= q * (q + 1)
    checks.add("kernel_witness", ok, "2q independent vectors annihilated by M")

    targets = [chi for chi in model.target_characters() if chi.kind != "lambda1"]
    ok = True
    for chi in targets:
        ok = ok and table.class_sum(chi, model.class_counts(((0, 0), (inf, inf)))) == q - 1
        for target in (0, inf):
            ok = ok and table.class_sum(chi, model.class_counts([(0, target)])).is_zero()
    checks.add("restriction_multiplicity_sums", ok, "fixing sums q-1, 0, 0 per character")

    constraints = [((0, inf), (inf, 0))] + [((0, inf), (1, d)) for d in range(2, q)]
    ok = all(
        model.restricted_char_sum(chi, c) == model.restricted_sum_closed_form(chi, c)
        for chi in targets
        for c in constraints
    )
    # g and g^(-1) lie in the same class at every element, so every sum of
    # chi(g) over a set equals the sum of chi(g^(-1))
    ok = ok and bool((model.classes_by_position(True) == model.classes_by_position(False)).all())
    checks.add(
        "restricted_sums_match_closed_forms",
        ok,
        "all admissible targets; g and g^(-1) sums agree",
    )

    lam1 = table.chars[0]
    ok = model.character_sum_direct(lam1, gram) == model.lambda1_value()
    t_values = {}
    for chi in targets:
        d = model.character_sum_direct(chi, gram)
        a = model.character_sum_assembled(chi)
        c = model.character_sum_closed_form(chi)
        ok = ok and d == a and a == c
        t_values[chi.name()] = c
    checks.add("character_sums_triple_equality", ok, "direct, assembled and closed forms")

    nonzero = all(not t.is_zero() for t in t_values.values())
    checks.add(
        "character_sums_nonzero",
        nonzero and model.lambda1_value() != 0,
        "exact nonvanishing for the full target set",
    )

    # Each <f, b>^2 / ||b||^2 over the orthogonal basis is the square of a real
    # number (orthonormal_coefficient_squares raises otherwise), hence >= 0; the
    # terms sum exactly to ||f||^2 <= 1, so every normalized eta coefficient
    # <f, R_beta> / ||R_beta|| has magnitude <= 1 as well
    try:
        total = CycNum.zero()
        for _, sq in sums.orthonormal_coefficient_squares():
            total = total + sq
        f_norm = sums.f_norm_squared()
        ok = total == f_norm and f_norm <= 1
    except IdentityViolationError:
        ok = False
    details = ["eta coefficients real with normalized magnitude <= 1"]
    if q >= 7:
        lhs, rhs = sums.f_coefficient_identity(ctx.quadratic_char())
        w = rhs.as_fraction()
        ok = ok and lhs == rhs and w * w <= 4 * q**3
        ok = ok and (q * q - q - 2) ** 2 > 4 * q**3
        details.append(f"psi margin: w = {w}, w^2 <= 4q^3 < (q^2-q-2)^2")
    checks.add("nonvanishing_margins", ok, "; ".join(details))

    certificate = model.rank_certificate(approx_digits=approx_digits)
    checks.add(
        "rank_certificate",
        certificate["pass"],
        f"rank {certificate['rank']} ({certificate['rank_method']}), "
        f"ledger {certificate['dimension_ledger']}",
    )

    return _report(q, "rank", seed, checks, extra={"certificate": certificate})


# -- ekr suite -----------------------------------------------------------------------


def run_ekr_suite(q: int, seed: int = 0) -> dict:
    group = PGL2(field_ctx_for_q(q))
    graph = IntersectionGraph(group)
    checks = _Checks()
    rng = _rng(seed, q, "ekr")
    psl = group.elements("psl")

    derangement_count = sum(1 for g in psl if group.is_derangement(g))
    checks.add(
        "derangement_count",
        derangement_count == q * (q - 1) ** 2 // 4,
        f"{derangement_count} derangements",
    )

    ok = True
    for _ in range(100):
        g1, g2, h = rng.choice(psl), rng.choice(psl), rng.choice(psl)
        lhs = group.is_derangement(group.mul(g1, group.inv(g2)))
        rhs = group.is_derangement(
            group.mul(group.mul(g1, h), group.inv(group.mul(g2, h)))
        )
        ok = ok and lhs == rhs
    checks.add("adjacency_translation_invariance_sample", ok, "100 seeded triples")

    size, families = max_intersecting_families(group, graph)
    expected_size = q * (q - 1) // 2
    checks.add("maximum_family_size", size == expected_size, f"size {size}")

    classifications = [classify_family(group, fam, graph) for fam in families]
    coset_count = sum(1 for c in classifications if c.kind == "stabilizer_coset")
    other_count = len(families) - coset_count

    cosets = {stabilizer_coset(group, x, y, graph) for x in group.points for y in group.points}
    coset_check = len(cosets) == (q + 1) ** 2 and all(
        len(c) == expected_size and is_intersecting(group, c, graph) for c in cosets
    )
    checks.add(
        "stabilizer_cosets_are_maximum_families",
        coset_check and cosets <= set(families),
        f"{len(cosets)} distinct cosets",
    )

    if q == 3:
        checks.add(
            "noncoset_maximum_family_exists",
            other_count >= 1,
            f"{other_count} maximum families are not stabilizer cosets",
        )
    else:
        checks.add(
            "all_maximum_families_are_cosets",
            other_count == 0 and set(families) == cosets,
            f"{len(families)} families, all stabilizer cosets",
        )

    some_coset = sorted(stabilizer_coset(group, 0, 0, graph), key=repr)
    subset = some_coset[: max(2, len(some_coset) // 2)]
    checks.add("subfamilies_stay_intersecting", is_intersecting(group, subset, graph))

    extra = {
        "max_size": size,
        "expected_max_size": expected_size,
        "family_count": len(families),
        "all_cosets": other_count == 0,
        "counterexamples": [
            sorted(",".join(map(str, g)) for g in fam)
            for fam, cls in zip(families, classifications)
            if cls.kind == "other"
        ][:8],
    }
    return _report(q, "ekr", seed, checks, extra=extra)


def run_suite(suite: str, q: int, seed: int = 0, approx_digits: int = 12) -> dict:
    if suite == "table":
        return run_table_suite(q, seed)
    if suite == "sums":
        return run_sums_suite(q, seed)
    if suite == "rank":
        return run_rank_suite(q, seed, approx_digits=approx_digits)
    if suite == "ekr":
        return run_ekr_suite(q, seed)
    raise ValueError(f"unknown suite {suite!r}")
