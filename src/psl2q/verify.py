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

from . import cyclotomic
from .chartable import build_table
from .charsums import CharacterSums
from .cyclotomic import CycNum, conjugate_rows, is_rational_diagonal, reduce_zeta_counts, row_products
from .derangement import DerangementModel, pair_column
from .ekr import IntersectionGraph, is_intersecting
from .errors import IdentityViolationError
from .fields import field_ctx_for_q
from .groups import PGL2

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


def _draw(rng: random.Random, elements: np.ndarray) -> tuple[int, ...]:
    """A seeded row of an element array: rng.choice's draw from its tuple list."""
    return tuple(elements[rng.randrange(len(elements))].tolist())


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


def _distinct_pairs(first: np.ndarray, second: np.ndarray) -> list[tuple[int, int]]:
    """The distinct (first[i], second[i]) over all i, sorted."""
    return sorted(set(zip(first.tolist(), second.tolist())))


def _pair_reach(group: PGL2, elements: np.ndarray, sources) -> dict[tuple[int, int], np.ndarray]:
    """For each source pair (s0, s1), which target pairs (t0, t1), at
    t0 * (q+1) + t1, some element given sends it to; only the images of the
    source points are read."""
    n = group.q + 1
    points = sorted({s for pair in sources for s in pair})
    columns = dict(zip(points, group.image_array(elements, points).T))
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
    pgl = group.element_array("pgl")
    psl = group.element_array("psl")
    labels = table.classes
    classes = group.class_array(pgl)
    in_psl = group.psl_mask(pgl)

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

    rows_ok, columns_ok = table.orthogonality()
    checks.add("row_orthogonality", rows_ok)
    checks.add("column_orthogonality", columns_ok)

    # each element contributes its (class, count) pair; each distinct pair is compared once
    psi1 = table.chars[2]
    fixed = group.fixed_point_counts(pgl) - 1
    ok = all(table.value_on_class(psi1, labels[c]) == n for c, n in _distinct_pairs(classes, fixed))
    checks.add("psi1_counts_fixed_points", ok, "checked on every group element")

    lam_m1 = table.chars[1]
    ok = all(
        (table.value_on_class(lam_m1, labels[c]) == 1) == bool(member)
        for c, member in _distinct_pairs(classes, in_psl)
    )
    checks.add("sign_character_is_psl_indicator", ok)

    # an element with f fixed points fixes f(f-1) ordered pairs of distinct points
    pi = table.permutation_character()
    pi_brute = [CycNum.rational(f * (f - 1)) for f in group.fixed_point_counts(table.representatives).tolist()]
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
        g, k = _draw(rng, pgl), _draw(rng, pgl)
        ok = ok and group.classify(group.mul(group.mul(group.inv(k), g), k)) == group.classify(g)
    checks.add("conjugation_invariance_sample", ok, "200 seeded samples")

    ok = True
    for _ in range(200):
        g, k = _draw(rng, pgl), _draw(rng, psl)
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
    reach = _pair_reach(group, psl, {s for s, _ in cases})
    ok = all(reach[s][t[0] * (q + 1) + t[1]] for s, t in cases)
    checks.add("psl_two_point_transitivity", ok, note)

    columns = set()
    for _ in range(50):
        g = _draw(rng, pgl)
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


def _scaled_equal(a: np.ndarray, a_scale: Fraction, b: np.ndarray, b_scale: Fraction) -> bool:
    """a * a_scale == b * b_scale entrywise, for integer arrays and rational
    scales, cross-multiplied in Python integers."""
    left = a.astype(object) * (a_scale.numerator * b_scale.denominator)
    return bool((left == b.astype(object) * (b_scale.numerator * a_scale.denominator)).all())


def sum_tables_real_and_symmetric(sums: CharacterSums) -> bool:
    """Row k of the Legendre and the Soto-Andrade table, for each exponent k of
    the gamma and beta sets, equals its complex conjugate (`conjugate_rows`,
    one call per conductor m) and row -k."""
    ctx = sums.ctx
    ok = True
    for table, chars in ((sums.legendre_table(), ctx.gamma_set()), (sums.soto_andrade_table(), ctx.beta_set())):
        m = len(table)
        k = np.array([c.exponent for c in chars], dtype=np.int64)
        rows = table[k].reshape(-1, table.shape[2])
        ok = ok and (conjugate_rows(m, rows) == rows).all() and (table[-k % m] == table[k]).all()
    return bool(ok)


def basis_gram_is_diagonal(sums: CharacterSums, basis: list) -> bool:
    """The Gram matrix of the q basis functions is diagonal with the expected
    squared norms, compared on the reduced numerators and denominators that
    `CharacterSums.gram` returns."""
    _, nums, dens = sums.gram([vec for _, vec, _ in basis])
    norms = [norm * dens[i, i] for i, (_, _, norm) in enumerate(basis)]
    return len(basis) == sums.q and is_rational_diagonal(nums, norms)


def character_grams_are_scalar(ctx) -> bool:
    """The Hermitian Gram matrix of the q-1 characters of GF(q)* over its
    elements is (q-1) I, and that of the q+1 characters of GF(q^2)*/GF(q)*
    over the coset representatives gen2^j is (q+1) I: character k at a point
    of log s is zeta_m^(k s)."""
    q = ctx.q
    ok = True
    for m, logs in ((q - 1, ctx.arrays.log[1:]), (q + 1, np.arange(q + 1))):
        k, point = np.divmod(np.arange(m * m), m)
        terms = (k, point, k * logs[point] % m, np.ones(m * m, dtype=np.int64))
        gram = cyclotomic.hermitian_form(m, np.ones(m, dtype=np.int64), terms, m, terms, m)
        ok = ok and is_rational_diagonal(gram, [m] * m)
    return ok


def legendre_matches_2f1(sums: CharacterSums) -> bool:
    """P_gamma(a) = 2F1(gamma, conj gamma; eps | (1-a)/2) for every nontrivial
    gamma and every a != +-1: row (k, a) of the Legendre table, q P_gamma(a),
    against the reduced 2F1 count-table row at (1-a)/2 times q * scale."""
    ctx, q = sums.ctx, sums.q
    arrays = ctx.arrays
    eps = ctx.trivial_char()
    a = np.array([x for x in range(q) if x not in (1, ctx.neg(1))], dtype=np.int64)
    args = arrays.mul[arrays.add[1, arrays.neg[a]], ctx.inv(ctx.embed_int(2))]
    gammas = [ctx.fq_char(k) for k in range(1, q - 1)]
    tables = [sums.greene_table([gamma, gamma.conj()], [eps]) for gamma in gammas]
    rhs = reduce_zeta_counts(q - 1, np.concatenate([table[args] for table, _ in tables]))
    rhs = rhs.reshape(len(tables), len(a), -1)
    legendre = sums.legendre_table()
    return all(
        _scaled_equal(legendre[k, a], Fraction(1), rhs[k - 1], scale * q)
        for k, (_, scale) in enumerate(tables, start=1)
    )


def f43_product_identity_holds(sums: CharacterSums) -> bool:
    """q 4F3(gamma, conj gamma, phi, phi; eps, eps, eps | 1) = sum over z != 0
    of phi(z) 2F1(phi, phi; eps | z) 2F1(gamma, conj gamma; eps | z) for every
    nontrivial gamma.  The right-hand sides are one `row_products` of the
    reduced 2F1 rows over all (k, z), never the level step of the tables."""
    ctx, q = sums.ctx, sums.q
    n = q - 1
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    z = np.arange(1, q)
    phi_table, phi_scale = sums.greene_table([phi, phi], [eps])
    weights = reduce_zeta_counts(n, phi_table[z] * ctx.arrays.phi[z][:, None])
    gammas = [ctx.fq_char(k) for k in range(1, n)]
    tables = [sums.greene_table([gamma, gamma.conj()], [eps]) for gamma in gammas]
    rows = reduce_zeta_counts(n, np.concatenate([table[z] for table, _ in tables]))
    products = row_products(n, np.tile(weights, (len(gammas), 1)), rows).astype(object)
    rhs = products.reshape(len(gammas), len(z), -1).sum(axis=1)
    f43 = [sums.greene_table([gamma, gamma.conj(), phi, phi], [eps] * 3) for gamma in gammas]
    lhs = reduce_zeta_counts(n, np.array([table[1] for table, _ in f43]))
    return all(
        _scaled_equal(lhs[i], f43[i][1] * q, rhs[i], phi_scale * tables[i][1]) for i in range(len(gammas))
    )


def f32_matches_2f1_recursion(sums: CharacterSums) -> bool:
    """Greene's step 3F2(A0, A1, A2; B1, B2 | x) = (A2 B2)(-1)/q * sum over y of
    A2(y) (B2/A2)(1-y) 2F1(A0, A1; B1 | xy), with every A_i of exponent 1 and
    every B_i trivial, at every x.  The values are not real, so a
    complex-conjugated 3F2 fails here.  The right-hand sides are one
    `row_products` of the reduced weights and 2F1 rows over all (x, y), never
    the level step of the tables."""
    ctx, q = sums.ctx, sums.q
    n = q - 1
    arrays = ctx.arrays
    gamma, eps = ctx.fq_char(1), ctx.trivial_char()
    minus_one = ctx.neg(1)
    base, base_scale = sums.greene_table([gamma, gamma], [eps])
    y = np.arange(2, q)  # the weight gamma(y) conj(gamma)(1-y) vanishes at y = 0 and 1
    powers = np.zeros((len(y), n), dtype=np.int64)
    powers[np.arange(len(y)), (arrays.log[y] - arrays.log[arrays.add[1, arrays.neg[y]]]) % n] = 1
    weights = reduce_zeta_counts(n, powers)
    rows = reduce_zeta_counts(n, base[arrays.mul[:, y].ravel()])
    products = row_products(n, np.tile(weights, (q, 1)), rows).astype(object)
    rhs = products.reshape(q, len(y), -1).sum(axis=1)
    table, scale = sums.greene_table([gamma] * 3, [eps] * 2)
    sign = (ctx.char_eval(gamma, minus_one) * ctx.char_eval(eps, minus_one)).as_fraction()
    return _scaled_equal(reduce_zeta_counts(n, table), scale, rhs, base_scale * sign / q)


def long_division_product(a: CycNum, b: CycNum) -> CycNum:
    """a * b by long division of the numerators' schoolbook product by Phi_m."""
    m = math.lcm(a.m, b.m)
    x, y = (cyclotomic._stretch(v.nums, m // v.m) for v in (a, b))
    _, rem = cyclotomic._poly_divmod(cyclotomic._convolve(x, y), cyclotomic.cyclotomic_polynomial(m))
    return cyclotomic._canonical(m, tuple(rem), a.den * b.den)


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

    checks.add("values_real_and_inversion_symmetric", sum_tables_real_and_symmetric(sums))

    basis = sums.orthogonal_basis()
    checks.add(
        "orthogonal_basis_gram_matrix",
        basis_gram_is_diagonal(sums, basis),
        f"{len(basis)} x {len(basis)} Gram, exact",
    )

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

    checks.add("multiplicative_character_orthogonality", character_grams_are_scalar(ctx), "all character ratios")

    ok = True
    for gamma in gammas:
        for x in range(1, q):
            ok = ok and ctx.char_eval(gamma, x) * ctx.char_eval(gamma, ctx.inv(x)) == 1
    checks.add("character_inverse_product", ok)

    checks.add("legendre_equals_2f1", legendre_matches_2f1(sums), "all nontrivial characters, all a != +-1")

    ok = all(
        sums.greene_2f1(phi, phi, eps, x)
        == sums.greene_2f1(phi, phi, eps, ctx.inv(x)) * ctx.phi_int(x)
        for x in range(1, q)
    )
    checks.add("2f1_reflection", ok, "all x != 0")

    checks.add("4f3_product_identity", f43_product_identity_holds(sums), "all nontrivial characters")
    checks.add("3f2_matches_2f1_recursion", f32_matches_2f1_recursion(sums), "gamma of exponent 1, all x in F_q")

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

    # the Gauss table's verdict per row: g(trivial) = -1 and |g|^2 = q for the rest
    ok = ctx.gauss_sum(eps) == -1 and bool(sums.gauss_table()[2].all())
    checks.add("gauss_sum_properties", ok, "g(trivial) = -1 and |g|^2 = q")

    ok = True
    for _ in range(100):
        m = rng.choice([q - 1, q + 1])
        a = CycNum.root_of_unity(m, rng.randrange(m)) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        b = CycNum.root_of_unity(m, rng.randrange(m)) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        c = CycNum.root_of_unity(m, rng.randrange(m))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * b == long_division_product(a, b)
        ok = ok and (a * a.conjugate()).is_real()
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

    # a row of the 0/1 matrix M sums to q+1 exactly when its q+1 columns differ
    columns = model.columns()
    n_rows, n_cols = len(columns), len(model.omega)
    checks.add(
        "derangement_matrix_shape",
        n_rows == q * (q - 1) ** 2 // 4
        and n_cols == q * (q + 1)
        and (np.diff(np.sort(columns, axis=1), axis=1) != 0).all()
        and (np.bincount(columns.ravel(), minlength=n_cols) == (q - 1) ** 2 // 4).all(),
        f"{n_rows} x {n_cols}, row sums q+1, column sums (q-1)^2/4",
    )

    # D a union of whole PGL classes makes N PGL-invariant, which carries row
    # (0, inf) to every row as `gram_closed` does: the counted row equal to
    # the closed row decides N equal to the closed form entrywise
    hypotheses = model.schur_hypotheses()
    checks.add(
        "gram_equals_closed_form",
        np.array_equal(model.gram_row_zero_inf(), model.gram_row_zero_inf_closed())
        and hypotheses["whole_pgl_classes"],
        "row (0, inf) counted, every row by PGL invariance",
    )

    # draws of a row pair, a column pair and an element; images after the
    # draws; the 200 (a, b, c, d) and their images read as pair columns
    pgl = group.element_array("pgl")
    drawn = [(rng.choice(model.omega), rng.choice(model.omega), rng.randrange(len(pgl))) for _ in range(200)]
    points = np.array([(*r_pair, *c_pair) for r_pair, c_pair, _ in drawn])
    images = group.image_array(pgl[[g for _, _, g in drawn]])
    a, b, c, d = np.vstack([points, np.take_along_axis(images, points, axis=1)]).T
    entries = model.gram_entries(pair_column(a, b, q), pair_column(c, d, q))
    checks.add(
        "gram_relabeling_invariance_sample",
        bool((entries[: len(drawn)] == entries[len(drawn) :]).all()),
        "200 seeded samples",
    )

    # the Schur lower bound on rank(N): every hypothesis is an exact check
    for name, detail in (
        ("whole_pgl_classes", "D meets each PGL class in none or all of it; no row of M repeats"),
        ("targets_occur_once", "pair-module multiplicity 1 for every target"),
        ("scalars_nonzero", "t(chi) from the (0, inf) row of N, every target"),
        ("dimension_ledger", f"sum of target degrees {model.dimension_ledger()}, expected {q * (q - 1)}"),
        ("table_orthogonality", "row and column Grams of the table"),
    ):
        checks.add(f"schur_{name}", hypotheses[name], detail)

    rank_m, method_m = model.rank_of_m()
    checks.add(
        "rank_of_m", rank_m == q * (q - 1), f"rank {rank_m} ({method_m}), expected {q * (q - 1)}"
    )
    # over Q |M v|^2 = v^T N v, so rank(M) = rank(N): the Schur lower bound on
    # rank(N) meets the kernel bound on rank(M) witnessed below
    schur_bound, kernel_bound = model.schur_bound(), model.kernel_bound()
    checks.add(
        "rank_of_gram_matches",
        schur_bound == kernel_bound,
        f"Schur bound {schur_bound} on rank(N), kernel bound {kernel_bound} on rank(M)",
    )

    # M 1 = q+1 on every row, so M first[x] = M second[x] = 1 for all x exactly
    # when M kills every l[a,b] = first[a] - first[b] and r[a,b] likewise;
    # N K^T = M^T (M K^T) = 0 then follows
    checks.add("kernel_witness", model.kernel_witnessed(), "2q independent vectors annihilated by M")

    targets = [chi for chi in model.target_characters() if chi.kind != "lambda1"]
    fixing = model.class_sums([model.class_counts(c) for c in (((0, 0), (inf, inf)), [(0, 0)], [(0, inf)])])
    ok = all(rows[0, 0] == q - 1 and not rows[0, 1:].any() and not rows[1:].any() for rows in fixing.values())
    checks.add("restriction_multiplicity_sums", ok, "fixing sums q-1, 0, 0 per character")

    # row 0 is the swap constraint 0 <-> inf, row d-1 is 0 -> inf, 1 -> d
    brute, closed = model.restricted_sums(), model.restricted_closed_forms()
    ok = all(np.array_equal(brute[chi], closed[chi]) for chi in targets)
    # g and g^(-1) lie in the same class at every element, so every sum of
    # chi(g) over a set equals the sum of chi(g^(-1))
    ok = ok and bool((model.classes_by_position(True) == model.classes_by_position(False)).all())
    checks.add(
        "restricted_sums_match_closed_forms",
        ok,
        "all admissible targets; g and g^(-1) sums agree",
    )

    direct = model.direct_sums()
    ok = direct[table.chars[0]] == model.lambda1_value()
    t_values = {}
    for chi in targets:
        a = model.character_sum_assembled(chi)
        c = model.character_sum_closed_form(chi)
        ok = ok and direct[chi] == a and a == c
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

    derangement_count = int(np.count_nonzero(group.fixed_point_counts(group.element_array("psl")) == 0))
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

    # families and cosets are masks over the graph's sorted vertices
    size, families = graph.maximum_families()
    expected_size = q * (q - 1) // 2
    checks.add("maximum_family_size", size == expected_size, f"size {size}")

    others = [mask for mask in families if graph.coset_of(mask) is None]

    cosets = {graph.coset[x][y] for x in group.points for y in group.points}
    coset_check = len(cosets) == (q + 1) ** 2 and all(
        mask.bit_count() == expected_size and graph.is_clique(mask) for mask in cosets
    )
    checks.add(
        "stabilizer_cosets_are_maximum_families",
        coset_check and cosets <= set(families),
        f"{len(cosets)} distinct cosets",
    )

    if q == 3:
        checks.add(
            "noncoset_maximum_family_exists",
            len(others) >= 1 and all(graph.is_clique(mask) for mask in others),
            f"{len(others)} maximum families are not stabilizer cosets",
        )
    else:
        checks.add(
            "all_maximum_families_are_cosets",
            not others and set(families) == cosets,
            f"{len(families)} families, all stabilizer cosets",
        )

    some_coset = sorted(graph.members(graph.coset[0][0]), key=repr)
    subset = some_coset[: max(2, len(some_coset) // 2)]
    checks.add("subfamilies_stay_intersecting", is_intersecting(group, subset, graph))

    extra = {
        "max_size": size,
        "expected_max_size": expected_size,
        "family_count": len(families),
        "all_cosets": not others,
        "counterexamples": [sorted(",".join(map(str, g)) for g in graph.members(mask)) for mask in others[:8]],
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
