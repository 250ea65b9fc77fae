"""Character sums over GF(q) and GF(q^2), and finite-field hypergeometric
functions.

Everything here is a plain sum over field elements, evaluated exactly in a
cyclotomic field.  The two central families are the Legendre sums

    P_gamma(a) = (1/q) * sum over x != 0 of gamma(x) * phi(x^2 - 2ax + 1)

and the Soto-Andrade sums

    R_beta(a) = (1/(q(q-1))) * sum over r in F_(q^2)* of
                beta(r) * phi((r + r^q)^2 - 2(a+1) r^(1+q)),

with phi the quadratic character.  Together with the shifted trivial sum
they form an orthogonal basis of the space of functions on F_q under the
weighted Hermitian form whose weight is q+1 at the two points +-1 and 1
elsewhere.  Greene's hypergeometric sums are implemented directly from
their defining sum and inductive product formula, and the Katz-normalized
hypergeometric sum from its Gauss-sum expression.

Each summand is a signed root of unity zeta_m^j, so a sum is an integer
vector counting the powers j, times one rational scale, reduced mod Phi_m
by a single `CycNum.from_zeta_powers` call.  Greene's sums are count tables
over Z[x]/(x^(q-1) - 1), a ring mapping onto Q(zeta_(q-1)): one q x (q-1)
int64 table per tuple of (upper, lower) exponents, cached, whose row t
counts the powers of the sum at t.  The 2F1 base table is one `np.bincount`
over all (t, y), and each higher level one gather-sum of rows t*y rotated by
the exponent of the level's summand at y (`_greene_level`); a value reads and
reduces one row, and `greene_table` returns a whole table with its scale.
The Soto-Andrade summand is constant on the cosets r * GF(q)* (trace and
norm scale by u and u^2, beta is trivial on GF(q)*), so R_beta counts the
q+1 coset representatives gen2^j.  Each family is one table of the reduced
numerators of q P_gamma(a), or q R_beta(a), for every exponent k and every
a: one bincount per sign of phi over (k, a, k log x), or (k, a, k j), and
one `reduce_zeta_counts`.  `legendre_sum` and `soto_andrade_sum` read a
row; the complex conjugate of row k is row -k.

The weighted Hermitian form is `cyclotomic.hermitian_form` of the
functions' terms (`cyclotomic.zeta_terms`), with the measure as the weight.
`gram` runs it on every ordered pair at once in Q(zeta_L), L the lcm of
every conductor, and returns the reduced numerators and the denominators as
arrays.  `l2_inner` runs the cross form of two functions and returns the
value as a `CycNum` in the conductor it lives in.  The function
f = phi(1-x) P_phi(x) is rational with denominator q, so the form of f with
a table function (row k of a Legendre or Soto-Andrade table over q) needs
no kernel: q^2 <f, row k / q> is the integer weights measure(a) q f(a)
times row -k, the conjugate of row k, and `f_forms` takes it for many k in
one product.  The expansion of f (`orthonormal_coefficient_squares`), the
psi margin (`f_coefficient_identity`) and the rank model's closed forms
read it, and ||f||^2 is one rational sum.

The Katz sum reads the q-1 Gauss sums g(omega_1^j) once (`gauss_table`): the
rows of an integer matrix and one verdict per row, g = -1 in row 0 and
g conj(g) = q in the others; omega only permutes the rows.  The sum over k
starts from the rows gathered at k + a_1 and takes one row-wise product
(`cyclotomic.row_products`) with the rows gathered at each further k + a_i
and -k - b_j: 2m - 1 products for m parameters.  Then come a rotation of
row k by the twist omega^k((-1)^m lambda), one reduction of the summed
rows, and one product with the k-independent inverse 1/prod g, read only
where every used row's verdict holds: row 0 of the product is prod g, so
the inverse is its conjugate (`cyclotomic.conjugate_rows`) over q^c, c the
number of nontrivial characters among the parameters.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import cyclotomic
from .cyclotomic import (
    CycNum,
    _canonical,
    conjugate_rows,
    exact_dtype,
    exact_product,
    max_abs,
    reduce_zeta_counts,
    row_products,
    zeta_terms,
)
from .errors import (
    ArityMismatchError,
    DomainMismatchError,
    IdentityViolationError,
    NotIntegralParametersError,
    TrivialCharacterError,
)
from .fields import FieldCtx, MultCharB, MultCharFq

MAX_HYPERGEOMETRIC_DEPTH = 4  # up to 4F3; nothing deeper is needed


def _greene_level(below: np.ndarray, mul: np.ndarray, e: np.ndarray) -> np.ndarray:
    """One level of Greene's recursion on a count table: new[t, j] is the sum
    over y = 2..q-1 of below[t*y, (j - e[y - 2]) mod (q-1)], row t*y rotated
    by the exponent e of the level's summand at y."""
    n = below.shape[1]
    y = np.arange(2, len(below))
    columns = (np.arange(n)[None, :] - e[:, None]) % n
    return below[mul[:, y][:, :, None], columns[None, :, :]].sum(axis=1)


class CharacterSums:
    """Evaluator with per-field caches for the sum families."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.q = ctx.q
        self._legendre_cache: dict[tuple[int, int], CycNum] = {}
        self._soto_cache: dict[tuple[int, int], CycNum] = {}
        self._tables: dict[int, np.ndarray] = {}  # conductor -> Legendre or Soto-Andrade table
        self._gauss: tuple[int, np.ndarray, np.ndarray] | None = None
        self._greene_tables: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[np.ndarray, Fraction]] = {}
        self._mu = np.array([self.measure(x) for x in range(self.q)], dtype=np.int64)
        self._f_weights: np.ndarray | None = None

    # -- the measure and the inner product ------------------------------------

    def measure(self, x: int) -> int:
        """Weight q+1 at +-1 and 1 elsewhere; total mass 3q."""
        ctx = self.ctx
        return self.q + 1 if x == 1 or x == ctx.neg(1) else 1

    def l2_inner(self, f1: list[CycNum], f2: list[CycNum]) -> CycNum:
        """Sum over x of measure(x) * f1(x) * conj(f2(x))."""
        return self._forms(f1, [f2])[0]

    def gram(self, functions: list[list[CycNum]]) -> tuple[int, np.ndarray, np.ndarray]:
        """(L, nums, dens): entry (i, j), l2_inner(functions[i], functions[j]),
        is nums[i, j] / dens[i, j], nums[i, j] its reduced numerators in
        Q(zeta_L), L the lcm of every conductor."""
        self._check_domain(functions)
        m, n = math.lcm(*(v.m for f in functions for v in f)), len(functions)
        terms, dens = zeta_terms(functions, m)
        dens = np.array(dens, dtype=object)
        return m, cyclotomic.hermitian_form(m, self._mu, terms, n, terms, n), np.outer(dens, dens)

    def _check_domain(self, functions: list[list[CycNum]]):
        if any(len(f) != self.q for f in functions):
            raise DomainMismatchError("functions must be indexed by the q field elements")

    def _forms(self, f: list[CycNum], functions: list[list[CycNum]]) -> list[CycNum]:
        """The form of f with each of functions.  The value with g lives in
        Q(zeta_c), c the lcm of the conductors at the points where neither f
        nor g vanishes.  The functions of one c go through the kernel in
        Q(zeta_c) together, each kept at the points where f is nonzero and f
        at the points where one of them is, so every conductor divides c."""
        self._check_domain([f, *functions])
        zero = CycNum.zero()
        live = np.array([[not v.is_zero() for v in g] for g in (f, *functions)])
        groups: dict[int, list[int]] = {}
        for s, g in enumerate(functions):
            both = np.flatnonzero(live[0] & live[s + 1])
            if both.size:
                groups.setdefault(math.lcm(*(h[x].m for h in (f, g) for x in both)), []).append(s)
        out = [zero] * len(functions)
        for c, members in groups.items():
            reach = live[0] & live[np.array(members) + 1].any(axis=0)
            x, (d,) = zeta_terms([[v if keep else zero for v, keep in zip(f, reach)]], c)
            y, dens = zeta_terms([[v if keep else zero for v, keep in zip(functions[s], live[0])] for s in members], c)
            nums = cyclotomic.hermitian_form(c, self._mu, x, 1, y, len(members))[0]
            for s, row, e in zip(members, nums, dens):
                out[s] = _canonical(c, tuple(row.tolist()), d * e)
        return out

    # -- Legendre and Soto-Andrade sums ----------------------------------------

    def legendre_table(self) -> np.ndarray:
        """[k, a]: the reduced numerators of q P_gamma(a), gamma of exponent k;
        built once.  Term x != 0 adds phi(x^2 - 2ax + 1) at zeta^(k log x)."""
        if self.q - 1 not in self._tables:
            add, mul, neg = self.ctx.arrays.add, self.ctx.arrays.mul, self.ctx.arrays.neg
            x, a = np.arange(1, self.q), np.arange(self.q)[:, None]
            args = add[add[mul[x, x], neg[mul[add[a, a], x]]], 1]
            self._tables[self.q - 1] = self._zeta_table(self.q - 1, self.ctx.arrays.log[x], args)
        return self._tables[self.q - 1]

    def soto_andrade_table(self) -> np.ndarray:
        """[k, a]: the reduced numerators of q R_beta(a), beta of exponent k;
        built once.  Coset representative r = gen2^j adds
        phi(Tr(r)^2 - 2(a+1) N(r)) at zeta^(k j)."""
        if self.q + 1 not in self._tables:
            ctx, q = self.ctx, self.q
            add, mul, neg = ctx.arrays.add, ctx.arrays.mul, ctx.arrays.neg
            r = ctx.arrays.exp2[: q + 1]
            trace, norm = ctx.arrays.trace2[r], ctx.arrays.norm2[r]
            args = add[mul[trace, trace], neg[mul[mul[ctx.embed_int(2), add[np.arange(q), 1]][:, None], norm]]]
            self._tables[q + 1] = self._zeta_table(q + 1, np.arange(q + 1), args)
        return self._tables[self.q + 1]

    def _zeta_table(self, m: int, logs: np.ndarray, args: np.ndarray) -> np.ndarray:
        """[k, a]: the reduced numerators of the sum over t of phi(args[a, t])
        zeta_m^(k logs[t]), for every k mod m: one bincount per sign over
        (k, a, k logs[t] mod m), each count at most the number of terms, then
        `reduce_zeta_counts`, whose dtype rule covers its sums."""
        rows = len(args)
        k = np.arange(m)[:, None, None]
        index = (k * rows + np.arange(rows)[:, None]) * m + k * logs % m
        sign = np.broadcast_to(self.ctx.arrays.phi[args], index.shape)
        size = m * rows * m
        counts = np.bincount(index[sign > 0], minlength=size) - np.bincount(index[sign < 0], minlength=size)
        return reduce_zeta_counts(m, counts.reshape(-1, m)).reshape(m, rows, -1)

    def legendre_sum(self, gamma: MultCharFq, a: int) -> CycNum:
        self.ctx.check_char(gamma)
        key = (gamma.exponent, a)
        val = self._legendre_cache.get(key)
        if val is None:
            self.ctx.check_element(a)
            row = tuple(self.legendre_table()[key].tolist())  # q P_gamma(a), so the value is row / q
            val = self._legendre_cache[key] = _canonical(self.q - 1, row, self.q)
        return val

    def legendre_phi(self, a: int) -> Fraction:
        """P_phi(a) as an exact rational (the quadratic-character Legendre sum)."""
        return self.legendre_sum(self.ctx.quadratic_char(), a).as_fraction()

    def soto_andrade_sum(self, beta: MultCharB, a: int) -> CycNum:
        self.ctx.check_char(beta)
        key = (beta.exponent, a)
        val = self._soto_cache.get(key)
        if val is None:
            self.ctx.check_element(a)
            row = tuple(self.soto_andrade_table()[key].tolist())
            val = self._soto_cache[key] = _canonical(self.q + 1, row, self.q)
        return val

    # -- the orthogonal basis ----------------------------------------------------

    def _basis_elements(self) -> list[tuple[str, MultCharFq | MultCharB, Fraction]]:
        """(name, character, expected squared norm) for each basis element,
        in `orthogonal_basis` order: q times the element is the character's
        row of the Legendre or the Soto-Andrade table, less q-1 for
        P_eps_shifted."""
        ctx, q = self.ctx, self.q
        return [
            ("P_eps_shifted", ctx.trivial_char(), Fraction(q * q - 1, q)),
            ("P_phi", ctx.quadratic_char(), Fraction(q * q - 1, q * q)),
            *((f"P_gamma[{gamma.exponent}]", gamma, Fraction(q - 1, q)) for gamma in ctx.gamma_set()),
            *((f"R_beta[{beta.exponent}]", beta, Fraction(q + 1, q)) for beta in ctx.beta_set()),
        ]

    def orthogonal_basis(self) -> list[tuple[str, list[CycNum], Fraction]]:
        """(name, values over F_q, expected squared norm) for each basis element:
        the shifted trivial sum, P_phi, the P_gamma and the R_beta."""
        q = self.q
        shift = Fraction(q - 1, q)
        out = []
        for name, char, norm_sq in self._basis_elements():
            if isinstance(char, MultCharB):
                values = [self.soto_andrade_sum(char, a) for a in range(q)]
            elif char.is_trivial():
                values = [self.legendre_sum(char, a) - shift for a in range(q)]
            else:
                values = [self.legendre_sum(char, a) for a in range(q)]
            out.append((name, values, norm_sq))
        return out

    # -- hypergeometric sums -------------------------------------------------------

    def _greene_table(self, upper: tuple[int, ...], lower: tuple[int, ...]) -> tuple[np.ndarray, Fraction]:
        """The q x (q-1) count table of the hypergeometric sum with these upper
        and lower exponents, whose row t counts the zeta_(q-1) powers of its
        sum at t, and the scale: (A B)(-1)/q per level.

        The 2F1 base sums g1(y) (g2/g1)(1-y) g0^(-1)(1-ty) over y, with g_i of
        exponent k_i; row 0 is zero, where eps(t) vanishes.  A level with
        exponents (ka, kb) adds, over y, row t*y of the table below rotated by
        the exponent e(y) of A(y) (B/A)(1-y)."""
        key = (upper, lower)
        hit = self._greene_tables.get(key)
        if hit is None:
            q = self.q
            n = q - 1
            arrays = self.ctx.arrays
            log, mul = arrays.log, arrays.mul
            one_minus = arrays.add[1, arrays.neg]  # y -> 1 - y
            ka, kb = upper[-1], lower[-1]
            if len(upper) == 2:
                k0 = upper[0]
                t = np.arange(q)[:, None]
                y = np.arange(q)[None, :]
                one_minus_ty = one_minus[mul]
                live = (t != 0) & (y != 0) & (one_minus[y] != 0) & (one_minus_ty != 0)
                e = (ka * log[y] + (kb - ka) * log[one_minus[y]] - k0 * log[one_minus_ty]) % n
                table = np.bincount((t * n + e)[live], minlength=q * n).reshape(q, n)
                scale = Fraction(1)
            else:
                below, scale = self._greene_table(upper[:-1], lower[:-1])
                y = np.arange(2, q)  # y = 0 and y = 1 (1 - y = 0) are where every character vanishes
                table = _greene_level(below, mul, (ka * log[y] + (kb - ka) * log[one_minus[y]]) % n)
            sign = -1 if (ka + kb) * (n // 2) % n else 1  # (A B)(-1)
            hit = self._greene_tables[key] = (table, scale * Fraction(sign, q))
        return hit

    def greene_table(self, upper: list[MultCharFq], lower: list[MultCharFq]) -> tuple[np.ndarray, Fraction]:
        """Greene's (n+1)Fn with these characters as its q x (q-1) count table
        and scale: the value at x is row x, read as powers of zeta_(q-1),
        times the scale.  Cached per tuple of exponents."""
        if len(upper) != len(lower) + 1 or len(upper) < 2:
            raise ArityMismatchError("need n+1 upper and n lower parameters, n >= 1")
        if len(upper) > MAX_HYPERGEOMETRIC_DEPTH:
            raise ArityMismatchError(f"depth limited to {MAX_HYPERGEOMETRIC_DEPTH}F{MAX_HYPERGEOMETRIC_DEPTH - 1}")
        for char in (*upper, *lower):
            self.ctx.check_char(char)
        return self._greene_table(tuple([c.exponent for c in upper]), tuple([c.exponent for c in lower]))

    def _hypergeometric(self, upper: list[MultCharFq], lower: list[MultCharFq], x: int) -> CycNum:
        """Row x of the count table, times its scale."""
        self.ctx.check_element(x)
        table, scale = self.greene_table(upper, lower)
        return CycNum.from_zeta_powers(self.q - 1, table[x].tolist(), scale)

    def greene_2f1(self, g0: MultCharFq, g1: MultCharFq, g2: MultCharFq, x: int) -> CycNum:
        """eps(x) * (g1 g2)(-1)/q * sum over y of g1(y) (g2/g1)(1-y) g0^(-1)(1-xy)."""
        return self._hypergeometric([g0, g1], [g2], x)

    def greene_nfn(self, upper: list[MultCharFq], lower: list[MultCharFq], x: int) -> CycNum:
        """Greene's (n+1)Fn at x, defined inductively from the 2F1 base case:
        a level adds, over y, the level below at t*y times A(y) (B/A)(1-y),
        and (A B)(-1)/q."""
        return self._hypergeometric(upper, lower, x)

    def katz_h(
        self,
        alpha: list[Fraction],
        beta: list[Fraction],
        lam: int = 1,
        omega_exponent: int = 1,
    ) -> CycNum:
        """Gauss-sum normalized hypergeometric sum H_q(alpha, beta; lambda).

        Both parameter lists must have the same length m >= 1, and every
        (q-1)*alpha_i and (q-1)*beta_j must be an integer, so the characters
        omega^((q-1)alpha) are defined.  omega is the character of exponent
        omega_exponent (coprime to q-1) with respect to the field generator;
        the value does not depend on this choice.  The twist argument is
        (-1)^m * lambda.
        """
        ctx = self.ctx
        q = self.q
        ctx.check_element(lam)
        if len(alpha) != len(beta) or not alpha:
            raise ArityMismatchError("alpha and beta must be nonempty and of equal length")
        if math.gcd(omega_exponent, q - 1) != 1:
            raise ValueError("omega_exponent must be coprime to q - 1")
        exps = []
        for val in [*alpha, *beta]:
            scaled = Fraction(val) * (q - 1)
            if scaled.denominator != 1:
                raise NotIntegralParametersError(f"(q-1)*{val} is not an integer")
            exps.append(int(scaled) % (q - 1))
        a_exps, b_exps = exps[: len(alpha)], exps[len(alpha) :]

        twist = lam if len(alpha) % 2 == 0 else ctx.neg(lam)
        if twist == 0:
            return CycNum.zero()  # omega^k(0) = 0 under the zero convention
        m, rows, holds = self.gauss_table()
        n = q - 1
        # row k: the product over the parameters of g(omega^(k+a)) and g(omega^(-k-b))
        k = np.arange(n)
        exponents = [k + ae for ae in a_exps] + [-k - be for be in b_exps]
        product = rows[(exponents[0] * omega_exponent) % n]
        for j in exponents[1:]:
            product = row_products(m, product, rows[(j * omega_exponent) % n])
        # the k-independent factor 1/prod g is conj(product row 0)/q^c, c the
        # number of nontrivial characters: g conj(g) = q, and g = -1 for the
        # trivial one; 1/(1-q) is -1/(q-1)
        used = [(j * omega_exponent) % n for j in a_exps + [-be for be in b_exps]]
        for j in used:
            if not holds[j]:
                raise IdentityViolationError(f"Gauss sum g({j}) times its claimed inverse is not 1")
        inverse, den = conjugate_rows(m, product[:1]), (q - 1) * q ** sum(1 for j in used if j)
        # omega^k(twist) = zeta_(q-1)^(e_k): row k rotates by e_k m/(q-1) in Z/m
        e = (omega_exponent * ctx.log[twist] * k) % n * (m // n)
        counts = np.zeros((1, m), dtype=exact_dtype(n * max_abs(product)))
        np.add.at(counts[0], (e[:, None] + np.arange(rows.shape[1])) % m, product)
        total = row_products(m, reduce_zeta_counts(m, counts), inverse)[0]
        return _canonical(m, tuple([-c for c in total.tolist()]), den)

    def gauss_table(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(m, rows, holds), built once: row j of rows holds the reduced
        numerators in Q(zeta_m) of g(omega_1^j), omega_1 the character of
        exponent 1; exponent s permutes the rows, j -> s*j.  holds[j]:
        g = -1 if j = 0, else g conj(g) = q."""
        if self._gauss is None:
            ctx, q = self.ctx, self.q
            sums = [ctx.gauss_sum(ctx.fq_char(j)) for j in range(q - 1)]
            m = sums[0].m
            if any(g.m != m or g.den != 1 for g in sums):
                raise IdentityViolationError("Gauss sums are not algebraic integers of one conductor")
            rows = np.array([g.nums for g in sums], dtype=np.int64)
            conjugates = conjugate_rows(m, rows)
            unit = np.eye(1, rows.shape[1], dtype=np.int64)[0]
            holds = np.empty(q - 1, dtype=bool)
            holds[0] = (rows[0] == -unit).all()
            holds[1:] = (row_products(m, rows[1:], conjugates[1:]) == q * unit).all(axis=1)
            self._gauss = (m, rows, holds)
        return self._gauss

    def f43_deviation_bound(self, n: int) -> tuple[Fraction, int, bool]:
        """For an order-n character gamma (n in {2,3,4,6}, q = 1 mod n), the
        squared deviation |q^3 * 4F3(gamma, 1/gamma, phi, phi; eps, eps, eps; 1)
        + phi(-1)gamma(-1) q|^2 as an exact rational, the bound 4q^3, and
        whether the bound holds."""
        ctx = self.ctx
        q = self.q
        if (q - 1) % n:
            raise ValueError(f"no order-{n} character exists for q = {q}")
        gamma = ctx.fq_char((q - 1) // n)
        phi = ctx.quadratic_char()
        eps = ctx.trivial_char()
        f43 = self.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1)
        sign = ctx.phi_int(ctx.neg(1)) * (-1 if gamma.exponent % 2 else 1)
        z = f43 * (q**3) + sign * q
        w = (z * z.conjugate()).as_fraction()
        return w, 4 * q**3, w <= 4 * q**3

    # -- the function f and its expansion ----------------------------------------

    def f_vector(self) -> list[CycNum]:
        """f(x) = phi(1-x) * P_phi(x), a rational-valued function on F_q."""
        ctx = self.ctx
        phi = ctx.quadratic_char()
        return [
            self.legendre_sum(phi, x) * ctx.phi_int(ctx.sub(1, x)) for x in range(self.q)
        ]

    def f_weights(self) -> np.ndarray:
        """measure(a) * q * f(a) for every a, integers since f has
        denominator q; built once."""
        if self._f_weights is None:
            q = self.q
            self._f_weights = self._mu * np.array([int(v.as_fraction() * q) for v in self.f_vector()], dtype=np.int64)
        return self._f_weights

    def f_forms(self, table: np.ndarray, ks, extra: int = 0) -> np.ndarray:
        """Row i: the reduced numerators of q^2 <f, g>, g = row ks[i] of a
        Legendre or Soto-Andrade table over q, in the table's conductor.  It
        is the weights (`f_weights`) times the rows -ks[i], the conjugates of
        the rows ks[i]: one integer product, in the dtype `exact_product`
        picks with extra as there."""
        return exact_product(self.f_weights(), table[-np.asarray(ks) % len(table)], extra)

    def f_norm_squared(self) -> Fraction:
        """The sum over a of measure(a) f(a)^2, f being rational."""
        return sum((self.measure(a) * v.as_fraction() ** 2 for a, v in enumerate(self.f_vector())), Fraction(0))

    def orthonormal_coefficient_squares(self) -> list[tuple[str, CycNum]]:
        """Squares of the coefficients of f in the orthonormalized basis,
        i.e. <f, b>^2 / ||b||^2 per basis element, in `orthogonal_basis`
        order.  Each coefficient is real; the squares sum to ||f||^2.  The
        forms are one `f_forms` product per table; the shift (q-1)/q of
        P_eps_shifted takes q-1 times the sum of the weights off its form."""
        q = self.q
        elements = self._basis_elements()
        tables = {MultCharFq: self.legendre_table(), MultCharB: self.soto_andrade_table()}
        forms = {
            family: iter(self.f_forms(table, [char.exponent for _, char, _ in elements if type(char) is family]))
            for family, table in tables.items()
        }
        out = []
        for name, char, norm_sq in elements:
            nums = next(forms[type(char)]).tolist()
            if name == "P_eps_shifted":
                nums[0] -= (q - 1) * int(self.f_weights().sum())
            c = _canonical(len(tables[type(char)]), tuple(nums), q * q)
            if not c.is_real():
                raise IdentityViolationError(f"coefficient <f, {name}> is not real")
            out.append((name, c * c * (Fraction(1) / norm_sq)))
        return out

    def f_coefficient_identity(self, gamma: MultCharFq) -> tuple[CycNum, CycNum]:
        """Both sides of phi(2) q^2 <f, P_gamma> =
        q^3 * 4F3(gamma, 1/gamma, phi, phi; eps, eps, eps; 1) + phi(-1)gamma(-1) q."""
        if gamma.is_trivial():
            raise TrivialCharacterError("gamma must be nontrivial")
        ctx = self.ctx
        q = self.q
        phi = ctx.quadratic_char()
        eps = ctx.trivial_char()
        form = self.f_forms(self.legendre_table(), [gamma.exponent])[0] * ctx.phi_int(ctx.embed_int(2))
        lhs = _canonical(q - 1, tuple(form.tolist()), 1)
        sign = ctx.phi_int(ctx.neg(1)) * (-1 if gamma.exponent % 2 else 1)
        rhs = self.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1) * q**3 + sign * q
        return lhs, rhs
