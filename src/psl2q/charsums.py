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
the exponent of the level's summand at y; a value reads and reduces one row.
The Soto-Andrade summand is constant on the cosets r * GF(q)* (trace and
norm scale by u and u^2, beta is trivial on GF(q)*), so R_beta walks the
q+1 coset representatives gen2^j.

The weighted Hermitian form works on numerators too: numerator i of f1(x)
times numerator j of f2(x), weighted by the measure at x, counts at
zeta_L^(i L/m1 - j L/m2), with m1, m2 the conductors of f1, f2 and
L = lcm(m1, m2); the minus sign is the complex conjugation of f2.  So the
form is one integer matrix product, one scatter into a count vector over
Z/L and one reduction, with no per-point product.  `gram` builds each
function's numerator matrix once and runs that kernel on every ordered pair;
`l2_inner` is its one-pair case.  The Katz sum holds the q-1 Gauss sums
g(omega_1^j) once, as the rows of an integer matrix; the choice of omega only
permutes the rows.  Its sum over k is one row-wise product
(`cyclotomic.row_products`) per parameter on the rows gathered at k + a_i and
-k - b_j, a rotation of row k by the twist omega^k((-1)^m lambda), one
reduction of the summed rows, and one product with the k-independent inverses
of the g(omega^(a_i)) and g(omega^(-b_j)), each checked against its Gauss sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclotomic import CycNum, exact_dtype, max_abs, row_products
from .errors import (
    ArityMismatchError,
    DomainMismatchError,
    IdentityViolationError,
    NotIntegralParametersError,
    TrivialCharacterError,
)
from .fields import FieldCtx, MultCharB, MultCharFq

MAX_HYPERGEOMETRIC_DEPTH = 4  # up to 4F3; nothing deeper is needed


def _numerators(values: list[CycNum]) -> tuple[int, int, np.ndarray]:
    """(m, d, rows) with m the lcm of the conductors and d the lcm of the
    denominators: row r holds d * values[r] in Z[x]/(x^m - 1), numerator i of
    a value of conductor m_r at column i * m/m_r."""
    m = math.lcm(*(v.m for v in values))
    d = math.lcm(*(v.den for v in values))
    rows = np.zeros((len(values), max((len(v.nums) - 1) * (m // v.m) + 1 for v in values)), dtype=object)
    for r, v in enumerate(values):
        rows[r, :: m // v.m][: len(v.nums)] = v.nums
    return m, d, rows * np.array([d // v.den for v in values], dtype=object)[:, None]


class CharacterSums:
    """Evaluator with per-field caches for the sum families."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.q = ctx.q
        self._legendre_cache: dict[tuple[int, int], CycNum] = {}
        self._soto_cache: dict[tuple[int, int], CycNum] = {}
        self._gauss: tuple[int, np.ndarray] | None = None
        self._gauss_inv: dict[int, CycNum] = {}
        self._greene_tables: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[np.ndarray, Fraction]] = {}
        self._mu = np.array([self.measure(x) for x in range(self.q)], dtype=np.int64)

    # -- the measure and the inner product ------------------------------------

    def measure(self, x: int) -> int:
        """Weight q+1 at +-1 and 1 elsewhere; total mass 3q."""
        ctx = self.ctx
        return self.q + 1 if x == 1 or x == ctx.neg(1) else 1

    def l2_inner(self, f1: list[CycNum], f2: list[CycNum]) -> CycNum:
        """Sum over x of measure(x) * f1(x) * conj(f2(x)): `gram` on one pair."""
        return self._form(self._operand(f1), self._operand(f2))

    def gram(self, functions: list[list[CycNum]]) -> list[list[CycNum]]:
        """Entry (i, j) is l2_inner(functions[i], functions[j]), equal to it in
        (m, nums, den); each function's numerators are built once."""
        operands = [self._operand(f) for f in functions]
        return [[self._form(a, b) for b in operands] for a in operands]

    def _operand(self, f: list[CycNum]) -> tuple:
        """(m, d, rows, weighted rows transposed, conductor per point (0 where
        f vanishes), largest |numerator|) of a function on F_q, with m, d and
        rows its `_numerators`."""
        if len(f) != self.q:
            raise DomainMismatchError("functions must be indexed by the q field elements")
        m, d, rows = _numerators(f)
        top = max_abs(rows)
        rows = rows.astype(exact_dtype((self.q + 1) * top))
        conductors = np.array([0 if v.is_zero() else v.m for v in f], dtype=np.int64)
        return m, d, rows, (rows * self._mu.astype(rows.dtype)[:, None]).T, conductors, top

    def _form(self, left: tuple, right: tuple) -> CycNum:
        """The form on two operands.  Numerator i of f1(x) times numerator j of
        f2(x) counts at zeta_L^(i L/m1 - j L/m2), L = lcm(m1, m2); the value
        lives in Q(zeta_c), c the lcm of the conductors at the points where
        neither function vanishes, so the counts sit at multiples of L/c."""
        m1, d1, _, a_t, c1, top1 = left
        m2, d2, b, _, c2, top2 = right
        both = (c1 > 0) & (c2 > 0)
        if not both.any():
            return CycNum.zero()
        dtype = exact_dtype(3 * self.q * a_t.shape[0] * b.shape[1] * top1 * top2)
        products = a_t.astype(dtype, copy=False) @ b.astype(dtype, copy=False)  # sum over x of mu * a_i * b_j
        big = math.lcm(m1, m2)
        i = np.arange(a_t.shape[0])[:, None] * (big // m1)
        j = np.arange(b.shape[1])[None, :] * (big // m2)
        counts = np.zeros(big, dtype=dtype)
        np.add.at(counts, (i - j) % big, products)
        conductor = int(np.lcm.reduce(np.lcm(c1[both], c2[both])))
        return CycNum.from_zeta_powers(conductor, counts[:: big // conductor].tolist(), Fraction(1, d1 * d2))

    def _check_element(self, x: int) -> None:
        if not 0 <= x < self.q:
            raise DomainMismatchError(f"{x!r} is not an element of GF({self.q}), i.e. not in 0..{self.q - 1}")

    # -- Legendre and Soto-Andrade sums ----------------------------------------

    def legendre_sum(self, gamma: MultCharFq, a: int) -> CycNum:
        self.ctx.check_char(gamma)
        key = (gamma.exponent, a)
        val = self._legendre_cache.get(key)
        if val is None:
            self._check_element(a)
            ctx = self.ctx
            q = self.q
            two_a = ctx.add(a, a)
            vec = [0] * (q - 1)
            for x in range(1, q):
                arg = ctx.add(ctx.sub(ctx.mul(x, x), ctx.mul(two_a, x)), 1)
                s = ctx.phi_int(arg)
                if s:
                    vec[(gamma.exponent * ctx.log[x]) % (q - 1)] += s
            val = CycNum.from_zeta_powers(q - 1, vec, Fraction(1, q))
            self._legendre_cache[key] = val
        return val

    def legendre_phi(self, a: int) -> Fraction:
        """P_phi(a) as an exact rational (the quadratic-character Legendre sum)."""
        return self.legendre_sum(self.ctx.quadratic_char(), a).as_fraction()

    def soto_andrade_sum(self, beta: MultCharB, a: int) -> CycNum:
        self.ctx.check_char(beta)
        key = (beta.exponent, a)
        val = self._soto_cache.get(key)
        if val is None:
            self._check_element(a)
            ctx = self.ctx
            q = self.q
            factor = ctx.mul(ctx.embed_int(2), ctx.add(a, 1))
            vec = [0] * (q + 1)
            # gen2^j for j = 0..q: one term per coset of GF(q)*, q-1 terms each
            for j in range(q + 1):
                r = ctx.exp2[j]
                tr = ctx.q2_trace(r)
                arg = ctx.sub(ctx.mul(tr, tr), ctx.mul(factor, ctx.q2_norm(r)))
                s = ctx.phi_int(arg)
                if s:
                    vec[(beta.exponent * j) % (q + 1)] += s
            val = CycNum.from_zeta_powers(q + 1, vec, Fraction(1, q))
            self._soto_cache[key] = val
        return val

    # -- the orthogonal basis ----------------------------------------------------

    def orthogonal_basis(self) -> list[tuple[str, list[CycNum], Fraction]]:
        """(name, values over F_q, expected squared norm) for each basis element:
        the shifted trivial sum, P_phi, the P_gamma and the R_beta."""
        ctx = self.ctx
        q = self.q
        eps = ctx.trivial_char()
        shift = Fraction(q - 1, q)
        out = [
            (
                "P_eps_shifted",
                [self.legendre_sum(eps, a) - shift for a in range(q)],
                Fraction(q * q - 1, q),
            ),
            (
                "P_phi",
                [self.legendre_sum(ctx.quadratic_char(), a) for a in range(q)],
                Fraction(q * q - 1, q * q),
            ),
        ]
        for gamma in ctx.gamma_set():
            out.append(
                (
                    f"P_gamma[{gamma.exponent}]",
                    [self.legendre_sum(gamma, a) for a in range(q)],
                    Fraction(q - 1, q),
                )
            )
        for beta in ctx.beta_set():
            out.append(
                (
                    f"R_beta[{beta.exponent}]",
                    [self.soto_andrade_sum(beta, a) for a in range(q)],
                    Fraction(q + 1, q),
                )
            )
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
                e = (ka * log[y] + (kb - ka) * log[one_minus[y]]) % n
                # new[t, j] = sum over y of below[t*y, (j - e(y)) mod (q-1)]
                columns = (np.arange(n)[None, :] - e[:, None]) % n
                table = below[mul[:, y][:, :, None], columns[None, :, :]].sum(axis=1)
            sign = -1 if (ka + kb) * (n // 2) % n else 1  # (A B)(-1)
            hit = self._greene_tables[key] = (table, scale * Fraction(sign, q))
        return hit

    def _hypergeometric(self, upper: list[MultCharFq], lower: list[MultCharFq], x: int) -> CycNum:
        """Row x of the count table, times its scale."""
        for char in (*upper, *lower):
            self.ctx.check_char(char)
        self._check_element(x)
        table, scale = self._greene_table(tuple([c.exponent for c in upper]), tuple([c.exponent for c in lower]))
        return CycNum.from_zeta_powers(self.q - 1, table[x].tolist(), scale)

    def greene_2f1(self, g0: MultCharFq, g1: MultCharFq, g2: MultCharFq, x: int) -> CycNum:
        """eps(x) * (g1 g2)(-1)/q * sum over y of g1(y) (g2/g1)(1-y) g0^(-1)(1-xy)."""
        return self._hypergeometric([g0, g1], [g2], x)

    def greene_nfn(self, upper: list[MultCharFq], lower: list[MultCharFq], x: int) -> CycNum:
        """Greene's (n+1)Fn at x, defined inductively from the 2F1 base case:
        a level adds, over y, the level below at t*y times A(y) (B/A)(1-y),
        and (A B)(-1)/q."""
        if len(upper) != len(lower) + 1 or len(upper) < 2:
            raise ArityMismatchError("need n+1 upper and n lower parameters, n >= 1")
        if len(upper) > MAX_HYPERGEOMETRIC_DEPTH:
            raise ArityMismatchError(f"depth limited to {MAX_HYPERGEOMETRIC_DEPTH}F{MAX_HYPERGEOMETRIC_DEPTH - 1}")
        return self._hypergeometric(upper, lower, x)

    def katz_h(
        self,
        alpha: list[Fraction],
        beta: list[Fraction],
        lam: int = 1,
        omega_exponent: int = 1,
    ) -> CycNum:
        """Gauss-sum normalized hypergeometric sum H_q(alpha, beta; lambda).

        Both parameter lists must have the same length m, and every
        (q-1)*alpha_i and (q-1)*beta_j must be an integer, so the characters
        omega^((q-1)alpha) are defined.  omega is the character of exponent
        omega_exponent (coprime to q-1) with respect to the field generator;
        the value does not depend on this choice.  The twist argument is
        (-1)^m * lambda.
        """
        ctx = self.ctx
        q = self.q
        if len(alpha) != len(beta):
            raise ArityMismatchError("alpha and beta must have equal length")
        if math.gcd(omega_exponent, q - 1) != 1:
            raise ValueError("omega_exponent must be coprime to q - 1")
        a_exps = []
        b_exps = []
        for val in alpha:
            scaled = Fraction(val) * (q - 1)
            if scaled.denominator != 1:
                raise NotIntegralParametersError(f"(q-1)*{val} is not an integer")
            a_exps.append(int(scaled) % (q - 1))
        for val in beta:
            scaled = Fraction(val) * (q - 1)
            if scaled.denominator != 1:
                raise NotIntegralParametersError(f"(q-1)*{val} is not an integer")
            b_exps.append(int(scaled) % (q - 1))

        m_count = len(alpha)
        twist = lam if m_count % 2 == 0 else ctx.neg(lam)
        if twist == 0:
            return CycNum.zero()  # omega^k(0) = 0 under the zero convention
        m, rows = self._gauss_table()
        n = q - 1
        # row k: the product over the parameters of g(omega^(k+a)) and g(omega^(-k-b))
        k = np.arange(n)
        product = np.zeros(rows.shape, dtype=np.int64)
        product[:, 0] = 1
        for j in [k + ae for ae in a_exps] + [-k - be for be in b_exps]:
            product = row_products(m, product, rows[(j * omega_exponent) % n])
        inverses = CycNum.rational(1)  # the k-independent factors
        for j in a_exps + [-be for be in b_exps]:
            inverses = inverses * self._gauss_inverse((j * omega_exponent) % n)
        # omega^k(twist) = zeta_(q-1)^(e_k): row k rotates by e_k m/(q-1) in Z/m
        e = (omega_exponent * ctx.log[twist] * k) % n * (m // n)
        counts = np.zeros(m, dtype=object)
        np.add.at(counts, (e[:, None] + np.arange(rows.shape[1])) % m, product.astype(object))
        return CycNum.from_zeta_powers(m, counts.tolist()) * inverses * Fraction(1, 1 - q)

    def _gauss_table(self) -> tuple[int, np.ndarray]:
        """The conductor m of the Gauss sums and the integer matrix whose row j
        holds the reduced numerators of g(omega_1^j), omega_1 the character of
        exponent 1; the character of exponent s permutes the rows, j -> s*j."""
        if self._gauss is None:
            ctx = self.ctx
            sums = [ctx.gauss_sum(ctx.fq_char(j)) for j in range(self.q - 1)]
            m = sums[0].m
            if any(g.m != m or g.den != 1 for g in sums):
                raise IdentityViolationError("Gauss sums are not algebraic integers of one conductor")
            self._gauss = (m, np.array([g.nums for g in sums], dtype=np.int64))
        return self._gauss

    def _gauss_inverse(self, j: int) -> CycNum:
        """1 / g(omega_1^j), checked against g."""
        inv = self._gauss_inv.get(j)
        if inv is None:
            m, rows = self._gauss_table()
            g = CycNum(m, tuple(rows[j].tolist()))
            if j == 0:
                inv = CycNum.rational(-1)  # g(trivial) = -1
            else:
                inv = g.conjugate() * Fraction(1, self.q)  # |g|^2 = q for nontrivial
            if g * inv != 1:
                raise IdentityViolationError(f"Gauss sum g({j}) times its claimed inverse is not 1")
            self._gauss_inv[j] = inv
        return inv

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

    def f_norm_squared(self) -> Fraction:
        f = self.f_vector()
        return self.l2_inner(f, f).as_fraction()

    def orthonormal_coefficient_squares(self) -> list[tuple[str, CycNum]]:
        """Squares of the coefficients of f in the orthonormalized basis,
        i.e. <f, b>^2 / ||b||^2 per basis element.  Each coefficient is real;
        the squares sum to ||f||^2."""
        f = self.f_vector()
        out = []
        for name, vec, norm_sq in self.orthogonal_basis():
            c = self.l2_inner(f, vec)
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
        f = self.f_vector()
        p_gamma = [self.legendre_sum(gamma, a) for a in range(q)]
        lhs = self.l2_inner(f, p_gamma) * (ctx.phi_int(ctx.embed_int(2)) * q * q)
        sign = ctx.phi_int(ctx.neg(1)) * (-1 if gamma.exponent % 2 else 1)
        rhs = self.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1) * q**3 + sign * q
        return lhs, rhs
