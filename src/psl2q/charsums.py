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
by a single `CycNum.from_zeta_powers` call.  Greene's inductive step
rotates count vectors, which live in Z[x]/(x^(q-1) - 1), a ring mapping
onto Q(zeta_(q-1)).  The Soto-Andrade summand is constant on the cosets
r * GF(q)* (trace and norm scale by u and u^2, beta is trivial on GF(q)*),
so R_beta walks the q+1 coset representatives gen2^j.

The weighted Hermitian form works on numerators too: numerator i of f1(x)
times numerator j of f2(x), weighted by the measure at x, counts at
zeta_L^(i L/m1 - j L/m2), with m1, m2 the conductors of f1, f2 and
L = lcm(m1, m2); the minus sign is the complex conjugation of f2.  So the
form is one integer matrix product, one count vector over Z/L and one
reduction, with no per-point product.  The Katz sum holds the q-1 Gauss sums
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

    # -- the measure and the inner product ------------------------------------

    def measure(self, x: int) -> int:
        """Weight q+1 at +-1 and 1 elsewhere; total mass 3q."""
        ctx = self.ctx
        return self.q + 1 if x == 1 or x == ctx.neg(1) else 1

    def l2_inner(self, f1: list[CycNum], f2: list[CycNum]) -> CycNum:
        """Sum over x of measure(x) * f1(x) * conj(f2(x)).  Numerator i of f1(x)
        times numerator j of f2(x) counts at zeta_L^(i L/m1 - j L/m2), with m1,
        m2 the conductors of f1, f2 and L = lcm(m1, m2); one reduction at the end."""
        if len(f1) != self.q or len(f2) != self.q:
            raise DomainMismatchError("functions must be indexed by the q field elements")
        points = [x for x in range(self.q) if not (f1[x].is_zero() or f2[x].is_zero())]
        if not points:
            return CycNum.zero()
        m1, d1, a = _numerators([f1[x] for x in points])
        m2, d2, b = _numerators([f2[x] for x in points])
        mu = [self.measure(x) for x in points]
        dtype = exact_dtype(sum(mu) * a.shape[1] * b.shape[1] * max_abs(a) * max_abs(b))
        a = a.astype(dtype) * np.array(mu, dtype=dtype)[:, None]
        products = a.T @ b.astype(dtype)  # sum over x of mu * a_i * b_j
        big = math.lcm(m1, m2)
        i = np.arange(a.shape[1])[:, None] * (big // m1)
        j = np.arange(b.shape[1])[None, :] * (big // m2)
        counts = np.zeros(big, dtype=dtype)
        np.add.at(counts, (i - j) % big, products)
        return CycNum.from_zeta_powers(big, counts.tolist(), Fraction(1, d1 * d2))

    def _check_element(self, x: int) -> None:
        if not 0 <= x < self.q:
            raise DomainMismatchError(f"{x!r} is not an element of GF({self.q}), i.e. not in 0..{self.q - 1}")

    # -- Legendre and Soto-Andrade sums ----------------------------------------

    def legendre_sum(self, gamma: MultCharFq, a: int) -> CycNum:
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

    def _2f1_counts(self, k0: int, k1: int, k2: int, x: int) -> list[int]:
        """Counts of each zeta_(q-1) power in the sum over y of
        g1(y) (g2/g1)(1-y) g0^(-1)(1-xy), with g_i of exponent k_i; all zero
        at x = 0, where eps(x) vanishes."""
        ctx = self.ctx
        q = self.q
        vec = [0] * (q - 1)
        if x == 0:
            return vec
        for y in range(q):
            one_minus_y = ctx.sub(1, y)
            one_minus_xy = ctx.sub(1, ctx.mul(x, y))
            if y == 0 or one_minus_y == 0 or one_minus_xy == 0:
                continue
            e = (k1 * ctx.log[y] + (k2 - k1) * ctx.log[one_minus_y] - k0 * ctx.log[one_minus_xy]) % (q - 1)
            vec[e] += 1
        return vec

    def _level_sign(self, ka: int, kb: int) -> int:
        """(A B)(-1) for characters of exponents ka and kb."""
        return -1 if (ka + kb) * ((self.q - 1) // 2) % (self.q - 1) else 1

    def greene_2f1(self, g0: MultCharFq, g1: MultCharFq, g2: MultCharFq, x: int) -> CycNum:
        """eps(x) * (g1 g2)(-1)/q * sum over y of g1(y) (g2/g1)(1-y) g0^(-1)(1-xy)."""
        self._check_element(x)
        q = self.q
        vec = self._2f1_counts(g0.exponent, g1.exponent, g2.exponent, x)
        sign = self._level_sign(g1.exponent, g2.exponent)
        return CycNum.from_zeta_powers(q - 1, vec, Fraction(sign, q))

    def greene_nfn(self, upper: list[MultCharFq], lower: list[MultCharFq], x: int) -> CycNum:
        """Greene's (n+1)Fn at x, defined inductively from the 2F1 base case:
        a level adds, over y, the counts of the level below at t*y rotated by
        the exponent e(y) of A(y) (B/A)(1-y); its sign (A B)(-1)/q joins scale."""
        if len(upper) != len(lower) + 1 or len(upper) < 2:
            raise ArityMismatchError("need n+1 upper and n lower parameters, n >= 1")
        if len(upper) > MAX_HYPERGEOMETRIC_DEPTH:
            raise ArityMismatchError(f"depth limited to {MAX_HYPERGEOMETRIC_DEPTH}F{MAX_HYPERGEOMETRIC_DEPTH - 1}")
        self._check_element(x)
        ctx = self.ctx
        q = self.q
        n = q - 1
        k0, k1, k2 = upper[0].exponent, upper[1].exponent, lower[0].exponent
        table = [self._2f1_counts(k0, k1, k2, t) for t in range(q)]
        scale = Fraction(self._level_sign(k1, k2), q)
        for level in range(2, len(upper)):
            ka, kb = upper[level].exponent, lower[level - 1].exponent
            scale *= Fraction(self._level_sign(ka, kb), q)
            rotations = [
                (y, (ka * ctx.log[y] + (kb - ka) * ctx.log[ctx.sub(1, y)]) % n)
                for y in range(2, q)  # y = 1 has 1 - y = 0, where every character vanishes
            ]
            new = []
            for t in range(q):
                acc = [0] * n
                for y, e in rotations:
                    for j, c in enumerate(table[ctx.mul(t, y)]):
                        if c:
                            acc[(j + e) % n] += c
                new.append(acc)
            table = new
        return CycNum.from_zeta_powers(n, table[x], scale)

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
