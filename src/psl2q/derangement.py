"""The derangement matrix of PSL(2,q) on the projective line and its Gram
matrix, with the exact-rank certificate.

M is the 0/1 matrix with one row per fixed-point-free element g of PSL(2,q)
and one column per ordered pair (a, b) of distinct projective points, with a
one exactly when a^g = b.  N = M^T M counts, per entry, the derangements
sending a to b and c to d simultaneously.  For each irreducible character
chi of PGL(2,q) occurring once in the pair module, the projection of the
basis vector at (0, infinity) has (0, infinity)-coordinate

    t(chi) = sum over (a,b) of [sum over g with 0 -> a, infinity -> b of
             chi(g^(-1))] * N[(0, infinity), (a, b)],

computed here three independent ways: the direct double sum, an assembly
from restricted character sums against closed-form N entries, and closed
forms in terms of Legendre and Soto-Andrade sums.  Nonvanishing of every
t(chi) together with the witnessed 2q-dimensional kernel pins the rank of M
at exactly q(q-1).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from .chartable import CharTable, IrreducibleChar
from .charsums import CharacterSums
from .cyclotomic import CycNum
from .errors import IdentityViolationError, NotInOmegaError, UnsupportedCharacterError
from .groups import PGL2
from .intrank import rank_with_kernel


class DerangementModel:
    def __init__(self, table: CharTable):
        self.table = table
        self.group: PGL2 = table.group
        self.ctx = table.ctx
        self.sums = CharacterSums(self.ctx)
        q = self.group.q
        self.q = q
        inf = self.group.infinity
        self.omega = [(a, b) for a in range(q + 1) for b in range(q + 1) if a != b]
        self.omega_index = {pair: i for i, pair in enumerate(self.omega)}
        self.zero_inf = self.omega_index[(0, inf)]
        self._m_matrix: np.ndarray | None = None
        self._gram: np.ndarray | None = None
        self._kernel: np.ndarray | None = None
        self._rank_m: tuple[int, str] | None = None
        self._constraint_counter_cache: dict[tuple, Counter] = {}

    # -- matrices -----------------------------------------------------------

    def build_m(self) -> np.ndarray:
        """Rows: derangements of PSL(2,q) in enumeration order; q+1 ones per row."""
        if self._m_matrix is None:
            group = self.group
            index = group.image_index()
            ders = group.derangements()
            m = np.zeros((len(ders), len(self.omega)), dtype=np.int64)
            for i, g in enumerate(ders):
                for a, b in enumerate(index.image(g)):
                    m[i, self.omega_index[(a, b)]] = 1
            self._m_matrix = m
        return self._m_matrix

    def gram_bruteforce(self) -> np.ndarray:
        if self._gram is None:
            m = self.build_m()
            self._gram = m.T @ m
        return self._gram

    # -- closed-form Gram entries ----------------------------------------------

    def _entry_for_row_zero_inf(self, c: int, d: int) -> int:
        """N[(0, inf), (c, d)] from the case analysis of the entry counts."""
        q = self.q
        ctx = self.ctx
        inf = self.group.infinity
        if (c, d) == (0, inf):
            return (q - 1) ** 2 // 4
        if c == 0 or d == inf:
            return 0  # a permutation cannot split a source or collide targets
        if (c, d) == (inf, 0):
            return 0 if q % 4 == 1 else (q - 1) // 2
        if c == inf or d == 0:
            # chain patterns reduce to the count at (1, 0)
            return (q - 1) // 4 if q % 4 == 1 else (q - 3) // 4
        # generic: move (0, inf, c) to (0, inf, 1) with x -> x / c
        dd = ctx.mul(d, ctx.inv(c))
        val = (
            Fraction(q - 1, 4)
            - Fraction(ctx.phi_int(ctx.sub(1, dd)), 2)
            - Fraction(q, 4) * self.sums.legendre_phi(ctx.sub(ctx.add(dd, dd), 1))
        )
        if val.denominator != 1:
            raise IdentityViolationError(f"Gram entry N[(0, inf), ({c}, {d})] = {val} is not an integer")
        return int(val)

    def gram_entry_closed(self, row_pair, col_pair) -> int:
        """Any N entry via invariance under simultaneous relabeling of points."""
        for pair in (row_pair, col_pair):
            a, b = pair
            if a == b or not (0 <= a <= self.q) or not (0 <= b <= self.q):
                raise NotInOmegaError(f"{pair} is not an ordered pair of distinct points")
        a, b = row_pair
        group = self.group
        g = group.elements_with_constraints([(a, 0), (b, group.infinity)])[0]
        image = group.image_index().image(g)
        return self._entry_for_row_zero_inf(image[col_pair[0]], image[col_pair[1]])

    def gram_closed(self) -> np.ndarray:
        """Row (a, b) is the closed-form row (0, inf) read at the images of
        each (c, d) under an element sending a -> 0 and b -> inf."""
        row = np.array(self.gram_row_zero_inf_closed(), dtype=np.int64)
        out = np.zeros((len(self.omega), len(self.omega)), dtype=np.int64)
        group = self.group
        index = group.image_index()
        inf = group.infinity
        for i, (a, b) in enumerate(self.omega):
            images = index.image(group.elements_with_constraints([(a, 0), (b, inf)])[0])
            out[i] = row[[self.omega_index[images[c], images[d]] for c, d in self.omega]]
        return out

    def gram_row_zero_inf_closed(self) -> list[int]:
        return [self._entry_for_row_zero_inf(c, d) for (c, d) in self.omega]

    # -- kernel witnesses --------------------------------------------------------

    def kernel_vectors(self) -> tuple[dict, dict]:
        """The left and right difference vectors annihilated by M.

        l[a,b] puts +1 on (a, p) and -1 on (b, p) for p outside {a, b}, +1 on
        (a, b) and -1 on (b, a); r[a,b] is the mirror on second coordinates.
        Each family spans a q-dimensional space and the two spans intersect
        trivially, witnessing a 2q-dimensional kernel of M.
        """
        n = len(self.omega)
        left, right = {}, {}
        for a in self.group.points:
            for b in self.group.points:
                if a == b:
                    continue
                lv = np.zeros(n, dtype=np.int64)
                rv = np.zeros(n, dtype=np.int64)
                for p in self.group.points:
                    if p in (a, b):
                        continue
                    lv[self.omega_index[(a, p)]] += 1
                    lv[self.omega_index[(b, p)]] -= 1
                    rv[self.omega_index[(p, a)]] += 1
                    rv[self.omega_index[(p, b)]] -= 1
                lv[self.omega_index[(a, b)]] += 1
                lv[self.omega_index[(b, a)]] -= 1
                rv[self.omega_index[(b, a)]] += 1
                rv[self.omega_index[(a, b)]] -= 1
                left[(a, b)] = lv
                right[(a, b)] = rv
        return left, right

    def kernel_basis(self) -> np.ndarray:
        """The 2q witnesses l[0,b] and r[0,b], b != 0, stacked as rows."""
        if self._kernel is None:
            left, right = self.kernel_vectors()
            others = [b for b in self.group.points if b != 0]
            self._kernel = np.array([left[(0, b)] for b in others] + [right[(0, b)] for b in others])
        return self._kernel

    def rank_of_m(self) -> tuple[int, str]:
        """rank(M) over Q and the method that decided it; computed once."""
        if self._rank_m is None:
            self._rank_m = rank_with_kernel(self.build_m(), self.kernel_basis())
        return self._rank_m

    # -- character moments ----------------------------------------------------------

    TARGET_KINDS = ("lambda1", "psi_minus1", "eta", "nu")

    def _check_supported(self, chi: IrreducibleChar, allow_lambda1: bool):
        kinds = self.TARGET_KINDS if allow_lambda1 else self.TARGET_KINDS[1:]
        if chi.kind not in kinds:
            raise UnsupportedCharacterError(f"{chi.kind} is outside the target set")

    def _constraint_counter(self, pairs) -> Counter:
        """Class labels of g^(-1) over the elements matching the constraints."""
        key = tuple(pairs)
        counter = self._constraint_counter_cache.get(key)
        if counter is None:
            group = self.group
            counter = Counter(
                group.classify(group.inv(g))
                for g in group.elements_with_constraints(pairs)
            )
            self._constraint_counter_cache[key] = counter
        return counter

    def _dot_counter(self, chi: IrreducibleChar, counter: Counter) -> CycNum:
        acc = CycNum.zero()
        for label, count in counter.items():
            acc = acc + self.table.value_on_class(chi, label) * count
        return acc

    def character_sum_direct(self, chi: IrreducibleChar, gram: np.ndarray | None = None) -> CycNum:
        """The double sum over pairs (a, b), against the (0, inf) Gram row."""
        self._check_supported(chi, allow_lambda1=True)
        if gram is None:
            gram = self.gram_bruteforce()
        row = gram[self.zero_inf]
        inf = self.group.infinity
        total = CycNum.zero()
        for idx, (a, b) in enumerate(self.omega):
            entry = int(row[idx])
            if entry == 0:
                continue
            counter = self._constraint_counter(((0, a), (inf, b)))
            total = total + self._dot_counter(chi, counter) * entry
        return total

    def restricted_char_sum(self, chi: IrreducibleChar, constraint, inverse: bool = True) -> CycNum:
        """Brute-force sum of chi(g^(-1)) (or chi(g)) over the q-1 elements
        matching a two-point constraint."""
        self._check_supported(chi, allow_lambda1=False)
        pairs = tuple(constraint)
        if inverse:
            return self._dot_counter(chi, self._constraint_counter(pairs))
        group = self.group
        acc = CycNum.zero()
        for g in group.elements_with_constraints(pairs):
            acc = acc + self.table.char_value(chi, g)
        return acc

    def restricted_sum_closed_form(self, chi: IrreducibleChar, constraint) -> CycNum:
        """Closed forms for the two constraint shapes used by the assembly:
        the swap 0 <-> infinity, and 0 -> infinity with 1 -> d."""
        self._check_supported(chi, allow_lambda1=False)
        ctx = self.ctx
        q = self.q
        inf = self.group.infinity
        pairs = tuple(constraint)
        if pairs == ((0, inf), (inf, 0)):
            if chi.kind == "psi_minus1":
                return CycNum.rational(ctx.phi_int(ctx.neg(1)) * (q - 1))
            if chi.kind == "nu":
                sign = -1 if chi.param.exponent % 2 else 1
                return CycNum.rational(sign * (q - 1))
            return CycNum.rational(-chi.param.sign_at_i() * (q - 1))
        if len(pairs) == 2 and pairs[0] == (0, inf) and pairs[1][0] == 1:
            d = pairs[1][1]
            if d in (0, 1, inf):
                raise NotInOmegaError("closed form needs d outside {0, 1, infinity}")
            arg = ctx.sub(ctx.add(d, d), 1)
            if chi.kind == "nu":
                return self.sums.legendre_sum(chi.param, arg) * q
            if chi.kind == "eta":
                beta = self.ctx.b_char(chi.param.exponent)
                return self.sums.soto_andrade_sum(beta, arg) * (-q)
            return self.sums.legendre_sum(ctx.quadratic_char(), arg) * q
        raise NotInOmegaError(f"no closed form for constraint {pairs}")

    def character_sum_assembled(self, chi: IrreducibleChar) -> CycNum:
        """t(chi) assembled from restricted sums and closed-form Gram entries,
        branching on q mod 4."""
        self._check_supported(chi, allow_lambda1=False)
        ctx = self.ctx
        q = self.q
        inf = self.group.infinity
        h = self.group.swap_one_infinity()
        swap = self.restricted_char_sum(chi, ((0, inf), (inf, 0)))
        total = CycNum.rational(Fraction((q - 1) ** 3, 4))
        if q % 4 == 1:
            total = total - swap * Fraction(q - 1, 2)
        else:
            total = total + swap
        for b in range(2, q):  # b in F_q* with b != 1
            bh = self.group.act(b, h)
            inner = self.restricted_char_sum(chi, ((0, inf), (1, bh)))
            entry = self._entry_for_row_zero_inf(1, b)
            if entry:
                total = total + inner * ((q - 1) * entry)
        return total

    def character_sum_closed_form(self, chi: IrreducibleChar) -> CycNum:
        """t(chi) from the Legendre/Soto-Andrade closed forms.  The equivalent
        expression through the inner products <f, .> is evaluated as well and
        the two must agree."""
        self._check_supported(chi, allow_lambda1=False)
        ctx = self.ctx
        q = self.q
        sums = self.sums
        h = self.group.swap_one_infinity()
        phi_m1 = ctx.phi_int(ctx.neg(1))
        phi2 = ctx.phi_int(ctx.embed_int(2))
        quarter = Fraction(q - 1, 4)
        f_vec = sums.f_vector()

        def cross_sum(values_at) -> CycNum:
            acc = CycNum.zero()
            for b in range(2, q):
                bh = self.group.act(b, h)
                acc = acc + values_at(ctx.sub(ctx.add(bh, bh), 1)) * sums.legendre_phi(
                    ctx.sub(ctx.add(b, b), 1)
                )
            return acc

        if chi.kind == "psi_minus1":
            phi = ctx.quadratic_char()
            s = cross_sum(lambda x: sums.legendre_sum(phi, x))
            value = (CycNum.rational(q * q - 2 * q - 3) - s * (q * q)) * quarter
            p_phi = [sums.legendre_sum(phi, a) for a in range(q)]
            inner = sums.l2_inner(f_vec, p_phi)
            alt = (CycNum.rational(q * q - q - 2) - inner * (phi2 * q * q)) * quarter
        elif chi.kind == "nu":
            gamma = chi.param
            sign = (-1 if gamma.exponent % 2 else 1) * phi_m1
            s = cross_sum(lambda x: sums.legendre_sum(gamma, x))
            value = (CycNum.rational(q * q - 3 * q - (q + 1) * sign) - s * (q * q)) * quarter
            p_gamma = [sums.legendre_sum(gamma, a) for a in range(q)]
            inner = sums.l2_inner(f_vec, p_gamma)
            alt = (CycNum.rational(q * q - 3 * q) - inner * (phi2 * q * q)) * quarter
        else:  # eta
            beta = self.ctx.b_char(chi.param.exponent)
            sign = beta.sign_at_i() * phi_m1
            s = cross_sum(lambda x: sums.soto_andrade_sum(beta, x))
            value = (CycNum.rational(q * q + q + (q + 1) * sign) + s * (q * q)) * quarter
            r_beta = [sums.soto_andrade_sum(beta, a) for a in range(q)]
            inner = sums.l2_inner(f_vec, r_beta)
            alt = (CycNum.rational(q * q + q) + inner * (phi2 * q * q)) * quarter
        if value != alt:
            raise IdentityViolationError(f"closed forms disagree for {chi.name()}")
        return value

    def lambda1_value(self) -> Fraction:
        q = self.q
        return Fraction((q - 1) * (q + 1) * (q - 1) ** 2, 4)

    # -- the certificate -----------------------------------------------------------

    def target_characters(self) -> list[IrreducibleChar]:
        return [chi for chi in self.table.chars if chi.kind in self.TARGET_KINDS]

    def dimension_ledger(self) -> int:
        """1 + q + (q-1)|B| + (q+1)|Gamma|, the rank forced by nonvanishing."""
        return sum(chi.degree for chi in self.target_characters())

    def rank_certificate(self, approx_digits: int = 12) -> dict:
        """Rank of M plus the nonvanishing verdicts, as a JSON-ready report."""
        q = self.q
        expected = q * (q - 1)
        rank, method = self.rank_of_m()
        characters = []
        all_nonzero = True
        for chi in self.target_characters():
            if chi.kind == "lambda1":
                t = CycNum.rational(self.lambda1_value())
            else:
                t = self.character_sum_closed_form(chi)
            nonzero = not t.is_zero()
            all_nonzero = all_nonzero and nonzero
            characters.append(
                {
                    "kind": chi.kind,
                    "params": None if chi.param is None else {"exponent": chi.param.exponent},
                    "t_value_exact": t.coeff_string(),
                    "t_value_approx": t.approx_string(approx_digits),
                    "nonzero": nonzero,
                }
            )
        ledger_ok = self.dimension_ledger() == expected
        return {
            "q": q,
            "rank": rank,
            "rank_method": method,
            "expected_rank": expected,
            "characters": characters,
            "dimension_ledger": self.dimension_ledger(),
            "pass": bool(rank == expected and all_nonzero and ledger_ok),
        }
