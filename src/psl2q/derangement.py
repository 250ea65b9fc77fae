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

M, N and the kernel check all read one array: the column of (a, a^g) for
every derangement g and point a.  The exact rank takes one elimination, of
N: over Q, M v = 0 exactly when v^T M^T M v = |M v|^2 = 0, so
rank(M) = rank(N), and the certificate of rank(N) certifies rank(M).  With
K the 2q kernel witnesses, checked exactly (N K^T = 0 and rank_p(K) = 2q),
rank_p(N) = q(q+1) - 2q decides rank(N); otherwise a second prime and then
Bareiss elimination do.

A character sum over a set of elements is an integer vector of class counts
(`CharTable.class_sum`), and the class of every element of PGL(2,q), and of
its inverse, is read once (`PGL2.class_array`).  Constraint sets are
boolean masks over the same elements (`PGL2.constraint_mask`).  The sets
{g : 0^g = a, infinity^g = b} partition PGL(2,q), so the direct sum is one
scatter-add over the group's cached image array (`PGL2.pgl_images`): each g
adds N[(0, infinity), (0^g, infinity^g)] to the count of the class of
g^(-1).  The closed-form Gram matrix is one gather from its (0, infinity)
row.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .chartable import CharTable, IrreducibleChar
from .charsums import CharacterSums
from .cyclotomic import CycNum
from .errors import IdentityViolationError, NotInOmegaError, UnsupportedCharacterError
from .groups import PGL2
from .intrank import rank_with_kernel


def pair_column(a, b, q: int):
    """Column of the ordered pair (a, b) of distinct points: a*q + b, less one
    when b > a skips (a, a).  Works on integers and on numpy arrays."""
    return a * q + b - (b > a)


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
        self._m_columns: np.ndarray | None = None
        self._m_matrix: np.ndarray | None = None
        self._gram: np.ndarray | None = None
        self._witnesses: tuple[dict, dict] | None = None
        self._kernel: np.ndarray | None = None
        self._rank_n: tuple[int, str] | None = None
        self._position_classes: dict[bool, np.ndarray] = {}
        self._restricted: dict[tuple, CycNum] = {}
        self._closed_forms: dict[IrreducibleChar, CycNum] = {}

    # -- matrices -----------------------------------------------------------

    def _columns(self) -> np.ndarray:
        """Row i, entry a: the column of (a, a^g) for the i-th derangement g,
        i.e. where the ones of row i of M sit."""
        if self._m_columns is None:
            image = self.group.image_array(self.group.derangements())
            self._m_columns = pair_column(np.arange(self.q + 1), image, self.q)
        return self._m_columns

    def build_m(self) -> np.ndarray:
        """Rows: derangements of PSL(2,q) in enumeration order; q+1 ones per row."""
        if self._m_matrix is None:
            columns = self._columns()
            m = np.zeros((len(columns), len(self.omega)), dtype=np.int8)
            np.put_along_axis(m, columns, 1, axis=1)
            self._m_matrix = m
        return self._m_matrix

    def gram_bruteforce(self) -> np.ndarray:
        """N = M^T M, counted exactly: each row of M adds one to N at every
        pair of its q+1 columns."""
        if self._gram is None:
            columns = self._columns()
            n = len(self.omega)
            gram = np.zeros(n * n, dtype=np.int64)
            for first in columns.T:
                gram += np.bincount((first[:, None] * n + columns).ravel(), minlength=n * n)
            self._gram = gram.reshape(n, n)
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
        first = np.flatnonzero(group.constraint_mask([(a, 0), (b, group.infinity)]))[0]
        image = group.pgl_images()[first].tolist()
        return self._entry_for_row_zero_inf(image[col_pair[0]], image[col_pair[1]])

    def gram_closed(self) -> np.ndarray:
        """Row (a, b) is the closed-form row (0, inf) read at the images of
        each (c, d) under an element sending a -> 0 and b -> inf, and all
        rows are one gather.  Each element g sends the points whose images
        are 0 and inf there; the first element, in `elements("pgl")` order,
        of each pair is kept, and by sharp 2-transitivity every pair has one."""
        row = np.array(self.gram_row_zero_inf_closed(), dtype=np.int64)
        images = self.group.pgl_images()
        by_point = images.T
        to_zero = np.argmax(by_point == 0, axis=0)
        to_inf = np.argmax(by_point == self.group.infinity, axis=0)
        _, first = np.unique(pair_column(to_zero, to_inf, self.q), return_index=True)
        image = images[first]
        c, d = np.array(self.omega).T
        columns = pair_column(image[:, c], image[:, d], self.q).ravel()
        return row.take(columns).reshape(len(c), len(c))

    def gram_row_zero_inf_closed(self) -> list[int]:
        return [self._entry_for_row_zero_inf(c, d) for (c, d) in self.omega]

    # -- kernel witnesses --------------------------------------------------------

    def kernel_vectors(self) -> tuple[dict, dict]:
        """The left and right difference vectors annihilated by M; built once.

        l[a,b] is the indicator of the pairs (a, .) minus that of the pairs
        (b, .): +1 on (a, p) and -1 on (b, p) for p outside {a, b}, +1 on
        (a, b) and -1 on (b, a).  r[a,b] is the mirror on second coordinates.
        Every derangement sends a and b somewhere and something to a and b,
        so M l[a,b] = M r[a,b] = 0.  Each family spans a q-dimensional space
        and the two spans intersect trivially, witnessing a 2q-dimensional
        kernel of M.
        """
        if self._witnesses is None:
            points = np.arange(self.q + 1)[:, None]
            first = (np.array([a for a, _ in self.omega]) == points).astype(np.int64)
            second = (np.array([b for _, b in self.omega]) == points).astype(np.int64)
            left = {(a, b): first[a] - first[b] for a, b in self.omega}
            right = {(a, b): second[a] - second[b] for a, b in self.omega}
            self._witnesses = left, right
        return self._witnesses

    def kernel_basis(self) -> np.ndarray:
        """The 2q witnesses l[0,b] and r[0,b], b != 0, stacked as rows."""
        if self._kernel is None:
            left, right = self.kernel_vectors()
            others = [b for b in self.group.points if b != 0]
            self._kernel = np.array([left[(0, b)] for b in others] + [right[(0, b)] for b in others])
        return self._kernel

    def annihilates(self, vectors) -> bool:
        """Exactly whether M v = 0 for every integer vector v given.

        Entry g of M v is the sum of v over the q+1 columns of g's ones; the
        sum is gathered one point at a time, in the narrowest integer type
        that holds every partial sum (object when no fixed width does)."""
        v = np.array(vectors)
        bound = (self.q + 1) * max(int(v.max()), -int(v.min()))
        vt = np.ascontiguousarray(v.T, dtype=np.min_scalar_type(-bound - 1))
        columns = self._columns()
        total = vt.take(columns[:, 0], axis=0)
        for x in range(1, self.q + 1):
            total += vt.take(columns[:, x], axis=0)
        return not total.any()

    def rank_of_gram(self) -> tuple[int, str]:
        """rank(N) over Q and the method that decided it; computed once.  The
        kernel witnesses of M bound it too, since N v = M^T (M v)."""
        if self._rank_n is None:
            self._rank_n = rank_with_kernel(self.gram_bruteforce(), self.kernel_basis())
        return self._rank_n

    def rank_of_m(self) -> tuple[int, str]:
        """rank(M) over Q and the method that decided it: those of rank(N),
        since M v = 0 exactly when |M v|^2 = v^T N v = 0."""
        return self.rank_of_gram()

    # -- character moments ----------------------------------------------------------

    TARGET_KINDS = ("lambda1", "psi_minus1", "eta", "nu")

    def _check_supported(self, chi: IrreducibleChar, allow_lambda1: bool):
        kinds = self.TARGET_KINDS if allow_lambda1 else self.TARGET_KINDS[1:]
        if chi.kind not in kinds:
            raise UnsupportedCharacterError(f"{chi.kind} is outside the target set")

    def classes_by_position(self, inverse: bool) -> np.ndarray:
        """Class index of g^(-1) (or of g) per element g of elements("pgl");
        each array classified on its own, g^(-1) as (d, -b, -c, a)."""
        if inverse not in self._position_classes:
            group = self.group
            elements = np.array(group.elements("pgl"))
            if inverse:
                neg = group.ctx.arrays.neg
                a, b, c, d = elements.T
                elements = np.stack([d, neg[b], neg[c], a], axis=1)
            # CharTable.classes is class_labels() order, the order of class_array
            self._position_classes[inverse] = group.class_array(elements)
        return self._position_classes[inverse]

    def class_counts(self, pairs, inverse: bool = True) -> list[int]:
        """Class counts of g^(-1) (or of g) over the elements g matching the
        point constraints, in `CharTable.classes` order."""
        classes = self.classes_by_position(inverse)[self.group.constraint_mask(pairs)]
        return np.bincount(classes, minlength=len(self.table.classes)).tolist()

    def character_sum_direct(self, chi: IrreducibleChar, gram: np.ndarray | None = None) -> CycNum:
        """The double sum over pairs (a, b), against the (0, inf) Gram row:
        one scatter-add of N[(0, inf), (0^g, inf^g)] into the class of g^(-1)
        over the PGL image array."""
        self._check_supported(chi, allow_lambda1=True)
        if gram is None:
            gram = self.gram_bruteforce()
        image = self.group.pgl_images()
        weights = gram[self.zero_inf][pair_column(image[:, 0], image[:, self.group.infinity], self.q)]
        counts = np.zeros(len(self.table.classes), dtype=np.int64)
        np.add.at(counts, self.classes_by_position(inverse=True), weights)
        return self.table.class_sum(chi, counts.tolist())

    def restricted_char_sum(self, chi: IrreducibleChar, constraint, inverse: bool = True) -> CycNum:
        """Brute-force sum of chi(g^(-1)) (or chi(g)) over the q-1 elements
        matching a two-point constraint; computed once per argument."""
        self._check_supported(chi, allow_lambda1=False)
        key = chi, tuple(map(tuple, constraint)), inverse
        if key not in self._restricted:
            self._restricted[key] = self.table.class_sum(chi, self.class_counts(constraint, inverse))
        return self._restricted[key]

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
        """t(chi) from the Legendre/Soto-Andrade closed forms; computed once
        per character.  The equivalent expression through the inner products
        <f, .> is evaluated as well and the two must agree."""
        self._check_supported(chi, allow_lambda1=False)
        if chi not in self._closed_forms:
            self._closed_forms[chi] = self._closed_form(chi)
        return self._closed_forms[chi]

    def _closed_form(self, chi: IrreducibleChar) -> CycNum:
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
