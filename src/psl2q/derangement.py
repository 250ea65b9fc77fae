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
forms in terms of Legendre and Soto-Andrade sums.

N and every product with M read one array, `columns`: the column of
(a, a^g) for every derangement g and point a; M itself is built only for
`psl2q dump matrixM`.  The suites hold no dense N: they read its (0, inf)
row, counted with one bincount over the derangements sending 0 -> inf
(`gram_row_zero_inf`), and single entries counted in blocks
(`gram_entries`).  When D is a union of whole PGL classes, N is
PGL-invariant, which carries row (0, inf) to every row; so that row equal
to its closed form decides N equal to the closed form entrywise.  The
dense N (`gram_bruteforce`) and the closed-form N (`gram_closed`) serve
`psl2q dump matrixN` and the tests.  The rank certificate (`rank_of_m`)
eliminates no matrix the size of N.

The upper bound is witnessed on M itself (`kernel_witnessed`, decided
once).  M is read on the 2(q+1) indicators first[x] and second[x] of the
pairs (x, .) and (., x): M first[x] = M second[x] = 1 for all x exactly
when M kills every witness l[a,b] = first[a] - first[b] and r[a,b] =
second[a] - second[b].  So M K^T = 0 for K the 2q witnesses l[0,b] and
r[0,b], and N K^T = M^T (M K^T) = 0 follows without a product with N;
rank_p(K) = 2q makes them independent, and rank(M) <= q(q+1) - 2q.

The lower bound is Schur's lemma on N.  Over Q, M v = 0 exactly when
|M v|^2 = v^T N v = 0, so rank(M) = rank(N).  When the set D of rows of M
is a union of whole PGL classes, hDh^(-1) = D for every h, so N commutes
with the pair action of PGL.  On the constituent V_chi of a target chi
that occurs once in the pair module, N is then a scalar c_chi, and reading
N P_chi = c_chi P_chi (P_chi the projection onto V_chi) at
((0, inf), (0, inf)) gives t(chi) = c_chi * (sum of chi(g^(-1)) over the
stabilizer of (0, inf)).  So t(chi) != 0 forces c_chi != 0, N is injective
on V_chi, and rank(N) >= the sum of chi(1) over the targets, the dimension
ledger q(q-1), which meets the upper bound.  Every hypothesis is decided
exactly (`schur_hypotheses`): the class union, with no row of M repeated;
multiplicity one for every target, from the class counts |C| pi(C) of the
pairs each element fixes; t(chi) != 0 read from N's own (0, inf) row; the
ledger; and both orthogonality relations of the table.  When one fails,
or M witnesses no kernel, the rank is left undecided and nothing is
eliminated; elimination of N is the tests' independent oracle of the rank.

The target characters' values are integer arrays of reduced numerators, one
per family conductor (`families`): psi_minus1 and the nu over
Q(zeta_(q-1)), the eta over Q(zeta_(q+1)).  A character sum over a set of
elements is an integer vector of class counts, so the sums of every target
over many sets are one matrix product per family (`class_sums`), already
reduced; the class of every element and of its inverse is read once
(`PGL2.class_array`), and so are the images of 0, 1 and infinity under
every element (`zero_one_inf`), which fix it.  The direct sum is one
scatter-add over them, each g adding N[(0, infinity), (0^g, infinity^g)],
read from the counted row, to the class of g^(-1).  The closed forms of
the restricted sums, of t(chi) and of the (0, infinity) row of N read the
Legendre and Soto-Andrade tables (`CharacterSums.legendre_table`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .chartable import CharTable, IrreducibleChar
from .charsums import CharacterSums
from .cyclotomic import CycNum, exact_product, max_abs
from .errors import IdentityViolationError, UnsupportedCharacterError
from .groups import PGL2
from .intrank import modular_rank


def pair_column(a, b, q: int):
    """Column of the ordered pair (a, b) of distinct points: a*q + b, less one
    when b > a skips (a, a).  Works on integers and on numpy arrays."""
    return a * q + b - (b > a)


def _count_dtype(bound: int):
    """int32 if every count is at most bound in absolute value and bound < 2^31,
    else int64."""
    return np.int32 if bound < 2**31 else np.int64


class DerangementModel:
    ENTRY_BLOCK = 2**22  # cells `gram_entries` gathers per block

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
        self._indicators: tuple[np.ndarray, np.ndarray] | None = None
        self._kernel: np.ndarray | None = None
        self._witnessed: bool | None = None
        self._schur: dict[str, bool] | None = None
        self._position_classes: dict[bool, np.ndarray] = {}
        self._zero_one_inf: np.ndarray | None = None
        self._families: dict[int, tuple[list[IrreducibleChar], np.ndarray]] | None = None
        self._restricted_rows: dict[IrreducibleChar, np.ndarray] | None = None
        self._assembled: dict[IrreducibleChar, CycNum] = {}
        self._closed_forms: dict[IrreducibleChar, CycNum] = {}
        self._gram_row: np.ndarray | None = None
        self._gram_row_counted: np.ndarray | None = None

    # -- matrices -----------------------------------------------------------

    def columns(self) -> np.ndarray:
        """Row i, entry a: the column of (a, a^g) for the i-th derangement g,
        i.e. where the ones of row i of M sit; in the type of `image_array`,
        which holds (q+1)^2."""
        if self._m_columns is None:
            image = self.group.image_array(self.group.derangement_array())
            self._m_columns = pair_column(np.arange(self.q + 1, dtype=image.dtype), image, self.q)
        return self._m_columns

    def build_m(self) -> np.ndarray:
        """Rows: derangements of PSL(2,q) in enumeration order; q+1 ones per
        row.  Built for the matrixM dump only: the suites read `columns`."""
        if self._m_matrix is None:
            columns = self.columns()
            m = np.zeros((len(columns), len(self.omega)), dtype=np.int8)
            np.put_along_axis(m, columns, 1, axis=1)
            self._m_matrix = m
        return self._m_matrix

    def gram_bruteforce(self) -> np.ndarray:
        """The dense N = M^T M, for `psl2q dump matrixN` and the tests; the
        suites read `gram_row_zero_inf` and `gram_entries` instead.  Counted
        exactly: each row of M adds one to N at every pair of its q+1
        columns, one point x at a time over the rows first.min()..first.max()
        that x's column first reaches.  No entry passes rows * (q+1)^2, which
        picks N's type (int32 at q <= 61)."""
        if self._gram is None:
            columns = self.columns()
            n = len(self.omega)
            gram = np.zeros((n, n), dtype=_count_dtype(columns.size * columns.shape[1]))
            for first in columns.T:
                lo, hi = int(first.min()), int(first.max()) + 1
                keys = (first - lo).astype(np.int64)[:, None] * n + columns
                counts = np.bincount(keys.ravel(), minlength=(hi - lo) * n)
                gram[lo:hi] += counts.reshape(hi - lo, n)
            self._gram = gram
        return self._gram

    def gram_row_zero_inf(self) -> np.ndarray:
        """Row (0, inf) of N, in `omega` order, counted: one bincount over the
        columns of the derangements sending 0 -> inf; built once."""
        if self._gram_row_counted is None:
            columns = self.columns()
            to_inf = columns[columns[:, 0] == self.zero_inf]
            self._gram_row_counted = np.bincount(to_inf.ravel(), minlength=len(self.omega))
        return self._gram_row_counted

    def gram_entries(self, rows, cols) -> np.ndarray:
        """N[rows[k], cols[k]] for `omega` indices: the derangements whose
        column at point a is rows[k] and at point c is cols[k], where
        a = rows[k] // q and c = cols[k] // q are the pairs' first points.
        Counted in blocks of entries whose two gathers of whole point rows
        of `columns`, transposed once, hold at most ENTRY_BLOCK cells each."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        by_point, q = np.ascontiguousarray(self.columns().T), self.q
        step = max(1, self.ENTRY_BLOCK // by_point.shape[1])
        counts = np.zeros(len(rows), dtype=np.int64)
        for lo in range(0, len(rows), step):
            r, c = rows[lo : lo + step], cols[lo : lo + step]
            hits = (by_point[r // q] == r[:, None]) & (by_point[c // q] == c[:, None])
            counts[lo : lo + step] = np.count_nonzero(hits, axis=1)
        return counts

    # -- closed-form Gram entries ----------------------------------------------

    def gram_closed(self) -> np.ndarray:
        """The closed-form N, the tests' oracle for the dense N.  Row (a, b)
        is the closed-form row (0, inf) read at the images of each (c, d)
        under an element h sending a -> 0 and b -> inf: all rows are one
        gather from that row laid out as a square over (c, d), int32 while
        its entries allow.  One np.unique over (0^g, inf^g) keeps the
        first g, in `elements("pgl")` order, sending 0 -> a and inf -> b, one
        per pair by sharp 2-transitivity; h is its inverse permutation, read
        off the full images of those q(q+1) elements alone."""
        row = self.gram_row_zero_inf_closed()
        zero, _, inf = self.zero_one_inf()
        _, first = np.unique(pair_column(zero, inf, self.q), return_index=True)
        h = np.argsort(self.group.image_array(self.group.element_array("pgl")[first]), axis=1)
        c, d = np.array(self.omega).T
        square = np.zeros((self.q + 1, self.q + 1), dtype=_count_dtype(max_abs(row)))
        square[c, d] = row
        return square[h[:, :, None], h[:, None, :]].reshape(len(h), -1)[:, c * (self.q + 1) + d]

    def gram_row_zero_inf_closed(self) -> np.ndarray:
        """Row (0, inf) of N, in `omega` order, by the case analysis of the entry
        counts; built once.  A generic (c, d), both in F_q*, moves to (1, d/c)
        by x -> x / c, where 4 N = q - 1 - 2 phi(1 - d/c) - q P_phi(2d/c - 1)
        must be a multiple of 4."""
        if self._gram_row is None:
            q, inf, arrays = self.q, self.group.infinity, self.ctx.arrays
            c, d = np.array(self.omega).T
            swap, chain = (0, (q - 1) // 4) if q % 4 == 1 else ((q - 1) // 2, (q - 3) // 4)  # chains: as (1, 0)
            cases = [(c == 0) & (d == inf), (c == 0) | (d == inf), (c == inf) & (d == 0), (c == inf) | (d == 0)]
            row = np.select(cases, [(q - 1) ** 2 // 4, 0, swap, chain])
            generic = (c != 0) & (c != inf) & (d != 0) & (d != inf)
            ratio = arrays.mul[d[generic], arrays.inv[c[generic]]]
            u = self.sums.legendre_table()[(q - 1) // 2, self._doubled_minus_one(ratio), 0]  # P_phi is rational
            four = q - 1 - 2 * arrays.phi[arrays.add[1, arrays.neg[ratio]]] - u
            if (four % 4).any():
                pair = self.omega[np.flatnonzero(generic)[np.argmax(four % 4 != 0)]]
                raise IdentityViolationError(f"Gram entry N[(0, inf), {pair}] is not an integer")
            row[generic] = four // 4
            self._gram_row = row.astype(np.int64)
        return self._gram_row

    # -- kernel witnesses --------------------------------------------------------

    def kernel_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second): row x of first is the 0/1 indicator of the pairs
        (x, .), row x of second that of the pairs (., x); built once.  Every
        derangement sends each point somewhere and something to each point,
        so M first[x] = M second[x] = 1.  The differences l[a,b] and r[a,b]
        span two q-dimensional spaces meeting trivially, a 2q-dimensional
        kernel of M."""
        if self._indicators is None:
            points = np.arange(self.q + 1)[:, None]
            first = (np.array([a for a, _ in self.omega]) == points).astype(np.int64)
            second = (np.array([b for _, b in self.omega]) == points).astype(np.int64)
            self._indicators = first, second
        return self._indicators

    def kernel_basis(self) -> np.ndarray:
        """The 2q witnesses l[0,b] and r[0,b], b != 0, stacked as rows."""
        if self._kernel is None:
            first, second = self.kernel_vectors()
            self._kernel = np.vstack([first[0] - first[1:], second[0] - second[1:]])
        return self._kernel

    def m_times(self, vectors) -> np.ndarray:
        """M v^T, exactly, for integer row vectors v: entry (g, j) sums v_j
        over the q+1 columns of g's ones, gathered one point at a time in the
        narrowest integer type holding every partial sum (object if none)."""
        v = np.array(vectors)
        bound = (self.q + 1) * max_abs(v)
        vt = np.ascontiguousarray(v.T, dtype=np.min_scalar_type(-bound - 1))
        columns = self.columns()
        total = vt.take(columns[:, 0], axis=0)
        for x in range(1, self.q + 1):
            total += vt.take(columns[:, x], axis=0)
        return total

    def kernel_witnessed(self) -> bool:
        """Whether M witnesses the 2q-dimensional kernel K: M first[x] =
        M second[x] = 1 for every x, so that M K^T = 0, and rank_p(K) = 2q;
        decided once."""
        if self._witnessed is None:
            first, second = self.kernel_vectors()
            ones = (self.m_times(np.vstack([first, second])) == 1).all()
            self._witnessed = bool(ones) and modular_rank(self.kernel_basis()) == 2 * self.q
        return self._witnessed

    def kernel_bound(self) -> int | None:
        """The upper bound q(q+1) - 2q on rank(M), when M witnesses K."""
        return self.q * (self.q + 1) - 2 * self.q if self.kernel_witnessed() else None

    def rank_of_m(self) -> tuple[int | None, str]:
        """rank(M) over Q and the method that decided it: the Schur bound
        meeting the kernel bound decides.  Otherwise the rank is None,
        undecided, and the method names both bounds."""
        bound, schur = self.kernel_bound(), self.schur_bound()
        if schur == bound:
            return bound, f"Schur, kernel bound {bound}"
        return None, f"undecided (Schur bound {schur}, kernel bound {bound})"

    # -- the Schur lower bound ----------------------------------------------------

    def whole_classes(self) -> bool:
        """Whether D, the set of rows of M, is a union of whole PGL classes: no
        row repeats, and each class meets D in none or all of the elements
        that `class_array` puts in it.  PGL(2,q) is sharply 3-transitive, so
        an element is fixed by the images of 0, 1 and infinity, and a row
        repeats exactly when its columns at those three points do."""
        k = len(self.table.classes)
        sizes = np.bincount(self.classes_by_position(inverse=False), minlength=k)
        counts = np.bincount(self.group.class_array(self.group.derangement_array()), minlength=k)
        n = len(self.omega)
        zero, one, inf = self.columns()[:, [0, 1, self.group.infinity]].astype(np.int64).T
        keys = np.sort((zero * n + one) * n + inf)
        distinct = bool((keys[1:] != keys[:-1]).all())
        return distinct and bool(((counts == 0) | (counts == sizes)).all())

    def pair_counts(self) -> np.ndarray:
        """|C| pi(C) per class C, in `CharTable.classes` order: pi(g) = f(f-1)
        ordered pairs of distinct points are fixed by an element g with f
        fixed points, summed over the elements of C (`PGL2.fixed_point_counts`)."""
        q, k = self.q, len(self.table.classes)
        fixed = self.group.fixed_point_counts(self.group.element_array("pgl"))
        by_class = np.bincount(self.classes_by_position(inverse=False) * (q + 2) + fixed, minlength=k * (q + 2))
        f = np.arange(q + 2)
        return by_class.reshape(k, q + 2) @ (f * (f - 1))

    def targets_occur_once(self) -> bool:
        """Whether every target occurs exactly once in the pair module: the
        sum over classes of |C| pi(C) chi(C) is |G|, one `class_sums` product
        (lambda1: the sum of the counts)."""
        counts, order = self.pair_counts(), self.table.order
        sums = self.class_sums(counts[None]).values()
        return counts.sum() == order and all(rows[0, 0] == order and not rows[0, 1:].any() for rows in sums)

    def schur_hypotheses(self) -> dict[str, bool]:
        """The hypotheses of the Schur lower bound on rank(N), each decided
        exactly; computed once.  whole_pgl_classes: hDh^(-1) = D for every h
        in PGL, so N[(a^h, b^h), (c^h, d^h)] = N[(a, b), (c, d)] and N
        commutes with PGL.  targets_occur_once: N acts on each target's
        constituent as a scalar.  scalars_nonzero: t(chi), read from N's own
        (0, inf) row (`direct_sums`), is nonzero, and so is that scalar.
        dimension_ledger: the targets' degrees sum to q(q-1).
        table_orthogonality: the table the argument reads passes both
        orthogonality relations."""
        if self._schur is None:
            q = self.q
            self._schur = {
                "whole_pgl_classes": self.whole_classes(),
                "targets_occur_once": bool(self.targets_occur_once()),
                "scalars_nonzero": not any(t.is_zero() for t in self.direct_sums().values()),
                "dimension_ledger": self.dimension_ledger() == q * (q - 1),
                "table_orthogonality": all(self.table.orthogonality()),
            }
        return self._schur

    def schur_bound(self) -> int:
        """A lower bound on rank(N) = rank(M): the dimension ledger when every
        Schur hypothesis holds, and 0 otherwise."""
        return self.dimension_ledger() if all(self.schur_hypotheses().values()) else 0

    # -- character moments ----------------------------------------------------------

    TARGET_KINDS = ("lambda1", "psi_minus1", "eta", "nu")

    def _check_supported(self, chi: IrreducibleChar, allow_lambda1: bool):
        kinds = self.TARGET_KINDS if allow_lambda1 else self.TARGET_KINDS[1:]
        if chi.kind not in kinds:
            raise UnsupportedCharacterError(f"{chi.kind} is outside the target set")

    def classes_by_position(self, inverse: bool) -> np.ndarray:
        """Class index of g^(-1) (or of g) per row g of element_array("pgl");
        each array classified on its own, g^(-1) as (d, -b, -c, a)."""
        if inverse not in self._position_classes:
            group = self.group
            elements = group.element_array("pgl")
            if inverse:
                neg = group.ctx.arrays.neg
                a, b, c, d = elements.T
                elements = np.stack([d, neg[b], neg[c], a], axis=1)
            # CharTable.classes is class_labels() order, the order of class_array
            self._position_classes[inverse] = group.class_array(elements)
        return self._position_classes[inverse]

    def zero_one_inf(self) -> np.ndarray:
        """The images of 0, 1 and infinity under each row of
        element_array("pgl"), as the three rows of one array; computed once."""
        if self._zero_one_inf is None:
            keys = [0, 1, self.group.infinity]
            self._zero_one_inf = self.group.image_array(self.group.element_array("pgl"), keys).T
        return self._zero_one_inf

    def class_counts(self, pairs, inverse: bool = True) -> list[int]:
        """Class counts of g^(-1) (or of g) over the elements g matching the
        point constraints, in `CharTable.classes` order."""
        classes = self.classes_by_position(inverse)[self.group.constraint_mask(pairs)]
        return np.bincount(classes, minlength=len(self.table.classes)).tolist()

    def families(self) -> dict[int, tuple[list[IrreducibleChar], np.ndarray]]:
        """Per family conductor m, q-1 for psi_minus1 and the nu and q+1 for
        the eta: its characters, and their values on the classes as an int64
        (characters, classes, phi(m)) array of numerators over Q(zeta_m)."""
        if self._families is None:
            self._families = {}
            for m in (self.q - 1, self.q + 1):
                chars = [chi for chi in self.target_characters()[1:] if self._conductor(chi) == m]  # [0]: lambda1
                values = [[v.lift(m) for v in self.table.values[self.table.char_index(chi)]] for chi in chars]
                if any(v.den != 1 for row in values for v in row):
                    raise IdentityViolationError("a character value is not an algebraic integer")
                self._families[m] = chars, np.array([[v.nums for v in row] for row in values], dtype=np.int64)
        return self._families

    def _targets(self) -> list[IrreducibleChar]:
        return [chi for chars, _ in self.families().values() for chi in chars]

    def _conductor(self, chi: IrreducibleChar) -> int:
        return self.q + 1 if chi.kind == "eta" else self.q - 1

    def class_sums(self, counts) -> dict[IrreducibleChar, np.ndarray]:
        """Row r of each target's entry (lambda1 aside): the numerators of its
        sum over the class counts of row r, one matrix product per family."""
        counts = np.asarray(counts)
        return {chi: rows for chars, values in self.families().values()
                for chi, rows in zip(chars, exact_product(counts, values))}

    def direct_sums(self) -> dict[IrreducibleChar, CycNum]:
        """Every target's t(chi), lambda1 included, as the double sum over
        pairs: one scatter-add of N[(0, inf), (0^g, inf^g)], read from the
        counted row, into the class of g^(-1), over `zero_one_inf`, then
        `class_sums`."""
        zero, _, inf = self.zero_one_inf()
        weights = self.gram_row_zero_inf()[pair_column(zero, inf, self.q)]
        counts = np.zeros(len(self.table.classes), dtype=np.int64)
        np.add.at(counts, self.classes_by_position(inverse=True), weights)
        out = {chi: self._value(chi, rows[0]) for chi, rows in self.class_sums(counts[None]).items()}
        return {self.table.chars[0]: CycNum.rational(int(counts.sum())), **out}

    def _value(self, chi: IrreducibleChar, nums: np.ndarray, scale: Fraction = Fraction(1)) -> CycNum:
        return CycNum.from_zeta_powers(self._conductor(chi), nums.tolist(), scale)

    def character_sum_direct(self, chi: IrreducibleChar) -> CycNum:
        self._check_supported(chi, allow_lambda1=True)
        return self.direct_sums()[chi]

    def restricted_char_sum(self, chi: IrreducibleChar, constraint, inverse: bool = True) -> CycNum:
        """Brute-force sum of chi(g^(-1)) (or chi(g)) over the q-1 elements
        matching a two-point constraint, one product per class."""
        self._check_supported(chi, allow_lambda1=False)
        return self.table.class_sum(chi, self.class_counts(constraint, inverse))

    def restricted_counts(self) -> np.ndarray:
        """Class counts of g^(-1): row 0 over the swap 0 <-> infinity, row d-1
        over 0 -> infinity, 1 -> d (d = 2..q-1), keyed by the image of 1."""
        q, inf, k = self.q, self.group.infinity, len(self.table.classes)
        (zero, one, infinity), classes = self.zero_one_inf(), self.classes_by_position(inverse=True)
        to_inf = zero == inf
        by_one = np.bincount(one[to_inf].astype(np.intp) * k + classes[to_inf], minlength=q * k)
        swap = np.bincount(classes[to_inf & (infinity == 0)], minlength=k)
        return np.vstack([swap, by_one.reshape(q, k)[2:]])

    def restricted_sums(self) -> dict[IrreducibleChar, np.ndarray]:
        if self._restricted_rows is None:  # computed once
            self._restricted_rows = self.class_sums(self.restricted_counts())
        return self._restricted_rows

    def _closed_terms(self, chi: IrreducibleChar) -> tuple[np.ndarray, int, int, int, int, int]:
        """(table, k, sign, swap, c, c_f): q P_gamma(a) or -q R_beta(a) is
        sign * table[k, a], swap the swap sum, and 4 t(chi) / (q-1) is c less
        q^2 times the cross sum, or c_f less phi(2) q^2 <f, .>."""
        q = self.q
        phi_m1 = self.ctx.phi_int(self.ctx.neg(1))
        if chi.kind == "psi_minus1":
            return self.sums.legendre_table(), (q - 1) // 2, 1, phi_m1 * (q - 1), q * q - 2 * q - 3, q * q - q - 2
        k = chi.param.exponent
        if chi.kind == "nu":
            e = -1 if k % 2 else 1
            return self.sums.legendre_table(), k, 1, e * (q - 1), q * q - 3 * q - (q + 1) * e * phi_m1, q * q - 3 * q
        e = chi.param.sign_at_i()
        return self.sums.soto_andrade_table(), k, -1, -e * (q - 1), q * q + q + (q + 1) * e * phi_m1, q * q + q

    def _doubled_minus_one(self, points: np.ndarray) -> np.ndarray:
        return self.ctx.arrays.add[self.ctx.arrays.add[points, points], self.ctx.arrays.neg[1]]

    def restricted_closed_forms(self) -> dict[IrreducibleChar, np.ndarray]:
        """The rows of `restricted_sums` from the closed forms: the swap sum
        is phi(-1)(q-1) for psi_minus1, (-1)^k (q-1) for nu and -beta(i)(q-1)
        for eta, and with 1 -> d it is q P_phi(2d-1), q P_gamma(2d-1) or
        -q R_beta(2d-1), a table row."""
        out = {}
        for chi in self._targets():
            table, k, sign, swap, _, _ = self._closed_terms(chi)
            out[chi] = sign * table[k, self._doubled_minus_one(np.arange(1, self.q))]
            out[chi][0] = swap * (np.arange(table.shape[2]) == 0)
        return out

    def character_sum_assembled(self, chi: IrreducibleChar) -> CycNum:
        """t(chi) from restricted sums and closed-form Gram entries, branching
        on q mod 4: one integer weight per row of `restricted_sums`."""
        self._check_supported(chi, allow_lambda1=False)
        if not self._assembled:
            q = self.q
            b = np.arange(2, q)  # b in F_q* with b != 1
            weights = np.zeros(q - 1, dtype=np.int64)
            weights[0] = -((q - 1) // 2) if q % 4 == 1 else 1
            h = self.group.image_array([self.group.swap_one_infinity()])[0]
            np.add.at(weights, h[b] - 1, (q - 1) * self.gram_row_zero_inf_closed()[pair_column(1, b, q)])
            for other, rows in self.restricted_sums().items():
                total = exact_product(weights, rows, (q - 1) ** 3)
                total[0] += (q - 1) ** 3 // 4
                self._assembled[other] = self._value(other, total)
        return self._assembled[chi]

    def character_sum_closed_form(self, chi: IrreducibleChar) -> CycNum:
        """t(chi) from the Legendre/Soto-Andrade closed forms, all targets at
        once, checked against the form through <f, .>.  With u = q P_phi and
        S = q P_gamma or q R_beta, the cross sum is the sum over b = 2..q-1 of
        u(2b-1) S(2 b^h - 1), an integer weight vector times table rows, and
        q^2 <f, S/q> is `CharacterSums.f_forms`: per family, one product of
        each kind over the family's rows."""
        self._check_supported(chi, allow_lambda1=False)
        if not self._closed_forms:
            q, sums = self.q, self.sums
            b = np.arange(2, q)
            u = sums.legendre_table()[(q - 1) // 2, :, 0]  # P_phi is rational
            h = self.group.image_array([self.group.swap_one_infinity()])[0]
            cross = np.zeros(q, dtype=np.int64)
            np.add.at(cross, self._doubled_minus_one(h[b]), u[self._doubled_minus_one(b)])
            phi2, closed = self.ctx.phi_int(self.ctx.embed_int(2)), {}
            for chars, _ in self.families().values():
                terms = [self._closed_terms(other) for other in chars]
                table, ks = terms[0][0], [k for _, k, *_ in terms]
                values = exact_product(cross, table[ks], 2 * q * q)
                alts = sums.f_forms(table, ks, 2 * q * q)
                for other, (_, _, sign, _, c, c_f), value, alt in zip(chars, terms, values, alts):
                    value, alt = -sign * value, -phi2 * sign * alt
                    value[0], alt[0] = value[0] + c, alt[0] + c_f
                    if not np.array_equal(value, alt):
                        raise IdentityViolationError(f"closed forms disagree for {other.name()}")
                    closed[other] = self._value(other, value, Fraction(q - 1, 4))
            self._closed_forms = closed
        return self._closed_forms[chi]

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
