"""PGL(2,q) and PSL(2,q) acting on the projective line.

Projective points are integers 0..q: the point a < q is the span of the row
vector (1, a) and the point q is infinity, the span of (0, 1).  The action is
on the right, point * matrix.

A group element is a 4-tuple (a, b, c, d) of GF(q) indices read row-major,
normalized so that the first nonzero entry equals 1; two matrices represent
the same element of PGL(2,q) exactly when their normal forms are equal.

`act` computes the action on one point; `image_array` computes it for many
elements and all q+1 points in one numpy pass over the field tables, and
the tests check the two against each other.  `pgl_images` is that array for
`elements("pgl")`, built once per group and stored point by point, so the
images of one point under every element are contiguous.  A point-mapping
constraint query (`constraint_mask`) is one boolean mask over it: the AND
of `images of src == tgt` over the pairs.

`in_psl` tests one element and `psl_mask` many at once (det is a nonzero
square), which is how `elements("psl")` filters PGL(2,q).

`classify` names the conjugacy class of one element; `class_array` gives the
class position, in `class_labels()` order, of many elements in one numpy
pass.  Apart from the identity, the class of g is a function of
s = tr(g)^2 / det(g) and, where tr(g) = 0, of whether -det(g) is a square
(trace 0 is the one value of s shared by two classes: split_minus_one and
nonsplit_i).  Both are unchanged by scaling the matrix, so `class_array`
reads one 2 x q table, filled once per group by `classify` on the class
representatives; the tests check it against `classify` element by element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolationError, InvalidConstraintError
from .fields import FieldCtx

Element = tuple[int, int, int, int]


@dataclass(frozen=True)
class ClassLabel:
    """Conjugacy class of PGL(2,q).

    kind is one of identity, unipotent, split, split_minus_one, nonsplit,
    nonsplit_i.  For split classes param is the canonical exponent e with
    eigenvalue ratio gen^e, minimized over {e, q-1-e}; for nonsplit classes
    it is the canonical exponent of the eigenvalue class in F_(q^2)*/F_q*,
    minimized over inversion.
    """

    kind: str
    param: int | None = None


IDENTITY_LABEL = ClassLabel("identity")
UNIPOTENT_LABEL = ClassLabel("unipotent")
SPLIT_MINUS_ONE_LABEL = ClassLabel("split_minus_one")
NONSPLIT_I_LABEL = ClassLabel("nonsplit_i")


class PGL2:
    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.q = ctx.q
        self.infinity = ctx.q
        self.points = range(ctx.q + 1)
        self.identity: Element = (1, 0, 0, 1)
        self._classify_cache: dict[Element, ClassLabel] = {}
        self._elements_pgl: list[Element] | None = None
        self._elements_psl: list[Element] | None = None
        self._pgl_images: np.ndarray | None = None
        self._class_table: np.ndarray | None = None

    # -- element plumbing ---------------------------------------------------

    def normalize(self, m: tuple[int, int, int, int]) -> Element:
        for entry in m:
            if entry:
                if entry == 1:
                    return tuple(m)
                s = self.ctx.inv(entry)
                mul = self.ctx.mul
                return (mul(m[0], s), mul(m[1], s), mul(m[2], s), mul(m[3], s))
        raise ValueError("zero matrix")

    def make(self, a: int, b: int, c: int, d: int) -> Element:
        g = self.normalize((a, b, c, d))
        if self.det(g) == 0:
            raise ValueError("singular matrix")
        return g

    def det(self, g: Element) -> int:
        ctx = self.ctx
        return ctx.sub(ctx.mul(g[0], g[3]), ctx.mul(g[1], g[2]))

    def mul(self, g: Element, h: Element) -> Element:
        m, a = self.ctx.mul_table, self.ctx.add_table
        g0, g1, g2, g3 = g
        h0, h1, h2, h3 = h
        return self.normalize(
            (
                a[m[g0][h0]][m[g1][h2]],
                a[m[g0][h1]][m[g1][h3]],
                a[m[g2][h0]][m[g3][h2]],
                a[m[g2][h1]][m[g3][h3]],
            )
        )

    def inv(self, g: Element) -> Element:
        neg = self.ctx.neg
        return self.normalize((g[3], neg(g[1]), neg(g[2]), g[0]))

    def act(self, pt: int, g: Element) -> int:
        """Right action of g on a projective point."""
        ctx = self.ctx
        if pt == self.infinity:
            x, y = g[2], g[3]
        else:
            x = ctx.add(g[0], ctx.mul(pt, g[2]))
            y = ctx.add(g[1], ctx.mul(pt, g[3]))
        if x == 0:
            return self.infinity
        return ctx.mul(y, ctx.inv(x))

    def fixed_points(self, g: Element) -> list[int]:
        return [pt for pt in self.points if self.act(pt, g) == pt]

    def in_psl(self, g: Element) -> bool:
        """Determinants of normalized representatives differ by squares, so
        membership in PSL(2,q) is: det of the normal form is a square."""
        return self.ctx.is_square(self.det(g))

    # -- enumeration ----------------------------------------------------------

    def elements(self, which: str = "pgl") -> list[Element]:
        """All elements in a fixed deterministic order; |PGL| = q^3 - q."""
        if self._elements_pgl is None:
            q = self.q
            ctx = self.ctx
            out: list[Element] = []
            # normal forms: a = 1 with d != b*c, or a = 0, b = 1, c != 0
            for b in range(q):
                for c in range(q):
                    bc = ctx.mul(b, c)
                    out.extend((1, b, c, d) for d in range(q) if d != bc)
            for c in range(1, q):
                out.extend((0, 1, c, d) for d in range(q))
            self._elements_pgl = out
            self._elements_psl = [g for g, keep in zip(out, self.psl_mask(out).tolist()) if keep]
        if which == "pgl":
            return self._elements_pgl
        if which == "psl":
            return self._elements_psl
        raise ValueError(f"unknown group selector {which!r}")

    def derangements(self) -> list[Element]:
        """Fixed-point-free elements of PSL(2,q), in enumeration order."""
        psl = self.elements("psl")
        fixed_point_free = np.array([lab.kind in ("nonsplit", "nonsplit_i") for lab in self.class_labels()])
        keep = fixed_point_free[self.class_array(psl)].tolist()
        return [g for g, k in zip(psl, keep) if k]

    # -- conjugacy ------------------------------------------------------------

    def classify(self, g: Element) -> ClassLabel:
        label = self._classify_cache.get(g)
        if label is None:
            label = self._classify(g)
            self._classify_cache[g] = label
        return label

    def _classify(self, g: Element) -> ClassLabel:
        ctx = self.ctx
        q = self.q
        if g == self.identity:
            return IDENTITY_LABEL
        tr = ctx.add(g[0], g[3])
        det = self.det(g)
        disc = ctx.sub(ctx.mul(tr, tr), ctx.mul(ctx.embed_int(4), det))
        if disc == 0:
            return UNIPOTENT_LABEL
        if ctx.is_square(disc):
            s = ctx.sqrt(disc)
            half = ctx.inv(ctx.embed_int(2))
            x1 = ctx.mul(ctx.add(tr, s), half)
            x2 = ctx.mul(ctx.sub(tr, s), half)
            ratio = ctx.mul(x1, ctx.inv(x2))
            e = ctx.log[ratio]
            if 2 * e == q - 1:
                return SPLIT_MINUS_ONE_LABEL
            return ClassLabel("split", min(e, q - 1 - e))
        # eigenvalues in GF(q^2) \ GF(q); disc is a nonsquare, so its
        # discrete log in GF(q^2)* is even and a square root exists there
        j_disc = ctx.log2[disc]
        root = ctx.exp2[j_disc // 2]
        half2 = ctx.q2_inv(ctx.embed_int(2))
        r = ctx.q2_mul(ctx.q2_add(tr, root), half2)
        j = ctx.log2[r] % (q + 1)
        if 2 * j == q + 1:
            return NONSPLIT_I_LABEL
        return ClassLabel("nonsplit", min(j, q + 1 - j))

    def class_array(self, elements) -> np.ndarray:
        """Class position, in `class_labels()` order, of each element given.

        The same classes as `classify`, for many elements in one numpy pass.
        The rows need not be normalized: a scalar matrix is the identity, and
        any other is looked up by its (flag, s) key (`_class_keys`) in a table
        filled once per group."""
        a, b, c, d = np.array(elements, dtype=np.intp).reshape(-1, 4).T
        flag, s = self._class_keys(a, b, c, d)
        positions = self._lookup_table()[flag, s]
        positions[(b == 0) & (c == 0) & (a == d)] = 0
        if (positions < 0).any():
            raise IdentityViolationError("an element's (flag, tr^2/det) key matches no class")
        return positions

    def psl_mask(self, elements) -> np.ndarray:
        """`in_psl` of each element given, in one numpy pass: det is a nonzero
        square.  The rows need not be normalized, since scaling a matrix
        multiplies its det by a square."""
        a, b, c, d = np.array(elements, dtype=np.intp).reshape(-1, 4).T
        return self.ctx.arrays.square[self._dets(a, b, c, d)]

    def _dets(self, a, b, c, d) -> np.ndarray:
        """ad - bc, per matrix."""
        arrays = self.ctx.arrays
        mul = arrays.mul
        return arrays.add[mul[a, d], arrays.neg[mul[b, c]]]

    def _class_keys(self, a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
        """flag = [tr = 0 and -det is a square] and s = tr^2 / det, per matrix."""
        arrays = self.ctx.arrays
        mul = arrays.mul
        tr = arrays.add[a, d]
        det = self._dets(a, b, c, d)
        s = mul[mul[tr, tr], arrays.inv[det]]
        flag = (tr == 0) & arrays.square[arrays.neg[det]]
        return flag.astype(np.intp), s

    def _lookup_table(self) -> np.ndarray:
        """table[flag, s]: the class position of the non-identity elements with
        that key, -1 where none; filled by `classify` on the representatives."""
        if self._class_table is None:
            labels = self.class_labels()
            where = {label: i for i, label in enumerate(labels)}
            reps = [self.class_representative(label) for label in labels[1:]]
            flag, s = self._class_keys(*np.array(reps, dtype=np.intp).T)
            if len(set(zip(flag.tolist(), s.tolist()))) != len(reps):
                raise IdentityViolationError("two classes share a (flag, tr^2/det) key")
            table = np.full((2, self.q), -1, dtype=np.intp)
            table[flag, s] = [where[self.classify(g)] for g in reps]
            self._class_table = table
        return self._class_table

    def is_derangement(self, g: Element) -> bool:
        return self.classify(g).kind in ("nonsplit", "nonsplit_i")

    def class_representative(self, label: ClassLabel) -> Element:
        ctx = self.ctx
        if label.kind == "identity":
            return self.identity
        if label.kind == "unipotent":
            return (1, 1, 0, 1)
        if label.kind == "split":
            return self.make(ctx.exp[label.param], 0, 0, 1)
        if label.kind == "split_minus_one":
            return self.make(ctx.neg(1), 0, 0, 1)
        if label.kind in ("nonsplit", "nonsplit_i"):
            j = (self.q + 1) // 2 if label.kind == "nonsplit_i" else label.param
            r = ctx.exp2[j]
            return self.make(0, 1, ctx.neg(ctx.q2_norm(r)), ctx.q2_trace(r))
        raise ValueError(f"unknown label {label!r}")

    def class_size(self, label: ClassLabel) -> int:
        q = self.q
        return {
            "identity": 1,
            "unipotent": q * q - 1,
            "split": q * (q + 1),
            "split_minus_one": q * (q + 1) // 2,
            "nonsplit": q * (q - 1),
            "nonsplit_i": q * (q - 1) // 2,
        }[label.kind]

    def class_labels(self) -> list[ClassLabel]:
        """Canonical class order: identity, unipotent, split_minus_one, split
        ascending, nonsplit_i, nonsplit ascending."""
        q = self.q
        labels = [IDENTITY_LABEL, UNIPOTENT_LABEL, SPLIT_MINUS_ONE_LABEL]
        labels += [ClassLabel("split", e) for e in range(1, (q - 1) // 2)]
        labels.append(NONSPLIT_I_LABEL)
        labels += [ClassLabel("nonsplit", j) for j in range(1, (q + 1) // 2)]
        return labels

    # -- point images ---------------------------------------------------------

    def pgl_images(self) -> np.ndarray:
        """`image_array` of `elements("pgl")`, built once: row i holds the
        images of the points under elements("pgl")[i].

        The array is the transpose of a C-contiguous one, so each column (the
        images of one point under every element) is contiguous, and its type
        is the narrowest unsigned one that holds (q+1)^2, so pair indices
        a*q + b and a*(q+1) + b computed on it cannot overflow."""
        if self._pgl_images is None:
            images = self.image_array(self.elements("pgl"))
            dtype = np.min_scalar_type((self.q + 1) ** 2)
            self._pgl_images = np.ascontiguousarray(images.T, dtype=dtype).T
        return self._pgl_images

    def image_array(self, elements) -> np.ndarray:
        """Row i holds the images x^g of the points x = 0..q under elements[i].

        The same action as `act`, over the field tables in one pass: a finite
        t goes to (b + t d) / (a + t c) and infinity to d / c, and to infinity
        where the denominator is 0."""
        q = self.q
        arrays = self.ctx.arrays
        add, mul, inv = arrays.add, arrays.mul, arrays.inv
        a, b, c, d = np.array(elements, dtype=np.intp).reshape(-1, 4).T[:, :, None]
        t = np.arange(q)
        den = np.concatenate([add[a, mul[t, c]], c], axis=1)
        num = np.concatenate([add[b, mul[t, d]], d], axis=1)
        return np.where(den == 0, q, mul[num, inv[den]])

    def elements_with_constraints(self, pairs) -> list[Element]:
        """All elements of PGL(2,q) sending src -> tgt for each (src, tgt)
        pair, sorted.

        One to three constraints on points 0..q; sources must be pairwise
        distinct, likewise targets.  With two constraints PGL(2,q) has
        exactly q-1 solutions and with three exactly one (sharp
        3-transitivity).
        """
        pgl = self.elements("pgl")
        return sorted(pgl[i] for i in np.flatnonzero(self.constraint_mask(pairs)).tolist())

    def constraint_mask(self, pairs) -> np.ndarray:
        """The elements of `elements_with_constraints` as a boolean mask over
        `elements("pgl")`: the intersection of the cosets {g : src^g = tgt},
        each read off one contiguous column of `pgl_images`."""
        pairs = list(pairs)
        if not 1 <= len(pairs) <= 3:
            raise InvalidConstraintError("need 1 to 3 constraints")
        for pair in pairs:
            for pt in pair:
                if not isinstance(pt, int) or not 0 <= pt <= self.q:
                    raise InvalidConstraintError(f"{pt!r} is not a point of PG(1,{self.q})")
        if len({s for s, _ in pairs}) != len(pairs) or len({t for _, t in pairs}) != len(pairs):
            raise InvalidConstraintError("repeated source or target point")
        columns = self.pgl_images().T
        return np.logical_and.reduce([columns[src] == tgt for src, tgt in pairs])

    def swap_one_infinity(self) -> Element:
        """The unique element fixing 0 and exchanging 1 with infinity.

        On finite points b not in {0, 1} it acts as b -> b / (b - 1), and it
        is an involution.
        """
        (g,) = self.elements_with_constraints(
            [(0, 0), (1, self.infinity), (self.infinity, 1)]
        )
        return g
