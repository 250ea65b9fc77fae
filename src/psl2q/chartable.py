"""The complex character table of PGL(2,q) over exact cyclotomic numbers.

Rows are the two linear characters, the two degree-q characters, the
cuspidal family (degree q-1, indexed by characters of F_(q^2)*/F_q* up to
inversion) and the principal series (degree q+1, indexed by characters of
GF(q)* up to inversion).  Columns follow the canonical conjugacy class
order of `PGL2.class_labels`.

The sign function delta on a class is computed from an explicit class
representative: +1 when the representative lies in PSL(2,q), else -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum
from .errors import IdentityViolationError
from .fields import MultCharB, MultCharFq
from .groups import PGL2, ClassLabel


@dataclass(frozen=True)
class IrreducibleChar:
    kind: str  # lambda1 | lambda_minus1 | psi1 | psi_minus1 | eta | nu
    param: MultCharB | MultCharFq | None
    degree: int

    def name(self) -> str:
        if self.kind in ("eta", "nu"):
            return f"{self.kind}[{self.param.exponent}]"
        return self.kind


class CharTable:
    def __init__(self, group: PGL2):
        if group.q < 5:
            raise ValueError("character table construction requires q >= 5")
        self.group = group
        self.ctx = group.ctx
        q = group.q
        self.q = q
        self.order = q**3 - q
        self.conductor = math.lcm(q - 1, q + 1)

        self.classes: list[ClassLabel] = group.class_labels()
        self.class_index = {lab: i for i, lab in enumerate(self.classes)}
        self.sizes = [group.class_size(lab) for lab in self.classes]
        if sum(self.sizes) != self.order:
            raise IdentityViolationError(f"class sizes sum to {sum(self.sizes)}, not |G| = {self.order}")
        self.representatives = [group.class_representative(lab) for lab in self.classes]
        self.delta = [1 if group.in_psl(rep) else -1 for rep in self.representatives]

        self.chars: list[IrreducibleChar] = (
            [
                IrreducibleChar("lambda1", None, 1),
                IrreducibleChar("lambda_minus1", None, 1),
                IrreducibleChar("psi1", None, q),
                IrreducibleChar("psi_minus1", None, q),
            ]
            + [IrreducibleChar("eta", beta, q - 1) for beta in self.ctx.beta_set()]
            + [IrreducibleChar("nu", gamma, q + 1) for gamma in self.ctx.gamma_set()]
        )
        if len(self.chars) != len(self.classes):
            raise IdentityViolationError(
                f"{len(self.chars)} irreducible characters but {len(self.classes)} classes"
            )
        self._char_index = {chi: i for i, chi in enumerate(self.chars)}
        self.values = [self._build_row(chi) for chi in self.chars]

    def _build_row(self, chi: IrreducibleChar) -> list[CycNum]:
        q = self.q
        one = CycNum.rational(1)
        row: list[CycNum] = []
        for col, lab in enumerate(self.classes):
            d = self.delta[col]
            if chi.kind == "lambda1":
                v = one
            elif chi.kind == "lambda_minus1":
                v = CycNum.rational(d)
            elif chi.kind == "psi1":
                v = CycNum.rational(
                    {"identity": q, "unipotent": 0, "split": 1, "split_minus_one": 1,
                     "nonsplit": -1, "nonsplit_i": -1}[lab.kind]
                )
            elif chi.kind == "psi_minus1":
                if lab.kind == "identity":
                    v = CycNum.rational(q)
                elif lab.kind == "unipotent":
                    v = CycNum.rational(0)
                elif lab.kind in ("split", "split_minus_one"):
                    v = CycNum.rational(d)
                else:
                    v = CycNum.rational(-d)
            elif chi.kind == "eta":
                k = chi.param.exponent
                if lab.kind == "identity":
                    v = CycNum.rational(q - 1)
                elif lab.kind == "unipotent":
                    v = CycNum.rational(-1)
                elif lab.kind in ("split", "split_minus_one"):
                    v = CycNum.zero()
                elif lab.kind == "nonsplit_i":
                    v = CycNum.rational(-2 * chi.param.sign_at_i())
                else:
                    j = lab.param
                    v = -(CycNum.root_of_unity(q + 1, k * j) + CycNum.root_of_unity(q + 1, -k * j))
            else:  # nu
                k = chi.param.exponent
                if lab.kind == "identity":
                    v = CycNum.rational(q + 1)
                elif lab.kind == "unipotent":
                    v = one
                elif lab.kind == "split_minus_one":
                    v = CycNum.rational(2 * (-1 if k % 2 else 1))
                elif lab.kind == "split":
                    e = lab.param
                    v = CycNum.root_of_unity(q - 1, k * e) + CycNum.root_of_unity(q - 1, -k * e)
                else:
                    v = CycNum.zero()
            row.append(v)
        return row

    # -- evaluation -----------------------------------------------------------

    def char_index(self, chi: IrreducibleChar) -> int:
        try:
            return self._char_index[chi]
        except KeyError:
            raise ValueError(f"{chi} is not a character of this table") from None

    def value_on_class(self, chi: IrreducibleChar, label: ClassLabel) -> CycNum:
        return self.values[self.char_index(chi)][self.class_index[label]]

    def char_value(self, chi: IrreducibleChar, g) -> CycNum:
        return self.value_on_class(chi, self.group.classify(g))

    def class_sum(self, chi: IrreducibleChar, counts) -> CycNum:
        """sum over classes c of counts[c] * chi(c), one integer count per class
        in `classes` order: chi summed over a set of elements."""
        row = self.values[self.char_index(chi)]
        return sum((v * int(n) for v, n in zip(row, counts, strict=True) if n), CycNum.zero())

    # -- class functions --------------------------------------------------------

    def inner_product(self, u: list[CycNum], v: list[CycNum]) -> CycNum:
        """(1/|G|) sum over classes of size * u * conj(v)."""
        acc = CycNum.zero()
        for size, x, y in zip(self.sizes, u, v):
            acc = acc + x * y.conjugate() * size
        return acc * Fraction(1, self.order)

    def permutation_character(self) -> list[CycNum]:
        """Character of the module spanned by ordered pairs of distinct points:
        the number of fixed ordered pairs, per class."""
        q = self.q
        by_kind = {"identity": q * (q + 1), "unipotent": 0, "split": 2,
                   "split_minus_one": 2, "nonsplit": 0, "nonsplit_i": 0}
        return [CycNum.rational(by_kind[lab.kind]) for lab in self.classes]

    def decompose(self, class_function: list[CycNum]) -> dict[str, Fraction]:
        """Multiplicity of each irreducible in a class function."""
        out = {}
        for chi, row in zip(self.chars, self.values):
            m = self.inner_product(class_function, row)
            out[chi.name()] = m.as_fraction()
        return out


def build_table(group: PGL2) -> CharTable:
    return CharTable(group)
