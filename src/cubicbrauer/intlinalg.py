"""Exact integer linear algebra: Smith normal form and elementary divisors.

Everything is computed over Z with Python's arbitrary-precision integers;
no floating point enters this module.  Matrices are tiny (the largest
routine inputs are a few dozen rows), so the classical elimination with
minimal-absolute-value pivoting is entirely adequate.

One elimination loop serves two routes.  :func:`snf` also carries the
unimodular transforms U and V, which ``IntMatrix.inverse_unimodular``
and ``cubiclattice.boundary_quotient`` read.  :func:`elementary_divisors`
runs the same loop without them, on the transpose of the nonzero rows of
the matrix once every entry +-1 has been eliminated, and returns only
the diagonal (Cohen, *A Course in Computational Algebraic Number Theory*,
2.4.4); H^1 reads it.  The kernels, cokernels and solutions that only
the second routes of the acceptance suite read live in ``acceptance``.

``IntMatrix(...)`` is the one validating constructor: each entry must be
an integer in the sense of ``operator.index``, so a float, a ``Fraction``
or a string raises ``TypeError``.  Arithmetic on matrices builds its
results from rows that are already tuples of ints and skips that pass.

``FinAbGroup.from_orders`` puts a sum of cyclic groups in canonical form
by replacing pairs of orders with their gcd and lcm, since Z/a + Z/b is
Z/gcd(a, b) + Z/lcm(a, b); no order is factored, so the module needs no
trial division and an order of any size answers.
"""

from __future__ import annotations

from math import gcd
from operator import add, index, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .values import Value


class IntMatrix(Value):
    """Immutable dense integer matrix, stored as a tuple of row tuples.

    The determinant is computed at most once per matrix and kept in the
    ``_det`` slot, a cache that equality and pickles ignore.
    """

    __slots__ = ("data", "_det")

    def __init__(self, data: Iterable[Iterable[int]]):
        rows = tuple(tuple(map(index, row)) for row in data)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "data", rows)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """Wrap rows that are already equal-length tuples of Python ints."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", rows)
        return m

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls._from_rows(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> IntMatrix:
        cols = [tuple(map(index, c)) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("need explicit row count for an empty column list")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ValueError("column length mismatch")
        if not cols:
            return cls._from_rows(((),) * rows)
        return cls._from_rows(tuple(zip(*cols)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = tuple(zip(*other.data))
        return IntMatrix._from_rows(
            tuple(tuple([sum(map(mul, row, col)) for col in ot]) for row in self.data)
        )

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple([sum(map(mul, row, vec)) for row in self.data])

    def __add__(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix._from_rows(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.data, other.data))
        )

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix._from_rows(
            tuple(tuple(map(sub, r1, r2)) for r1, r2 in zip(self.data, other.data))
        )

    def scaled(self, k: int) -> IntMatrix:
        k = index(k)
        return IntMatrix._from_rows(tuple(tuple([k * a for a in r]) for r in self.data))

    @staticmethod
    def hstack(*blocks: "IntMatrix") -> "IntMatrix":
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("row count mismatch")
        return IntMatrix._from_rows(
            tuple(sum((b.data[i] for b in blocks), ()) for i in range(rows))
        )

    @staticmethod
    def vstack(*blocks: "IntMatrix") -> "IntMatrix":
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column count mismatch")
        return IntMatrix._from_rows(tuple(row for b in blocks for row in b.data))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def det(self) -> int:
        """Fraction-free Bareiss determinant, computed once per matrix."""
        try:
            return self._det
        except AttributeError:
            pass
        d = self._bareiss()
        object.__setattr__(self, "_det", d)
        return d

    def _bareiss(self) -> int:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.is_square() and self.det() in (1, -1)

    def inverse_unimodular(self) -> IntMatrix:
        """Exact inverse of a unimodular matrix (via its Smith form)."""
        form = snf(self)
        if not form.S.is_identity():
            raise ValueError("matrix is not unimodular")
        return form.V @ form.U

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"


class SmithForm(NamedTuple):
    """U @ A @ V = S with U, V unimodular and S the Smith normal form of A."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.S.data[i][i] for i in range(min(self.S.rows, self.S.cols))
        )

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _smith_eliminate(
    s: list[list[int]], u: list[list[int]] | None, v: list[list[int]] | None
) -> None:
    """Reduce the rows s in place to Smith normal form.

    Elimination with minimal-|entry| pivoting; each row operation is also
    applied to u and each column operation to v, unless they are None.
    The diagonal ends non-negative and forms a divisibility chain.
    """
    m = len(s)
    n = len(s[0]) if s else 0

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        if u is not None:
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        if v is not None:
            for row in v:
                row[dst] += c * row[src]

    for t in range(min(m, n)):
        # minimal-absolute-value pivot in the trailing block, first in row order
        pivot = None
        best = 0
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
            if best == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            # clear the pivot column
            for i in range(t + 1, m):
                if s[i][t]:
                    add_row(i, t, -(s[i][t] // s[t][t]))
            stray = next((i for i in range(t + 1, m) if s[i][t]), None)
            if stray is not None:
                swap_rows(t, stray)  # strictly smaller pivot
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if s[t][j]:
                    add_col(j, t, -(s[t][j] // s[t][t]))
            stray = next((j for j in range(t + 1, n) if s[t][j]), None)
            if stray is not None:
                swap_cols(t, stray)
                continue
            # enforce divisibility of the remaining block by the pivot
            d = s[t][t]
            if d in (1, -1):  # a unit divides every entry
                break
            bad = next(
                (i for i in range(t + 1, m) if any(x % d for x in s[i][t + 1 :])),
                None,
            )
            if bad is None:
                break
            add_row(t, bad, 1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]


def snf(a: IntMatrix) -> SmithForm:
    """Smith normal form, with U and V collecting the row and column operations.

    The returned diagonal is non-negative and forms a divisibility chain
    d1 | d2 | ... .
    """
    m, n = a.rows, a.cols
    s = [list(r) for r in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _smith_eliminate(s, u, v)
    return SmithForm(*(IntMatrix._from_rows(tuple(map(tuple, x))) for x in (u, s, v)))


def _eliminate_unit_pivots(s: list[list[int]]) -> int:
    """Take out of the rows s, in place, a row and a column per entry +-1; return how many.

    A unit pivot clears its column by row operations; the column
    operations that would then clear its row change no other entry, so
    the pivot's row and column are deleted, each adding an elementary
    divisor 1, and the rest has the same Smith form as before.  The loop
    stops when no entry +-1 is left, including one that elimination made.
    """
    count = 0
    while True:
        for i, pivot in enumerate(s):
            if 1 in pivot:
                j = pivot.index(1)
                break
            if -1 in pivot:
                j = pivot.index(-1)
                break
        else:
            return count
        del s[i]
        for k, row in enumerate(s):
            c = row[j] * pivot[j]  # pivot[j] is its own inverse
            if c:
                s[k] = [x - c * y for x, y in zip(row, pivot)]
        for row in s:
            del row[j]
        count += 1


def elementary_divisors(a: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith normal form of A, without U and V.

    Equal to ``snf(a).diagonal()``.  The elimination runs on the transpose
    of the nonzero rows of A: a zero row adds no elementary divisor, and a
    matrix and its transpose have the same ones, so only the number of
    trailing zeros, min(rows, cols) - rank, is taken from A's shape.  The
    stacked (g - 1) matrices of H^1 are tall, and the elimination runs
    faster on their wide transposes.  Every entry +-1 is eliminated first,
    with no search for a least pivot, and the Smith loop runs only on the
    block that is left, which has no unit entry.
    """
    s = [list(col) for col in zip(*filter(any, a.data))]
    ones = _eliminate_unit_pivots(s)
    _smith_eliminate(s, None, None)
    nonzero = [row[i] for i, row in enumerate(s) if i < len(row) and row[i]]
    return (*(1,) * ones, *nonzero, *(0,) * (min(a.rows, a.cols) - ones - len(nonzero)))


class FinAbGroup(Value):
    """Isomorphism type of a finitely generated abelian group.

    ``invariant_factors`` is the canonical divisibility chain (no unit
    factors); equality of values is isomorphism of groups.  The rank and
    the factors are integers in the sense of ``operator.index``, so a
    float or a string raises ``TypeError``.
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: Iterable[int] = ()):
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("negative free rank")
        fac = tuple(map(index, invariant_factors))
        if any(d <= 1 for d in fac):
            raise ValueError("invariant factors must exceed 1")
        if any(fac[i + 1] % fac[i] for i in range(len(fac) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", fac)

    @classmethod
    def trivial(cls) -> FinAbGroup:
        return cls(0, ())

    @classmethod
    def from_orders(cls, orders: Iterable[int], free_rank: int = 0) -> FinAbGroup:
        """Canonicalize an arbitrary direct sum of cyclic groups, with no factoring.

        Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b).  Each order enters the chain
        d1 | ... | dk from the top: dk becomes lcm(dk, x) and gcd(dk, x) is
        carried down to d(k-1), and so on.  Each step keeps the group and
        the chain, so the result is the unique chain of invariant factors.
        """
        chain: list[int] = []  # descending: each entry divides the one before
        for x in orders:
            x = index(x)
            if x <= 0:
                raise ValueError("cyclic orders must be positive")
            for i, top in enumerate(chain):
                if x == 1:
                    break
                g = gcd(top, x)
                chain[i] = top // g * x
                x = g
            if x > 1:
                chain.append(x)
        chain.reverse()  # ascending divisibility chain
        return cls(free_rank, chain)

    def direct_sum(self, other: FinAbGroup) -> FinAbGroup:
        return FinAbGroup.from_orders(
            list(self.invariant_factors) + list(other.invariant_factors),
            self.free_rank + other.free_rank,
        )

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite():
            raise ValueError("infinite group")
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "factors": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, obj: dict) -> FinAbGroup:
        return cls(obj["free_rank"], obj["factors"])

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


__all__ = [
    "FinAbGroup",
    "IntMatrix",
    "SmithForm",
    "elementary_divisors",
    "snf",
]
