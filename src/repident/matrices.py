"""Dense matrices over Cyc with exact linear algebra.

Internal plumbing shared by the representation and evaluation layers.
All operations are pure; matrices are immutable once built.  A monomial
fast path (one nonzero entry per row) keeps products of induced /
permutation-style representation images cheap.  One Gauss-Jordan
elimination serves `rref`, `Mat.inverse` (on [A | I]) and `Mat.det`
(the signed product of its pivots).
"""

from __future__ import annotations

from .exactnum import Cyc


class Mat:
    __slots__ = ("n", "rows", "_mono")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        self.n = len(rows)
        for r in rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")
        self.rows = rows
        self._mono = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int, conductor: int = 1) -> "Mat":
        return Mat.scalar(n, Cyc.one(conductor))

    @staticmethod
    def zeros(n: int, conductor: int = 1) -> "Mat":
        return Mat.scalar(n, Cyc.zero(conductor))

    @staticmethod
    def scalar(n: int, value: Cyc) -> "Mat":
        zero = Cyc.zero(value.conductor)
        return Mat(tuple(tuple(value if i == j else zero for j in range(n)) for i in range(n)))

    # -- structure ------------------------------------------------------

    def monomial_form(self):
        """[(col, value)] per row when each row has exactly one nonzero entry."""
        if self._mono is None:
            form = []
            for r in self.rows:
                nz = [(j, v) for j, v in enumerate(r) if not v.is_zero()]
                if len(nz) != 1:
                    form = False
                    break
                form.append(nz[0])
            self._mono = form if form is not False else False
        return self._mono

    def is_zero(self) -> bool:
        return all(v.is_zero() for r in self.rows for v in r)

    def is_identity(self) -> bool:
        return self.is_scalar() == 1

    def is_scalar(self):
        """The scalar c when the matrix equals c*I, else None."""
        c = self.rows[0][0]
        for i, r in enumerate(self.rows):
            for j, v in enumerate(r):
                if i == j:
                    if v != c:
                        return None
                elif not v.is_zero():
                    return None
        return c

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.n != other.n:
            return False
        return all(
            self.rows[i][j] == other.rows[i][j] for i in range(self.n) for j in range(self.n)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        body = "; ".join(", ".join(repr(v) for v in r) for r in self.rows)
        return f"Mat({self.n}x{self.n}: {body})"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(
            tuple(
                tuple(self.rows[i][j] + other.rows[i][j] for j in range(self.n))
                for i in range(self.n)
            )
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(
            tuple(
                tuple(self.rows[i][j] - other.rows[i][j] for j in range(self.n))
                for i in range(self.n)
            )
        )

    def __neg__(self) -> "Mat":
        return Mat(tuple(tuple(-v for v in r) for r in self.rows))

    def scale(self, c: Cyc) -> "Mat":
        return Mat(tuple(tuple(c * v for v in r) for r in self.rows))

    def __mul__(self, other: "Mat") -> "Mat":
        n = self.n
        ma, mb = self.monomial_form(), other.monomial_form()
        if ma and mb:
            # (row i) -> col ma[i][0] with value ma[i][1]; compose
            out_rows = []
            zero = Cyc.zero()
            for i in range(n):
                k, va = ma[i]
                j, vb = mb[k]
                val = va * vb
                row = [zero] * n
                row[j] = val
                out_rows.append(tuple(row))
            m = Mat(tuple(out_rows))
            return m
        rows_a, rows_b = self.rows, other.rows
        out = []
        for i in range(n):
            ra = rows_a[i]
            acc: list = [None] * n
            for k in range(n):
                a = ra[k]
                if a.is_zero():
                    continue
                rb = rows_b[k]
                for j in range(n):
                    b = rb[j]
                    if b.is_zero():
                        continue
                    p = a * b
                    acc[j] = p if acc[j] is None else acc[j] + p
            out.append(tuple(v if v is not None else Cyc.zero() for v in acc))
        return Mat(tuple(out))

    def pow_int(self, e: int) -> "Mat":
        if e < 0:
            return self.inverse().pow_int(-e)
        result = Mat.identity(self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def trace(self) -> Cyc:
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def transpose(self) -> "Mat":
        return Mat(tuple(tuple(self.rows[j][i] for j in range(self.n)) for i in range(self.n)))

    def conj_transpose(self) -> "Mat":
        return Mat(
            tuple(tuple(self.rows[j][i].conjugate() for j in range(self.n)) for i in range(self.n))
        )

    def galois(self, t: int) -> "Mat":
        return Mat(tuple(tuple(v.galois(t) for v in r) for r in self.rows))

    # -- exact elimination ----------------------------------------------

    def inverse(self) -> "Mat":
        n = self.n
        identity = Mat.identity(n).rows
        rows, pivots, _, _ = _gauss_jordan([r + identity[i] for i, r in enumerate(self.rows)], n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return Mat(tuple(tuple(row[n:]) for row in rows))

    def det(self) -> Cyc:
        _, pivots, values, sign = _gauss_jordan(self.rows, self.n)
        if len(pivots) < self.n:
            return Cyc.zero()
        det = Cyc.from_rational(sign)
        for v in values:
            det = det * v
        return det

    # -- serialization --------------------------------------------------

    def to_json(self) -> list:
        return [v.to_json() for r in self.rows for v in r]

    @staticmethod
    def from_json(entries: list, n: int) -> "Mat":
        vals = [Cyc.from_json(e) for e in entries]
        return Mat(tuple(tuple(vals[i * n + j] for j in range(n)) for i in range(n)))


def _gauss_jordan(rows, ncols: int):
    """Gauss-Jordan elimination of a rectangular Cyc matrix, pivoting on
    its first ncols columns.

    Returns (reduced rows, pivot columns, pivot values, sign): each pivot
    value is the entry its row was divided by, and sign is -1 to the number
    of row swaps, so a square matrix at full rank has determinant sign
    times the product of the pivot values.  Left of its pivot a pivot row
    is zero, so each row operation starts at the pivot column.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    values: list[Cyc] = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((k for k in range(r, m) if not rows[k][col].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        value = rows[r][col]
        inv = value.inverse()
        prow = rows[r] = rows[r][:col] + [inv * v for v in rows[r][col:]]
        for k in range(m):
            f = rows[k][col]
            if k != r and not f.is_zero():
                row = rows[k]
                rows[k] = row[:col] + [row[j] - f * prow[j] for j in range(col, width)]
        pivots.append(col)
        values.append(value)
    return rows, pivots, values, sign


def rref(rows: list[list[Cyc]]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row echelon form of a rectangular Cyc matrix; returns (rows, pivot columns)."""
    reduced, pivots, _, _ = _gauss_jordan(rows, len(rows[0]) if rows else 0)
    return reduced, pivots


def column_space_basis(mat_rows: list[list[Cyc]]) -> list[list[Cyc]]:
    """Columns of the input spanning its column space (as column vectors)."""
    _, pivots = rref([list(r) for r in mat_rows])
    return [[row[j] for row in mat_rows] for j in pivots]
