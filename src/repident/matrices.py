"""Dense matrices over Cyc with exact linear algebra.

Internal plumbing shared by the representation and evaluation layers.
All operations are pure; matrices are immutable once built.  A monomial
fast path (one nonzero entry per row) keeps products of induced /
permutation-style representation images cheap.
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
        one = Cyc.one(conductor)
        zero = Cyc.zero(conductor)
        return Mat(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(n: int, conductor: int = 1) -> "Mat":
        zero = Cyc.zero(conductor)
        return Mat(tuple(tuple(zero for _ in range(n)) for _ in range(n)))

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
        for i, r in enumerate(self.rows):
            for j, v in enumerate(r):
                if i == j:
                    if v != 1:
                        return False
                elif not v.is_zero():
                    return False
        return True

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
        work = [list(r) + list(identity[i]) for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not work[r][col].is_zero():
                    piv = r
                    break
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            work[col], work[piv] = work[piv], work[col]
            inv = work[col][col].inverse()
            work[col] = [inv * v for v in work[col]]
            for r in range(n):
                if r != col and not work[r][col].is_zero():
                    f = work[r][col]
                    work[r] = [work[r][j] - f * work[col][j] for j in range(2 * n)]
        return Mat(tuple(tuple(row[n:]) for row in work))

    def det(self) -> Cyc:
        n = self.n
        work = [list(r) for r in self.rows]
        det = Cyc.one()
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not work[r][col].is_zero():
                    piv = r
                    break
            if piv is None:
                return Cyc.zero()
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det
            det = det * work[col][col]
            inv = work[col][col].inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    f = inv * work[r][col]
                    work[r] = [work[r][j] - f * work[col][j] for j in range(n)]
        return det

    # -- serialization --------------------------------------------------

    def to_json(self) -> list:
        return [v.to_json() for r in self.rows for v in r]

    @staticmethod
    def from_json(entries: list, n: int) -> "Mat":
        vals = [Cyc.from_json(e) for e in entries]
        return Mat(tuple(tuple(vals[i * n + j] for j in range(n)) for i in range(n)))


def rref(rows: list[list[Cyc]]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row echelon form of a rectangular Cyc matrix; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for k in range(r, m):
            if not rows[k][col].is_zero():
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * v for v in rows[r]]
        for k in range(m):
            if k != r and not rows[k][col].is_zero():
                f = rows[k][col]
                rows[k] = [rows[k][j] - f * rows[r][j] for j in range(ncols)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return rows, pivots


def column_space_basis(mat_rows: list[list[Cyc]]) -> list[list[Cyc]]:
    """Columns of the input spanning its column space (as column vectors)."""
    _, pivots = rref([list(r) for r in mat_rows])
    return [[row[j] for row in mat_rows] for j in pivots]
