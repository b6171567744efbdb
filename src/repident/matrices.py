"""Dense matrices over Cyc with exact linear algebra.

Internal plumbing shared by the representation and evaluation layers.
All operations are pure; matrices are immutable once built.  One
Gauss-Jordan elimination serves `rref`, `Mat.inverse` (on [A | I]) and
`Mat.det` (the signed product of its pivots).

A matrix whose entries all have conductor 1 also has an integer form:
one positive denominator and n^2 integer numerators with no factor
common to all of them.  `Mat.rational`, and `Mat.scalar` of a conductor-1
value, make a matrix in that form.  `+`, `-`, `*`, `scale` by a
conductor-1 scalar and `inverse` (n <= 2: the adjugate over the
determinant) compute on it, and reduce the result by the gcd, when every
operand has one; a matrix built from rows gets its form the first time
one of them, or `==`, asks.  `trace`, `is_zero` and `is_scalar` read the
form when it is there.  A matrix made in integer form builds its rows, of
canonical conductor-1 `Cyc`s, only when something reads `.rows` (a
witness, or an operand of another conductor, which keeps the `Cyc`
path).  Rational values stored at a higher conductor keep the `Cyc` path
as well, so every entry keeps its conductor.
"""

from __future__ import annotations

from math import gcd, lcm

from .exactnum import Cyc


class Mat:
    # _q: the integer form (den, numerators row by row), False when an entry
    # has another conductor, None until it is first needed
    __slots__ = ("n", "rows", "_q")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        self.n = len(rows)
        for r in rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")
        self.rows = rows
        self._q = None

    def __getattr__(self, name):
        # only a matrix made in integer form lacks rows; build them once
        if name != "rows":
            raise AttributeError(name)
        n = self.n
        den, nums = self._q
        entries = [_rational_cyc(v, den) for v in nums]
        self.rows = tuple(tuple(entries[i:i + n]) for i in range(0, n * n, n))
        return self.rows

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(rows, den: int = 1) -> "Mat":
        """The matrix rows / den of integer rows over a nonzero integer."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return _from_ints(n, den, tuple(v for r in rows for v in r))

    @staticmethod
    def identity(n: int, conductor: int = 1) -> "Mat":
        return Mat.scalar(n, Cyc.one(conductor))

    @staticmethod
    def zeros(n: int, conductor: int = 1) -> "Mat":
        return Mat.scalar(n, Cyc.zero(conductor))

    @staticmethod
    def scalar(n: int, value: Cyc) -> "Mat":
        if value.conductor == 1:
            v = value.num[0]
            return _from_ints(n, value.den, tuple(v if i == j else 0
                                                  for i in range(n) for j in range(n)))
        zero = Cyc.zero(value.conductor)
        return Mat(tuple(tuple(value if i == j else zero for j in range(n)) for i in range(n)))

    def _ints(self):
        """The integer form (den, numerators), or False; see the module docstring."""
        q = self._q
        if q is None:
            q = self._q = _integer_form(self.rows)
        return q

    # -- structure ------------------------------------------------------

    def monomial_form(self):
        """[(col, value)] per row when each row has exactly one nonzero
        entry, else False."""
        form = []
        for r in self.rows:
            nz = [(j, v) for j, v in enumerate(r) if not v.is_zero()]
            if len(nz) != 1:
                return False
            form.append(nz[0])
        return form

    def is_zero(self) -> bool:
        q = self._q
        if q:
            return not any(q[1])
        return all(v.is_zero() for r in self.rows for v in r)

    def is_identity(self) -> bool:
        return self.is_scalar() == 1

    def is_scalar(self):
        """The scalar c when the matrix equals c*I, else None."""
        q = self._q
        if q:
            n, (den, nums) = self.n, q
            c = nums[0]
            for k, v in enumerate(nums):
                if v != (c if k % (n + 1) == 0 else 0):
                    return None
            return _rational_cyc(c, den)
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
        q = self._ints()
        r = q and other._ints()
        if r:
            return q == r
        return all(
            self.rows[i][j] == other.rows[i][j] for i in range(self.n) for j in range(self.n)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        body = "; ".join(", ".join(repr(v) for v in r) for r in self.rows)
        return f"Mat({self.n}x{self.n}: {body})"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        q = self._ints()
        r = q and other._ints()
        if r:
            return _from_ints(self.n, *_add_ints(q, r, 1))
        return Mat(
            tuple(
                tuple(self.rows[i][j] + other.rows[i][j] for j in range(self.n))
                for i in range(self.n)
            )
        )

    def __sub__(self, other: "Mat") -> "Mat":
        q = self._ints()
        r = q and other._ints()
        if r:
            return _from_ints(self.n, *_add_ints(q, r, -1))
        return Mat(
            tuple(
                tuple(self.rows[i][j] - other.rows[i][j] for j in range(self.n))
                for i in range(self.n)
            )
        )

    def __neg__(self) -> "Mat":
        return Mat(tuple(tuple(-v for v in r) for r in self.rows))

    def scale(self, c: Cyc) -> "Mat":
        q = self._ints()
        if q and isinstance(c, Cyc) and c.conductor == 1:
            k = c.num[0]
            return _from_ints(self.n, q[0] * c.den, tuple(k * v for v in q[1]))
        return Mat(tuple(tuple(c * v for v in r) for r in self.rows))

    def __mul__(self, other: "Mat") -> "Mat":
        n = self.n
        q = self._ints()
        r = q and other._ints()
        if r:
            return _from_ints(n, q[0] * r[0], _mul_ints(n, q[1], r[1]))
        # zero entries are skipped, tested as any(v.num) without a method
        # call per entry: monomial images make most of them zero
        rows_b = other.rows
        zero = Cyc.zero()
        out = []
        for ra in self.rows:
            acc: list = [None] * n
            for a, rb in zip(ra, rows_b):
                if not any(a.num):
                    continue
                for j, b in enumerate(rb):
                    if any(b.num):
                        p = a * b
                        acc[j] = p if acc[j] is None else acc[j] + p
            out.append(tuple(zero if v is None else v for v in acc))
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
        q = self._q
        if q:
            n, nums = self.n, q[1]
            return _rational_cyc(sum(nums[::n + 1]), q[0])
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
        q = self._ints()
        if q and n <= 2:
            # (N / den)^-1 = den adj(N) / det(N)
            den, nums = q
            if n == 1:
                det, adj = nums[0], (1,)
            else:
                a, b, c, d = nums
                det, adj = a * d - b * c, (d, -b, -c, a)
            if det == 0:
                raise ZeroDivisionError("matrix is singular")
            return _from_ints(n, det, tuple(den * v for v in adj))
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


# -- the integer form ------------------------------------------------------


def _rational_cyc(v: int, den: int) -> Cyc:
    """v / den (den > 0) as a canonical conductor-1 Cyc."""
    g = gcd(v, den)
    return Cyc(1, (v // g,), den // g, _raw=True)


def _from_ints(n: int, den: int, nums: tuple) -> Mat:
    """The matrix of numerators nums (row by row) over den, made canonical:
    a positive denominator with no factor common to every numerator."""
    if den < 0:
        den, nums = -den, tuple(-v for v in nums)
    g = gcd(den, *nums)
    if g != 1:
        den, nums = den // g, tuple(v // g for v in nums)
    m = Mat.__new__(Mat)
    m.n, m._q = n, (den, nums)
    return m


def _integer_form(rows):
    """(den, numerators) of rows whose entries all have conductor 1, over
    the lcm of their denominators (already canonical); False otherwise."""
    den = 1
    for r in rows:
        for v in r:
            if v.conductor != 1:
                return False
            den = lcm(den, v.den)
    return den, tuple(v.num[0] * (den // v.den) for r in rows for v in r)


def _add_ints(q, r, sign: int):
    """(den, numerators) of q + sign r."""
    (da, a), (db, b) = q, r
    if da == db:
        return da, tuple(x + sign * y for x, y in zip(a, b))
    return da * db, tuple(x * db + sign * y * da for x, y in zip(a, b))


def _mul_ints(n: int, a: tuple, b: tuple) -> tuple:
    """Numerators of the product of two n x n numerator tuples."""
    if n == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)
    out: list[int] = []
    for i in range(0, n * n, n):
        acc = [0] * n
        for k, x in enumerate(a[i:i + n]):
            if x:
                for j, y in enumerate(b[k * n:k * n + n]):
                    if y:
                        acc[j] += x * y
        out += acc
    return tuple(out)


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
