from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repident.exactnum import Cyc, cyc_root_of_unity, euler_phi
from repident.matrices import Mat, column_space_basis, rref


def _m(entries):
    return Mat(tuple(tuple(Cyc.from_rational(Fraction(v)) for v in row) for row in entries))


def test_arithmetic():
    a = _m([[1, 2], [3, 4]])
    b = _m([[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert a * Mat.identity(2) == a
    assert (a * b).rows[0][0] == 2
    assert a.trace() == 5
    assert (-a).rows[1][0] == -3


def test_inverse_and_det():
    a = _m([[1, 2], [3, 4]])
    assert a.det() == -2
    inv = a.inverse()
    assert a * inv == Mat.identity(2)
    singular = _m([[1, 2], [2, 4]])
    assert singular.det().is_zero()
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_monomial_fast_path():
    i = cyc_root_of_unity(4, 1)
    zero = Cyc.zero(4)
    a = Mat(((zero, i), (i, zero)))
    assert a.monomial_form()
    b = a * a
    assert b.is_scalar() == -1


def test_conj_transpose_and_galois():
    i = cyc_root_of_unity(4, 1)
    zero = Cyc.zero(4)
    a = Mat(((i, zero), (zero, -i)))
    assert a.conj_transpose() * a == Mat.identity(2)
    assert a.galois(3) == a.conj_transpose().transpose()


def test_scalar_detection():
    assert Mat.identity(3).is_scalar() == 1
    assert Mat.scalar(2, Cyc.from_rational(Fraction(5, 2))).is_scalar() == Fraction(5, 2)
    assert _m([[1, 1], [0, 1]]).is_scalar() is None


def test_pow_int():
    a = _m([[1, 1], [0, 1]])
    assert a.pow_int(5).rows[0][1] == 5
    assert a.pow_int(-2) == a.inverse() * a.inverse()
    assert a.pow_int(0).is_identity()


def test_rref_and_column_space():
    rows = [[Cyc.from_rational(v) for v in row] for row in ([1, 2, 3], [2, 4, 6], [1, 0, 1])]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    basis = column_space_basis(rows)
    assert len(basis) == 2


def test_json_round_trip():
    a = _m([[1, 2], [3, 4]])
    assert Mat.from_json(a.to_json(), 2) == a


def _fraction_rref(rows):
    """Reference Gauss-Jordan elimination over Fractions: (rows, pivot columns)."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows, pivots


def _laplace_det(rows):
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


_entries = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def rational_rows(draw, square=False):
    """1..4 rows of Fractions; with a coin flip the last row is a multiple of
    the first, so singular and rank-deficient inputs are common."""
    m = draw(st.integers(min_value=1, max_value=4))
    width = m if square else draw(st.integers(min_value=1, max_value=4))
    rows = [draw(st.lists(_entries, min_size=width, max_size=width)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        c = draw(_entries)
        rows[-1] = [c * v for v in rows[0]]
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_rows())
def test_rref_matches_fraction_reference(rows):
    reduced, pivots = rref([[Cyc.from_rational(v) for v in r] for r in rows])
    want_rows, want_pivots = _fraction_rref(rows)
    assert pivots == want_pivots
    assert [[v.rational_value() for v in r] for r in reduced] == want_rows


@settings(max_examples=150, deadline=None)
@given(rational_rows(square=True))
def test_inverse_and_det_match_fraction_reference(rows):
    n, a = len(rows), _m(rows)
    det = _laplace_det(rows)
    assert a.det() == det
    if det == 0:
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            a.inverse()
    else:
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        reduced, _ = _fraction_rref([r + identity[i] for i, r in enumerate(rows)])
        assert a.inverse() == _m([r[n:] for r in reduced])


@st.composite
def cyclotomic_pairs(draw):
    """Two square matrices of size 1..3 over Q(zeta_n), n in {4, 5, 12, 21};
    entries are zero with a coin flip, and a matrix may have its last row a
    multiple of its first."""
    n = draw(st.sampled_from([4, 5, 12, 21]))
    size = draw(st.integers(min_value=1, max_value=3))
    phi = euler_phi(n)

    def entry():
        if draw(st.booleans()):
            return Cyc.zero(n)
        coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=phi,
                               max_size=phi))
        return Cyc(n, tuple(coeffs), draw(st.integers(min_value=1, max_value=3)))

    def matrix():
        rows = [[entry() for _ in range(size)] for _ in range(size)]
        if size > 1 and draw(st.booleans()):
            c = entry()
            rows[-1] = [c * v for v in rows[0]]
        return Mat(rows)

    return matrix(), matrix()


@settings(max_examples=40, deadline=None)
@given(cyclotomic_pairs())
def test_cyclotomic_inverse_and_det(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det()
    for m in (a, b):
        if m.det().is_zero():
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                m.inverse()
        else:
            assert m * m.inverse() == Mat.identity(m.n)


# -- the integer form, against entry-by-entry Cyc arithmetic ----------------------


def _triples(rows):
    return [[(v.conductor, v.num, v.den) for v in r] for r in rows]


def _cyc_det(rows):
    """Laplace expansion in Cyc arithmetic."""
    acc = Cyc.one()
    if rows:
        acc = Cyc.zero()
        for j, v in enumerate(rows[0]):
            term = v * _cyc_det([r[:j] + r[j + 1:] for r in rows[1:]])
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _cyc_product(a, b):
    """Entry i, j is the Cyc sum of the nonzero products a[i][k] b[k][j], or
    the conductor-1 zero when there are none."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [a[i][k] * b[k][j] for k in range(n)
                     if not a[i][k].is_zero() and not b[k][j].is_zero()]
            row.append(sum(terms[1:], terms[0]) if terms else Cyc.zero())
        out.append(row)
    return out


@st.composite
def integer_forms(draw, n):
    """(numerator rows, den) of an n x n rational matrix: entries are zero
    with a coin flip, numerators and denominators reach 10^15 and 10^12, the
    denominator may be negative, and the matrix may be scalar or have its last
    row a multiple of its first."""
    den = draw(st.one_of(st.integers(1, 12), st.integers(10**9, 10**12)))
    den *= draw(st.sampled_from([1, -1]))
    entry = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-10**15, 10**15))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["dense", "singular", "scalar"]))
    if shape == "singular":
        c = draw(st.integers(-3, 3))
        rows[-1] = [c * v for v in rows[0]]
    elif shape == "scalar":
        rows = [[rows[0][0] if i == j else 0 for j in range(n)] for i in range(n)]
    return rows, den


@st.composite
def integer_form_pairs(draw):
    """Two matrices of one size 1..3 (each made by Mat.rational or from Cyc
    rows), their entries as Cyc rows, and a rational scalar, zero included."""
    n = draw(st.integers(1, 3))
    out = []
    for _ in range(2):
        nums, den = draw(integer_forms(n))
        rows = [[Cyc.from_rational(Fraction(v, den)) for v in r] for r in nums]
        out.append((Mat.rational(nums, den) if draw(st.booleans()) else Mat(rows), rows))
    c = draw(st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**6)))
    return out, Cyc.from_rational(c)


@settings(max_examples=200, deadline=None)
@given(integer_form_pairs())
def test_integer_form_matches_cyc_entries(case):
    ((a, ra), (b, rb)), c = case
    n = len(ra)
    want = {
        "+": [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)],
        "-": [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)],
        "*": _cyc_product(ra, rb),
        "scale": [[c * v for v in r] for r in ra],
        "neg": [[-v for v in r] for r in ra],
    }
    got = {"+": a + b, "-": a - b, "*": a * b, "scale": a.scale(c), "neg": -a}
    for op, rows in want.items():
        assert _triples(got[op].rows) == _triples(rows), op
        assert got[op].is_zero() == all(v.is_zero() for r in rows for v in r), op
    assert _triples([[a.trace()]]) == _triples([[sum((ra[i][i] for i in range(n)), Cyc.zero())]])
    diagonal = {_triples([[ra[i][i]]])[0][0] for i in range(n)}
    off_zero = all(ra[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
    scalar = a.is_scalar()
    if off_zero and len(diagonal) == 1:
        assert _triples([[scalar]]) == _triples([[ra[0][0]]])
    else:
        assert scalar is None
    assert (a == b) == (_triples(ra) == _triples(rb))
    assert a == Mat(ra) and Mat(ra) == a
    det = _cyc_det(ra)
    if det.is_zero():
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            a.inverse()
    else:
        inverse = [[_cyc_det([r[:i] + r[i + 1:] for k, r in enumerate(ra) if k != j])
                    * Cyc.from_rational((-1) ** (i + j)) / det for j in range(n)]
                   for i in range(n)]
        assert _triples(a.inverse().rows) == _triples(inverse)


def test_integer_form_meets_cyclotomic_entries():
    """A rational operand next to a Q(zeta_3) one takes the Cyc path and gives
    the entries, conductors included, that entry-by-entry Cyc arithmetic does."""
    z, zero3 = cyc_root_of_unity(3, 1), Cyc.zero(3)
    a = Mat.rational(((1, -2), (0, 3)), 4)
    ra = [[Cyc.from_rational(Fraction(v, 4)) for v in r] for r in ((1, -2), (0, 3))]
    rb = [[z, zero3], [Cyc.one(), z * z]]
    b = Mat(rb)
    assert _triples((a * b).rows) == _triples(_cyc_product(ra, rb))
    assert _triples((b * a).rows) == _triples(_cyc_product(rb, ra))
    assert _triples((a + b).rows) == _triples([[x + y for x, y in zip(p, q)]
                                               for p, q in zip(ra, rb)])
    assert _triples(a.scale(z).rows) == _triples([[z * v for v in r] for r in ra])
    assert a != b and not (a - b).is_zero()
    # rational values at conductor 3 keep their conductor
    c3 = Mat([[Cyc.from_rational(Fraction(v, 4), 3) for v in r] for r in ((1, -2), (0, 3))])
    assert a == c3
    assert _triples((a - c3).rows) == [[(3, (0, 0), 1)] * 2] * 2


def test_integer_form_singular_inverse_raises():
    for m in (Mat.rational(((0,),)), Mat.rational(((1, 2), (2, 4)), 7),
              Mat.rational(((1, 2, 3), (4, 5, 6), (5, 7, 9)), -2)):
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            m.inverse()
