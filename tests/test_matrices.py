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
