import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repident.exactnum import (
    Cyc,
    cyc_arith,
    cyc_conjugate,
    cyc_galois,
    cyc_inverse,
    cyc_root_of_unity,
    cyc_to_float,
    cyclotomic_poly,
    euler_phi,
    golden_ratio,
    mod_p,
    sqrt5,
    _field,
)


def test_roots_of_unity_basics():
    assert cyc_root_of_unity(1, 0) == 1
    assert cyc_root_of_unity(4, 2) == -1
    z3 = cyc_root_of_unity(3, 1)
    assert cyc_arith(z3, cyc_root_of_unity(3, 2), "add") == -1


def _long_division_remainder(vec, modulus):
    """Remainder of vec (ascending coefficients) by a monic modulus, by
    schoolbook long division from the top coefficient down."""
    rem, deg = list(vec), len(modulus) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for i, m in enumerate(modulus):
                rem[top - deg + i] -= c * m
    return (rem + [0] * deg)[:deg]


def test_field_power_table_against_long_division():
    """One table per conductor: pows[k] is the k-th unit vector below phi(n),
    and reduce agrees with long division by Phi_n on every vector length it
    accepts; for prime n the table runs past n, to x^(2n - 4)."""
    rng = random.Random(20)
    for n in range(1, 121):
        f, phi = _field(n), euler_phi(n)
        modulus = cyclotomic_poly(n)
        assert f.phi == phi and f.modulus == modulus and modulus[-1] == 1
        assert len(f.pows) == max(n, 2 * phi - 1)
        for k in range(phi):
            assert f.pows[k] == tuple(int(i == k) for i in range(phi)), (n, k)
        for k, row in enumerate(f.pows):
            assert list(row) == _long_division_remainder([0] * k + [1], modulus), (n, k)
        for length in range(phi, len(f.pows) + 1):
            vec = [rng.randint(-9, 9) for _ in range(length)]
            assert f.reduce(list(vec)) == _long_division_remainder(vec, modulus), (n, length)
        if n > 2 and phi == n - 1:
            assert len(f.pows) == 2 * n - 3


def test_gauss_sum_square_is_five():
    s = sqrt5()
    assert s * s == 5
    phi = golden_ratio()
    assert phi * phi == phi + 1


def test_fifth_root_sum_quadratic():
    # oracle: direct expansion modulo the fifth cyclotomic polynomial
    z5 = cyc_root_of_unity(5, 1)
    t = z5 + cyc_root_of_unity(5, 4)
    assert t * t + t - 1 == Cyc.zero(5)


def test_zero_absorbs():
    x = cyc_root_of_unity(8, 3) + Fraction(2, 7)
    assert cyc_arith(Cyc.zero(8), x, "mul").is_zero()


def test_inverse_examples():
    assert cyc_inverse(cyc_root_of_unity(8, 1)) == cyc_root_of_unity(8, 7)
    assert cyc_inverse(Cyc.from_rational(2)) == Fraction(1, 2)
    # oracle: (1 + z3)(-z3) = -z3 - z3^2 = 1
    z3 = cyc_root_of_unity(3, 1)
    a = Cyc.one(3) + z3
    assert a * a.inverse() == 1
    assert a.inverse() == -z3
    with pytest.raises(ZeroDivisionError):
        cyc_inverse(Cyc.zero(5))


def test_galois_examples():
    z5 = cyc_root_of_unity(5, 1)
    assert cyc_galois(z5, 2) == cyc_root_of_unity(5, 2)
    q = Cyc.from_rational(Fraction(3, 7), 12)
    for t in (1, 5, 7, 11):
        assert cyc_galois(q, t) == Fraction(3, 7)
    # exponent-map oracle: the Gauss sum is negated by the nonresidue 2
    assert cyc_galois(sqrt5(), 2) == -sqrt5()
    with pytest.raises(ValueError):
        cyc_galois(z5, 5)


def test_conjugate_examples():
    assert cyc_conjugate(cyc_root_of_unity(4, 1)) == -cyc_root_of_unity(4, 1)
    assert cyc_conjugate(Cyc.from_rational(Fraction(3, 7))) == Fraction(3, 7)
    real = cyc_root_of_unity(5, 1) + cyc_root_of_unity(5, 4)
    assert cyc_conjugate(real) == real


def test_float_embedding():
    assert abs(cyc_to_float(Cyc.one()) - 1.0) < 1e-12
    assert abs(cyc_to_float(cyc_root_of_unity(4, 1)) - 1j) < 1e-12
    assert abs(cyc_to_float(sqrt5()) - 5**0.5) < 1e-9


def test_promotion_equality():
    assert cyc_root_of_unity(3, 1) == cyc_root_of_unity(6, 2)
    assert cyc_root_of_unity(2, 1) == Cyc.from_rational(-1)


def test_json_round_trip():
    x = (Cyc.one(12) + cyc_root_of_unity(12, 5)) / Cyc.from_rational(3, 12)
    assert Cyc.from_json(json.loads(json.dumps(x.to_json()))) == x
    assert x.to_json()["conductor"] == 12


def _random_cyc(draw_n, coeffs, den):
    vec = tuple(coeffs[: euler_phi(draw_n)] + [0] * max(0, euler_phi(draw_n) - len(coeffs)))
    return Cyc(draw_n, vec, den)


conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24])
small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def cycs(draw):
    n = draw(conductors)
    coeffs = draw(st.lists(small_ints, min_size=euler_phi(n), max_size=euler_phi(n)))
    den = draw(st.integers(min_value=1, max_value=9))
    return Cyc(n, tuple(coeffs), den)


@settings(max_examples=120, deadline=None)
@given(cycs(), cycs(), cycs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_inverse_property(data):
    """a * a^-1 == 1, with a^-1 at the conductor of a, at every conductor up to 64."""
    for n in range(1, 65):
        phi = euler_phi(n)
        coeffs = data.draw(st.lists(small_ints, min_size=phi, max_size=phi))
        a = Cyc(n, tuple(coeffs), data.draw(st.integers(min_value=1, max_value=9)))
        if a.is_zero():
            continue
        inv = a.inverse()
        assert inv.conductor == n
        assert a * inv == 1, a


@settings(max_examples=60, deadline=None)
@given(cycs(), cycs(), st.sampled_from([1, 5, 7, 11, 13, 17, 19, 23]))
def test_galois_ring_homomorphism(a, b, t):
    from math import gcd, lcm

    n = lcm(a.conductor, b.conductor)
    if gcd(t, n) != 1:
        return
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)


@settings(max_examples=60, deadline=None)
@given(cycs(), st.sampled_from([1, 5, 7, 11]), st.sampled_from([1, 5, 7, 11]))
def test_galois_composition(a, t1, t2):
    from math import gcd

    n = a.conductor
    if gcd(t1, n) != 1 or gcd(t2, n) != 1:
        return
    assert a.galois(t1).galois(t2) == a.galois((t1 * t2) % n if n > 1 else 1)


@settings(max_examples=80, deadline=None)
@given(cycs())
def test_conjugation_involution_and_norm(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert abs(norm.to_complex().imag) < 1e-9


def test_numeric_embedding_cross_check():
    # canonical equality agrees with the numeric embedding on 1000 elements
    import random

    rng = random.Random(0)
    for _ in range(1000):
        n = rng.choice([1, 3, 4, 5, 8, 12])
        phi = euler_phi(n)
        vec = tuple(rng.randint(-4, 4) for _ in range(phi))
        den = rng.randint(1, 5)
        a = Cyc(n, vec, den)
        b = a.lift(n * rng.choice([1, 2, 3]))
        assert a == b
        assert abs(a.to_complex() - b.to_complex()) < 1e-9


def test_mod_p_prime_and_root():
    """p is the least prime = 1 (mod n) above 2^61 and omega has order n."""
    from repident.exactnum import _is_prime

    for n in (1, 3, 4, 6, 12, 21, 30, 63):
        red = mod_p(n)
        p = red.p
        assert p > 2**61 and (p - 1) % n == 0 and _is_prime(p)
        assert not any(_is_prime(q) for q in range(p - n, 2**61, -n))
        assert pow(red.omega, n, p) == 1
        assert all(pow(red.omega, k, p) != 1 for k in range(1, n))
    assert [q for q in range(2, 60) if _is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not _is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7


# the key conductors of the catalog representations
catalog_conductors = st.sampled_from([3, 4, 6, 12, 30, 63])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def reduction_cases(draw):
    """(n, a, b, c): a and b at conductors dividing n, sometimes multiples
    of p or with p in the denominator; c at any catalog-sized conductor."""
    n = draw(catalog_conductors)
    p = mod_p(n).p

    def element(conductors):
        m = draw(st.sampled_from(conductors))
        coeffs = draw(st.lists(small_ints, min_size=euler_phi(m), max_size=euler_phi(m)))
        num_scale = draw(st.sampled_from([1, 1, 1, p]))
        den = draw(st.integers(min_value=1, max_value=9)) * draw(st.sampled_from([1, 1, 1, p]))
        return Cyc(m, tuple(c * num_scale for c in coeffs), den)

    divisors = _divisors(n)
    return n, element(divisors), element(divisors), element([1, 2, 5, 7, 9, 10, 21, 63])


@settings(max_examples=200, deadline=None)
@given(reduction_cases())
def test_mod_p_is_a_ring_map_that_certifies_nonzero(case):
    n, a, b, c = case
    red = mod_p(n)
    p = red.p
    for x in (a, b, c, a + b, a * b):
        image = red(x)
        undefined = n % x.conductor != 0 or x.den % p == 0
        assert (image is None) == undefined
        if image:
            assert not x.is_zero()
    if red(a) is not None and red(b) is not None:
        assert red(a + b) == (red(a) + red(b)) % p
        assert red(a * b) == red(a) * red(b) % p
        assert red(a.lift(n)) == red(a)
    assert red(Fraction(3, 7)) == 3 * pow(7, -1, p) % p
    assert red(Fraction(1, p)) is None and red(-1) == p - 1
