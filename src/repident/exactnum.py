"""Exact arithmetic over Q and over cyclotomic fields Q(zeta_N).

Every scalar in this package is a `Cyc`: a residue modulo the N-th
cyclotomic polynomial, stored in the power basis 1, z, ..., z^(phi(N)-1)
with one shared integer denominator.  Equality is decided symbolically
(promote both operands to the lcm conductor, compare coefficient
vectors); no floating point is ever consulted for a decision.

Conductors are never reduced: an element constructed at conductor 12
stays at conductor 12 even if it happens to lie in Q.  Promotion to a
common conductor is cheap and makes equality decidable, which is all
the rest of the package needs.

Products and Galois conjugates of integer vectors are taken once, by the
per-conductor `_Field`; an inverse is the product of the other Galois
conjugates divided by the norm, a rational integer.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (monic divisor)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return q


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, _field(d).modulus)
    return poly


class _Field:
    """Per-conductor table of Q(zeta_n) = Q[x]/(Phi_n).

    pows[k] = x^k mod Phi_n as an integer vector of length phi(n), for
    every k below max(n, 2*phi(n) - 1): enough for the powers of zeta
    (k < n), for an element of Z[x]/(x^n - 1) (length n) and for the
    convolution of two power-basis vectors (length 2*phi - 1).
    """

    __slots__ = ("n", "phi", "modulus", "pows")

    def __init__(self, n: int):
        self.n = n
        deg = self.phi = euler_phi(n)
        modulus = self.modulus = cyclotomic_poly(n)
        # x^(k+1) = x * x^k, with x^phi = -(modulus[0] + ... + modulus[phi-1] x^(phi-1))
        cur = [1] + [0] * (deg - 1)
        pows: list[tuple[int, ...]] = []
        for _ in range(max(n, 2 * deg - 1)):
            pows.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for k in range(deg):
                    cur[k] -= top * modulus[k]
        self.pows = pows

    def reduce(self, vec: list[int]) -> list[int]:
        """Reduce an integer vector of length phi to len(pows) modulo Phi_n."""
        deg = self.phi
        pows = self.pows
        out = vec[:deg]
        for j in range(deg, len(vec)):
            c = vec[j]
            if c:
                row = pows[j]
                for k in range(deg):
                    out[k] += c * row[k]
        return out

    def mul(self, a, b) -> list[int]:
        """Product of two integer power-basis vectors, reduced modulo Phi_n."""
        conv = [0] * (2 * self.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return self.reduce(conv)

    def galois(self, vec, t: int) -> list[int]:
        """sigma_t (zeta_n -> zeta_n^t) of an integer power-basis vector."""
        n, deg, pows = self.n, self.phi, self.pows
        out = [0] * deg
        for k, c in enumerate(vec):
            if c:
                row = pows[(k * t) % n]
                for j in range(deg):
                    out[j] += c * row[j]
        return out


_FIELDS: dict[int, _Field] = {}


def _field(n: int) -> _Field:
    f = _FIELDS.get(n)
    if f is None:
        f = _Field(n)
        _FIELDS[n] = f
    return f


# Miller-Rabin with these bases decides primality for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


class ModP:
    """The ring map Z[zeta_n][1/D] -> F_p that sends zeta_n to omega.

    p is the least prime = 1 (mod n) above 2^61 and omega a primitive n-th
    root of unity mod p, so omega^(n/m) is a root of the m-th cyclotomic
    polynomial mod p for every m dividing n, and reduction commutes with
    lifting.  Calling the map on an int, Fraction or Cyc gives its image in
    0..p-1, or None when the element's conductor does not divide n or p
    divides its denominator.  Being a ring map, a nonzero image proves the
    element nonzero; a zero image proves nothing.
    """

    __slots__ = ("n", "p", "omega", "_pows")

    def __init__(self, n: int):
        self.n = n
        p = ((1 << 61) // n + 1) * n + 1
        while not _is_prime(p):
            p += n
        self.p = p
        cofactors = [n // q for q in _prime_factors(n)]
        g = 2
        while True:
            omega = pow(g, (p - 1) // n, p)
            if all(pow(omega, c, p) != 1 for c in cofactors):
                break
            g += 1
        self.omega = omega
        pows = [1] * n
        for k in range(1, n):
            pows[k] = pows[k - 1] * omega % p
        self._pows = pows

    def __call__(self, x) -> int | None:
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                return None
            return x.numerator * pow(x.denominator, -1, p) % p
        n, c = self.n, x.conductor
        if n % c or x.den % p == 0:
            return None
        step, pows = n // c, self._pows
        acc = 0
        for k, a in enumerate(x.num):
            if a:
                acc += a * pows[k * step]
        if x.den != 1:
            acc *= pow(x.den, -1, p)
        return acc % p


def mat_mul_mod(a, b, p: int) -> tuple[tuple[int, ...], ...]:
    """Product of two square integer matrices (row tuples), entries mod p;
    a zero row of a gives a zero row at no cost."""
    cols = tuple(zip(*b))
    zero = (0,) * len(cols)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                 if any(row) else zero for row in a)


_MOD_P: dict[int, ModP] = {}


def mod_p(n: int) -> ModP:
    """The reduction map of conductor n (see ModP), built once per conductor."""
    r = _MOD_P.get(n)
    if r is None:
        r = ModP(n)
        _MOD_P[n] = r
    return r


class Cyc:
    """Element of Q(zeta_N) in canonical power-basis form.

    Stored as integer numerator vector plus a single positive integer
    denominator with gcd(content, den) = 1.  Instances are immutable and
    deliberately unhashable: two equal elements may live at different
    conductors, so dictionary keys must go through :meth:`key`.
    """

    __slots__ = ("conductor", "num", "den")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, conductor: int, num: tuple[int, ...], den: int, _raw: bool = False):
        if _raw:
            self.conductor = conductor
            self.num = num
            self.den = den
            return
        f = _field(conductor)
        if len(num) != f.phi:
            raise ValueError(f"coefficient vector must have length {f.phi} for conductor {conductor}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = tuple(-c for c in num)
            den = -den
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.conductor = conductor
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Fraction | int, conductor: int = 1) -> "Cyc":
        q = Fraction(q)
        f = _field(conductor)
        vec = [0] * f.phi
        vec[0] = q.numerator
        return Cyc(conductor, tuple(vec), q.denominator)

    @staticmethod
    def zero(conductor: int = 1) -> "Cyc":
        return Cyc(conductor, tuple([0] * _field(conductor).phi), 1, _raw=True)

    @staticmethod
    def one(conductor: int = 1) -> "Cyc":
        return Cyc.from_rational(1, conductor)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def lift(self, target: int) -> "Cyc":
        """Promote to a conductor that is a multiple of the current one."""
        n = self.conductor
        if target == n:
            return self
        if target % n != 0:
            raise ValueError(f"cannot promote conductor {n} to non-multiple {target}")
        f = _field(target)
        step = target // n
        vec = [0] * f.phi
        for k, c in enumerate(self.num):
            if c:
                row = f.pows[(k * step) % target]
                for t in range(f.phi):
                    vec[t] += c * row[t]
        return Cyc(target, tuple(vec), self.den)

    def key(self, target: int | None = None) -> tuple:
        """Hashable canonical fingerprint at the given conductor."""
        if target is None:
            target = self.conductor
        a = self.lift(target)
        return (target, a.num, a.den)

    # -- arithmetic ---------------------------------------------------

    def _common(self, other: "Cyc") -> tuple["Cyc", "Cyc"]:
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self._common(other)
        da, db = a.den, b.den
        if da == db:
            vec = tuple(x + y for x, y in zip(a.num, b.num))
            return Cyc(a.conductor, vec, da)
        vec = tuple(x * db + y * da for x, y in zip(a.num, b.num))
        return Cyc(a.conductor, vec, da * db)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = _coerce(other)
        a, b = self._common(other)
        da, db = a.den, b.den
        if da == db:
            vec = tuple(x - y for x, y in zip(a.num, b.num))
            return Cyc(a.conductor, vec, da)
        vec = tuple(x * db - y * da for x, y in zip(a.num, b.num))
        return Cyc(a.conductor, vec, da * db)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Cyc(self.conductor, tuple(-c for c in self.num), self.den, _raw=True)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self._common(other)
        f = _field(a.conductor)
        if f.phi == 1:
            return Cyc(a.conductor, (a.num[0] * b.num[0],), a.den * b.den)
        return Cyc(a.conductor, tuple(f.mul(a.num, b.num)), a.den * b.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "Cyc":
        """Multiplicative inverse from the Galois norm.

        With self = num/den and P the product of the conjugates sigma_t(num)
        over t in (Z/N)* other than 1, num * P is the norm of num: a nonzero
        rational integer c, so the inverse is den * P / c.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        n = self.conductor
        f = _field(n)
        if f.phi == 1:
            q = Fraction(self.den, self.num[0])
            return Cyc.from_rational(q, self.conductor)
        conj = [f.galois(self.num, t) for t in range(2, n) if gcd(t, n) == 1]
        p = conj[0]
        for v in conj[1:]:
            p = f.mul(p, v)
        c = f.mul(self.num, p)[0]
        return Cyc(n, tuple(self.den * x for x in p), c)

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def galois(self, t: int) -> "Cyc":
        """Field automorphism zeta_N -> zeta_N^t for t coprime to N."""
        n = self.conductor
        if n == 1:
            return self
        if gcd(t, n) != 1:
            raise ValueError(f"galois exponent {t} not coprime to conductor {n}")
        return Cyc(n, tuple(_field(n).galois(self.num, t)), self.den)

    def conjugate(self) -> "Cyc":
        n = self.conductor
        if n == 1:
            return self
        return self.galois(n - 1)

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for k, c in enumerate(self.num):
            if c:
                acc += c * z**k
        return acc / self.den

    # -- comparison & display ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __repr__(self):
        if self.is_rational():
            q = self.rational_value()
            return f"Cyc({q})"
        terms = []
        for k, c in enumerate(self.num):
            if c:
                terms.append(f"{c}*z{self.conductor}^{k}" if k else str(c))
        body = " + ".join(terms)
        if self.den != 1:
            body = f"({body})/{self.den}"
        return f"Cyc[{self.conductor}]({body})"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        coeffs = []
        for c in self.num:
            q = Fraction(c, self.den)
            coeffs.append([str(q.numerator), str(q.denominator)])
        return {"conductor": self.conductor, "coeffs": coeffs}

    @staticmethod
    def from_json(obj: dict) -> "Cyc":
        n = int(obj["conductor"])
        fracs = [Fraction(int(p[0]), int(p[1])) for p in obj["coeffs"]]
        den = 1
        for q in fracs:
            den = lcm(den, q.denominator)
        vec = tuple(int(q * den) for q in fracs)
        return Cyc(n, vec, den)


def _coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.from_rational(x, 1)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyc")


# -- module-level operation surface -------------------------------------


def cyc_root_of_unity(n: int, k: int) -> Cyc:
    """Canonical representation of zeta_n^k."""
    if n < 1:
        raise ValueError("conductor must be positive")
    f = _field(n)
    return Cyc(n, f.pows[k % n], 1)


def cyc_arith(a: Cyc, b: Cyc, op: str) -> Cyc:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def demote(a: Cyc) -> "int | Fraction | Cyc":
    """a as an int or Fraction when it is rational, else a itself."""
    if not a.is_rational():
        return a
    if a.den == 1:
        return a.num[0]
    return Fraction(a.num[0], a.den)


def cyc_inverse(a: Cyc) -> Cyc:
    return a.inverse()


def cyc_galois(a: Cyc, t: int) -> Cyc:
    return a.galois(t)


def cyc_conjugate(a: Cyc) -> Cyc:
    return a.conjugate()


def cyc_to_float(a: Cyc) -> complex:
    return a.to_complex()


def sqrt5() -> Cyc:
    """The Gauss sum z5 - z5^2 - z5^3 + z5^4, an exact square root of 5."""
    z = cyc_root_of_unity(5, 1)
    return z - z * z - z * z * z + z * z * z * z


def golden_ratio() -> Cyc:
    """(1 + sqrt5)/2 as an exact element of Q(zeta_5)."""
    return (Cyc.one(5) + sqrt5()) / Cyc.from_rational(2, 5)
