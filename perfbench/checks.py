"""Output checks made apart from ``freeexpr`` and ``verifier``.

Every check here recomputes what it needs from the group's multiplication
table and the representation's image matrices, with ``Mat``/``Cyc``
arithmetic only. None compares against a saved copy of earlier output.
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from repident.exactnum import Cyc
from repident.matrices import Mat, rref


class NotWalkable(Exception):
    """The expression holds a streamed node that cannot be materialized."""


# -- the group table ------------------------------------------------------------


def table_inverse(table, g: int) -> int:
    return table[g].index(0)


def table_power(table, g: int, e: int) -> int:
    acc = 0
    for _ in range(e):
        acc = table[acc][g]
    return acc


def table_order(table, g: int) -> int:
    k, acc = 1, g
    while acc != 0:
        acc = table[acc][g]
        k += 1
    return k


def table_exponent(table) -> int:
    out = 1
    for g in range(len(table)):
        k = table_order(table, g)
        out = out * k // gcd(out, k)
    return out


def table_class_sizes(table) -> list[int]:
    m = len(table)
    inv = [table_inverse(table, g) for g in range(m)]
    seen: set[int] = set()
    sizes = []
    for g in range(m):
        if g in seen:
            continue
        cls = {table[table[h][g]][inv[h]] for h in range(m)}
        seen |= cls
        sizes.append(len(cls))
    return sorted(sizes)


def commuting_pairs(table) -> int:
    m = len(table)
    return sum(1 for a in range(m) for b in range(m) if table[a][b] == table[b][a])


# -- traces and keys -----------------------------------------------------------------


def traces(rep) -> list[Cyc]:
    out = []
    for mat in rep.images:
        acc = mat.rows[0][0]
        for i in range(1, mat.n):
            acc = acc + mat.rows[i][i]
        out.append(acc)
    return out


def _conductor(values) -> int:
    c = 1
    for v in values:
        c = c * v.conductor // gcd(c, v.conductor)
    return c


def value_keys(values, conductor: int) -> list:
    return [v.key(conductor) for v in values]


# -- an expression walker over Mat/Cyc -------------------------------------------------


def walk(expr, rep, assignment: dict) -> Mat:
    """Value of an expression under a group-element assignment.

    Variables map to image matrices; Inv inverts, Star conjugates constants,
    inverts variables and reverses products; Sum adds and Prod multiplies.
    """
    table = rep.group.table
    n = rep.images[0].n
    memo: dict = {}

    def image(name: str, starred: bool) -> Mat:
        g = assignment[name]
        return rep.images[table_inverse(table, g) if starred else g]

    def ev(e, starred: bool) -> Mat:
        key = (id(e), starred)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kind = e.kind
        if kind == "const":
            out = Mat.scalar(n, e.value.conjugate() if starred else e.value)
        elif kind == "var":
            out = image(e.value, starred)
        elif kind == "inv":
            out = ev(e.children[0], starred).inverse()
        elif kind == "star":
            out = ev(e.children[0], not starred)
        elif kind == "sum":
            out = None
            for c in e.children:
                v = ev(c, starred)
                out = v if out is None else out + v
        elif kind == "prod":
            out = None
            for c in (reversed(e.children) if starred else e.children):
                if c.kind == "var" and assignment[c.value] == 0:
                    continue  # the identity element acts as the identity matrix
                v = ev(c, starred)
                out = v if out is None else out * v
                if out.is_zero():
                    break
            if out is None:
                out = Mat.identity(n)
        else:
            raise NotWalkable(kind)
        memo[key] = out
        return out

    return ev(expr, False)


def witness_problems(doc, rep, witness: dict) -> list[str]:
    """A fails witness must assign every variable and evaluate to nonzero."""
    missing = sorted(set(doc.expr.free_vars()) - set(witness))
    if missing:
        return [f"witness leaves {missing[:4]} unassigned"]
    bad = [k for k, v in witness.items() if not 0 <= v < rep.group.order]
    if bad:
        return [f"witness values out of range for {bad[:4]}"]
    if walk(doc.expr, rep, witness).is_zero():
        return ["witness evaluates to zero"]
    return []


def standard_sum(rep, elements: list[int]) -> Mat:
    """The standard polynomial on the given elements: the signed sum of the
    products of their images over every ordering."""
    k = len(elements)
    acc = None
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        term = rep.images[elements[perm[0]]]
        for i in perm[1:]:
            term = term * rep.images[elements[i]]
        if inversions % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def span_dimension(rep) -> int:
    """Dimension of the linear span of the image matrices."""
    rows = [[v for row in mat.rows for v in row] for mat in rep.images]
    _, pivots = rref(rows)
    return len(pivots)


# -- identities ---------------------------------------------------------------


def character_constants_problems(doc, rep) -> list[str]:
    """Constants of the character identity are {m chi(g)/n} with 0 added."""
    m, n = rep.group.order, rep.images[0].n
    ratio = Cyc.from_rational(Fraction(m, n))
    want = [t * ratio for t in traces(rep)] + [Cyc.zero()]
    have = [Cyc.from_json(c) for c in doc.params["constants"]]
    kc = _conductor(want + have)
    if set(value_keys(want, kc)) != set(value_keys(have, kc)):
        return ["character-identity constants differ from m*chi(g)/n"]
    return []


def random_sl2(rng, shears: int = 4, height: int = 10) -> Mat:
    """A determinant-one rational matrix as a product of elementary shears."""
    one, zero = Cyc.one(), Cyc.zero()
    acc = Mat.identity(2)
    for _ in range(shears):
        c = Cyc.from_rational(Fraction(rng.randint(-height, height), rng.randint(1, height)))
        rows = ((one, c), (zero, one)) if rng.random() < 0.5 else ((one, zero), (c, one))
        acc = acc * Mat(rows)
    return acc


def sl2_problems(rng, samples: int) -> list[str]:
    """Cayley-Hamilton on determinant-one 2x2 matrices: y + y^-1 = tr(y) I,
    which makes (y + y^-1) x - x (y + y^-1) vanish, and
    x^2 - tr(x) x + det(x) I = 0 with det(x) = (tr(x)^2 - tr(x^2)) / 2."""
    for _ in range(samples):
        x = random_sl2(rng)
        if x.det() != 1:
            return ["a shear product has determinant other than one"]
        tr = x.rows[0][0] + x.rows[1][1]
        if x + x.inverse() != Mat.scalar(2, tr):
            return ["y + y^-1 differs from tr(y) I"]
        x2 = x * x
        det2 = (tr * tr - (x2.rows[0][0] + x2.rows[1][1])) * Cyc.from_rational(Fraction(1, 2))
        if not (x2 - x.scale(tr) + Mat.scalar(2, det2)).is_zero():
            return ["Cayley-Hamilton fails"]
    return []


# -- equivalence -------------------------------------------------------------------


def _range_data(rep, kc: int):
    keys = value_keys(traces(rep), kc)
    counts: dict = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    return set(keys), sorted(counts.items())


def automorphism_problems(table, alpha) -> list[str]:
    m = len(table)
    if alpha is None or sorted(alpha) != list(range(m)):
        return ["similarity certificate is not a bijection"]
    for a in range(m):
        ta, tb = table[a], table[alpha[a]]
        for b in range(m):
            if alpha[ta[b]] != tb[alpha[b]]:
                return ["similarity certificate is not a homomorphism"]
    return []


def compare_problems(out: dict, rep1, rep2, similar_cert, galois_cert) -> list[str]:
    """Checks of one compare_all predicate matrix.

    similar_cert and galois_cert are the results of similar_reps and
    galois_conjugate_reps, computed outside the timed phase; each is
    re-proved against the table and the traces here.
    """
    problems = []
    chi1, chi2 = traces(rep1), traces(rep2)
    kc = _conductor(chi1 + chi2)
    for t in (table_exponent(rep1.group.table), table_exponent(rep2.group.table)):
        kc = kc * t // gcd(kc, t)
    set1, sig1 = _range_data(rep1, kc)
    set2, sig2 = _range_data(rep2, kc)
    if out["range_equal"] != (set1 == set2):
        problems.append("range_equal disagrees with the traces")
    if out["range_signature_equal"] != (sig1 == sig2):
        problems.append("range_signature_equal disagrees with the traces")
    if out["spectral_signature_equal"] != out["gassmann"]:
        problems.append("spectral_signature_equal and gassmann differ")
    chain = [("similar", "gassmann"), ("gassmann", "range_signature_equal"),
             ("range_signature_equal", "range_equal"), ("galois", "gassmann")]
    for a, b in chain:
        if out.get(a) and not out.get(b):
            problems.append(f"{a} holds but {b} does not")
    table = rep1.group.table
    if "similar" in out:
        if out["similar"] != (similar_cert is not None):
            problems.append("similar disagrees with similar_reps")
        elif similar_cert is not None:
            problems += automorphism_problems(table, similar_cert)
            if value_keys([chi2[similar_cert[g]] for g in range(len(table))], kc) \
                    != value_keys(chi1, kc):
                problems.append("similarity certificate does not carry chi1 to chi2")
    if "galois" in out:
        t = galois_cert
        if out["galois"] != (t is not None) or out["galois_t"] != t:
            problems.append("galois disagrees with galois_conjugate_reps")
        elif t is not None:
            if gcd(t, table_exponent(table)) != 1:
                problems.append("galois exponent is not a unit")
            twisted = [chi1[table_power(table, g, t)] for g in range(len(table))]
            if value_keys(twisted, kc) != value_keys(chi2, kc):
                problems.append("galois certificate does not carry chi1 to chi2")
    sub = out.get("uniform_gassmann_failing_subgroup")
    if sub is not None and any(table[a][b] not in set(sub) for a in sub for b in sub):
        problems.append("failing subgroup is not closed")
    return problems
