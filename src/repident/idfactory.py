"""Deterministic builders for every identity family, each returning an
IdentityDoc: an evaluable expression, its guard groups and a short
description of the family.

Every family is assembled from the same pieces: guard products, conjugation
averages psi, separator variables and power-trace distance sums.  A
document declares its guard groups only: which variables are separators
(fresh root factors) and which are arguments (every other variable) is
read from the expression by the verifier.

Naming conventions are fixed so rebuilding with equal parameters yields a
byte-identical serialization: guard variables y1..ym / x1..xm, guard
separators u0, u{i}_{j} (s0, s{i}_{j} for a second guard), factor
separators v1..v{k-1}, per-factor separators w..., subset separators
v_S{i,j,...} with 1-based sorted subset notation, partition separators
v_P{i}.

Subset- and partition-indexed products are emitted as streamed nodes:
their factors are generated on demand and never materialized at once.
"""

from __future__ import annotations

import collections
import itertools
from fractions import Fraction
from math import comb

from .exactnum import Cyc, cyc_root_of_unity
from .freeexpr import (
    Expr,
    const,
    expand_stream,
    inv,
    power,
    prod,
    smul,
    star,
    stream_partitions,
    stream_perm_body,
    stream_subsets,
    sub,
    sum_,
    var,
)
from .replab import Rep, eig_maximal, eig_union, fixed_point_dimension, sigma_value


class BuildError(ValueError):
    pass


class IdentityDoc:
    """An expression with its guard groups: the unit the verifier consumes.

    guards maps each group to its variables, kept in `_var_sort_key` order
    (groups too); each is a variable of the expression, in one group."""

    def __init__(self, family: str, expr: Expr, guards: dict, params: dict,
                 citation: str, is_identity: bool = True, vacuous: bool = False):
        self.family = family
        self.expr = expr
        self.guards = {g: sorted(guards[g], key=_var_sort_key)
                       for g in sorted(guards, key=_var_sort_key)}
        self.params = params
        self.citation = citation
        self.is_identity = is_identity
        self.vacuous = vacuous
        listed = collections.Counter(n for names in guards.values() for n in names)
        twice = sorted(n for n, k in listed.items() if k > 1)
        if twice:
            raise BuildError(f"guard variables listed twice: {twice}")
        unknown = sorted(listed.keys() - expr.free_vars())
        if unknown:
            raise BuildError(f"guards that are not variables of the expression: {unknown}")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "citation": self.citation,
            "is_identity": self.is_identity,
            "vacuous": self.vacuous,
            "guards": self.guards,
            "expr": self.expr.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "IdentityDoc":
        """The document a to_json() dict describes; its guards must be an
        object of lists of names.  A key to_json() does not write, such as
        an older role map, is refused, not translated."""
        unread = sorted(set(obj) - _DOC_KEYS)
        if unread:
            raise BuildError(f"document keys that are not read: {unread}; a document "
                             "declares its guard groups under 'guards'")
        guards = obj["guards"]
        if not (isinstance(guards, dict) and all(
                isinstance(names, list) and all(isinstance(n, str) for n in names)
                for names in guards.values())):
            raise BuildError("'guards' is not an object of lists of variable names")
        return IdentityDoc(
            obj["family"],
            Expr.from_json(obj["expr"]),
            guards,
            dict(obj["params"]),
            obj["citation"],
            is_identity=obj.get("is_identity", True),
            vacuous=obj.get("vacuous", False),
        )

    def __repr__(self):
        return f"IdentityDoc({self.family}, guards={list(self.guards)})"


_DOC_KEYS = {"family", "params", "citation", "is_identity", "vacuous", "guards", "expr"}


def _var_sort_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def _need_positive(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise BuildError(f"need {name} >= 1")


def _names(yvars: list[Expr]) -> list[str]:
    return [y.value for y in yvars]


# -- guard term ---------------------------------------------------------------


def guard_factors(m: int, var_prefix: str = "y", sep_prefix: str = "u"):
    """Flattened factor list u0 (y_i - y_j) u{i}_{j} ... and the guard
    variables."""
    yvars = [var(f"{var_prefix}{i}") for i in range(1, m + 1)]
    factors = [var(f"{sep_prefix}0")]
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            factors += [sub(yvars[i - 1], yvars[j - 1]), var(f"{sep_prefix}{i}_{j}")]
    return factors, yvars


def _double_guard(mx: int, my: int):
    """The x/s guard on mx variables followed by the y/u guard on my:
    (factors, guard groups X and Y, xvars, yvars)."""
    gx, xvars = guard_factors(mx, "x", "s")
    gy, yvars = guard_factors(my, "y", "u")
    return gx + gy, {"X": _names(xvars), "Y": _names(yvars)}, xvars, yvars


def guard_C(m: int) -> IdentityDoc:
    if m < 2:
        raise BuildError("guard needs m >= 2")
    factors, yvars = guard_factors(m)
    return IdentityDoc(
        "guard",
        prod(factors),
        {"Y": _names(yvars)},
        {"m": m},
        "separated product of pairwise differences; vanishes unless all "
        "guard variables take distinct values",
    )


# -- conjugation averages -------------------------------------------------------


def psi_expr(x_expr: Expr, yvars: list[Expr]) -> Expr:
    return sum_([prod([y, x_expr, inv(y)]) for y in yvars])


def _distance_sum(row, ratio: Cyc, x: Expr, yvars: list[Expr]) -> Expr:
    """sum_k (psi(x^k) - a_k)(psi(x^-k) - conj(a_k)) with a_k = row[k-1] * ratio:
    zero exactly when the scaled power traces of x match the row."""
    terms = []
    for k, value in enumerate(row, start=1):
        a = value * ratio
        left = sum_([psi_expr(power(x, k), yvars), const(-a)])
        right = sum_([psi_expr(power(inv(x), k), yvars), const(-a.conjugate())])
        terms.append(prod([left, right]))
    return sum_(terms)


def psi(m: int) -> IdentityDoc:
    _need_positive(m=m)
    yvars = [var(f"y{i}") for i in range(1, m + 1)]
    return IdentityDoc(
        "psi",
        psi_expr(var("x"), yvars),
        {"Y": _names(yvars)},
        {"m": m},
        "sum of m conjugates of one variable; a scalar multiple of the trace "
        "on a full distinct assignment",
        is_identity=False,
    )


def theta(m: int) -> IdentityDoc:
    _need_positive(m=m)
    gf, yvars = guard_factors(m)
    psi_node = psi_expr(var("x"), yvars)
    yfree = var("z")
    commute = sub(prod([psi_node, yfree]), prod([yfree, psi_node]))
    return IdentityDoc(
        "theta",
        prod(gf + [commute]),
        {"Y": _names(yvars)},
        {"m": m},
        "guarded commutation of the conjugation average with a free variable",
    )


def character_identity(rep: Rep) -> IdentityDoc:
    if not rep.is_irreducible() or not rep.is_faithful():
        raise BuildError("character identity requires a faithful irreducible rep")
    m, n = rep.group.order, rep.dim
    values = rep.character.range_values(rep.key_conductor)
    gf, yvars = guard_factors(m)
    psi_node = psi_expr(var("x"), yvars)
    ratio = Fraction(m, n)
    factors = gf
    constants = []
    for i, chi in enumerate(values, start=1):
        c = chi * Cyc.from_rational(ratio)
        constants.append(c)
        factors.append(sum_([psi_node, const(-c)]))
        if i < len(values):
            factors.append(var(f"v{i}"))
    return IdentityDoc(
        "character",
        prod(factors),
        {"Y": _names(yvars)},
        {
            "m": m,
            "n": n,
            "constants": [c.to_json() for c in constants],
        },
        "guarded product of conjugation-average factors, one per character value",
    )


def dimension_identity(m: int, n: int) -> IdentityDoc:
    _need_positive(m=m, n=n)
    guards, groups, xvars, yvars = _double_guard(m, m)
    terms = [prod([psi_expr(x, yvars), inv(x)]) for x in xvars]
    body = sum_(terms + [const(-Cyc.from_rational(Fraction(m, n) ** 2))])
    return IdentityDoc(
        "dimension",
        prod(guards + [body]),
        groups,
        {"m": m, "n": n},
        "doubly guarded sum of averaged commutators minus the squared ratio "
        "of group order to dimension",
    )


def dimension_identity_alt(m: int, n: int) -> IdentityDoc:
    _need_positive(m=m, n=n)
    guards, groups, xvars, yvars = _double_guard(m, m)
    terms = [prod([psi_expr(x, yvars), psi_expr(inv(x), yvars)]) for x in xvars]
    body = sum_(terms + [const(-Cyc.from_rational(Fraction(m**3, n**2)))])
    return IdentityDoc(
        "dimension-alt",
        prod(guards + [body]),
        groups,
        {"m": m, "n": n},
        "doubly guarded sum of conjugation averages paired with their "
        "inverse-argument averages",
    )


def range_identity(rep: Rep, xi: Cyc) -> IdentityDoc:
    m, n = rep.group.order, rep.dim
    kc = rep.key_conductor
    in_range = any(v == xi for v in rep.character.range_values(kc))
    if not in_range:
        raise BuildError("value outside the character range would make the "
                         "identity vacuous by construction")
    factors, groups, xvars, yvars = _double_guard(m, m)
    c = xi * Cyc.from_rational(Fraction(m, n))
    for i, x in enumerate(xvars, start=1):
        factors.append(sum_([psi_expr(x, yvars), const(-c)]))
        factors.append(var(f"v{i}"))
    return IdentityDoc(
        "range",
        prod(factors),
        groups,
        {"m": m, "n": n, "xi": xi.to_json()},
        "guarded product asserting one prescribed character value is attained",
    )


def level_set_identity(rep: Rep, i: int) -> IdentityDoc:
    m, n = rep.group.order, rep.dim
    kc = rep.key_conductor
    values = rep.character.range_values(kc)
    if not 1 <= i <= len(values):
        raise BuildError(f"level index {i} out of range 1..{len(values)}")
    chi_i = values[i - 1]
    t_i = len(rep.character.level_set(chi_i))
    guards, groups, xvars, yvars = _double_guard(m, m)
    ratio = Cyc.from_rational(Fraction(m, n))
    bases = [_distance_sum([chi_i], ratio, x, yvars) for x in xvars]
    node = stream_subsets(bases, t_i, "v_S")
    return IdentityDoc(
        "level-set",
        prod(guards + [node]),
        groups,
        {
            "m": m,
            "n": n,
            "index": i,
            "value": chi_i.to_json(),
            "level_size": t_i,
            "stream_factors": comb(m, t_i),
            "stream_separator": "v_S",
        },
        "guarded streamed product over all level-size subsets of paired "
        "squared distances to one character value",
    )


# -- conjugate class identities -------------------------------------------------


def class_identity(rep: Rep, variant: str = "character") -> IdentityDoc:
    if variant not in ("character", "adams"):
        raise BuildError("variant must be 'character' or 'adams'")
    if not rep.is_irreducible() or not rep.is_faithful():
        raise BuildError("class identity requires a faithful irreducible rep")
    group = rep.group
    n = rep.dim
    cc = group.conjugacy_classes
    s = len(cc)
    sizes = cc.sizes
    class_vals = rep.character.class_values()
    if group.order == 1:
        return IdentityDoc("class", const(0), {}, {"s": 0, "variant": variant},
                           "empty-class degenerate form", vacuous=True)
    xvars = [var(f"x{r}") for r in range(1, s + 1)]
    yvar_sets = [[var(f"y{r}_{idx}") for idx in range(1, sizes[r - 1] + 1)]
                 for r in range(1, s + 1)]

    factors = []
    # commutator blocks force Y_r into pairwise distinct left centralizer
    # cosets (the side the conjugation averages need), hence the word
    # y_a^-1 y_b rather than y_a y_b^-1
    for r in range(1, s):
        ys = yvar_sets[r - 1]
        xr = xvars[r - 1]
        for a in range(len(ys)):
            for b in range(a + 1, len(ys)):
                word = prod([inv(ys[a]), ys[b]])
                comm = prod([inv(xr), inv(word), xr, word])
                factors.append(sub(const(1), comm))
                factors.append(var(f"u{r}_{a + 1}_{b + 1}"))
    # cross-class separation: x_q avoids every conjugate of x_p over Y_p;
    # conjugation is y x y^-1 so left-coset-distinct Y_p covers the class
    for p in range(1, s + 1):
        for q in range(p + 1, s + 1):
            for idx, y in enumerate(yvar_sets[p - 1], start=1):
                factors.append(sub(xvars[q - 1], prod([y, xvars[p - 1], inv(y)])))
                factors.append(var(f"v{p}_{q}_{idx}"))

    def e_term(a: int, b: int) -> Expr:
        # conjugation average of x_a over Y_a against class-b data
        x, ys = xvars[a - 1], yvar_sets[a - 1]
        if variant == "character":
            c = class_vals[b - 1] * Cyc.from_rational(Fraction(sizes[b - 1], n))
            base = sum_([psi_expr(x, ys), const(-c)])
            return prod([base, star(base)])
        row = rep.adams_vector(cc.representatives[b - 1])
        return _distance_sum(row, Cyc.from_rational(Fraction(sizes[a - 1], n)), x, ys)

    # same-size class groups; the permutation products over each group are
    # streamed (their size is factorial in the number of equal-size classes)
    size_groups: list[list[int]] = []
    for idx in range(1, s + 1):
        if size_groups and sizes[idx - 2] == sizes[idx - 1]:
            size_groups[-1].append(idx)
        else:
            size_groups.append([idx])
    pair_exprs = []
    for grp in size_groups:
        for a in grp:
            for b in grp:
                pair_exprs.append(e_term(a, b))
    body = stream_perm_body([len(g) for g in size_groups], pair_exprs)
    return IdentityDoc(
        "class" if variant == "character" else "class-adams",
        prod(factors + [body]),
        {f"Y{r}": _names(ys) for r, ys in enumerate(yvar_sets, start=1)},
        {
            "s": s,
            "sizes": sizes,
            "n": n,
            "variant": variant,
            "size_groups": size_groups,
        },
        "class-forcing product times the sum over size-groups of permuted "
        "value-matching terms",
    )


# -- trace-substituted families --------------------------------------------------


def sigma_monomials(i: int) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Elementary symmetric e_i as a polynomial in power sums p_1..p_i.

    Newton recursion e_k = (1/k) sum_j (-1)^(j-1) e_{k-j} p_j over monomial
    dictionaries keyed by sorted power tuples.
    """
    e: list[dict] = [{(): Fraction(1)}]
    for k in range(1, i + 1):
        acc: dict = {}
        for j in range(1, k + 1):
            sign = Fraction(1 if j % 2 == 1 else -1, k)
            for mono, coef in e[k - j].items():
                key = tuple(sorted(mono + (j,)))
                acc[key] = acc.get(key, Fraction(0)) + sign * coef
        e.append({k_: v for k_, v in acc.items() if v})
    return [(coef, mono) for mono, coef in sorted(e[i].items(), key=lambda kv: kv[0])]


def sigma_hat_expr(i: int, x: Expr, yvars: list[Expr], m: int, n: int) -> Expr:
    """The trace polynomial for the i-th symmetric invariant with every trace
    replaced by (n/m) times the conjugation average."""
    ratio = Fraction(n, m)
    terms = []
    for coef, mono in sigma_monomials(i):
        scale = coef * ratio ** len(mono)
        parts = [const(scale)] + [psi_expr(power(x, k), yvars) for k in mono]
        terms.append(prod(parts))
    return sum_(terms)


def cayley_hamilton_identity(m: int, n: int) -> IdentityDoc:
    _need_positive(m=m, n=n)
    gf, yvars = guard_factors(m)
    x = var("x")
    terms = [power(x, n)]
    for i in range(1, n + 1):
        sig = sigma_hat_expr(i, x, yvars, m, n)
        body = sig if i == n else prod([sig, power(x, n - i)])
        terms.append(smul(Fraction(-1) ** i, body))
    return IdentityDoc(
        "cayley-hamilton",
        prod(gf + [sum_(terms)]),
        {"Y": _names(yvars)},
        {"m": m, "n": n},
        "guarded characteristic polynomial with traces replaced by scaled "
        "conjugation averages",
    )


def sigma_identity(rep: Rep, i: int) -> IdentityDoc:
    m, n = rep.group.order, rep.dim
    if not 1 <= i <= n:
        raise BuildError(f"sigma index {i} out of range 1..{n}")
    kc = rep.key_conductor
    seen = {}
    for g in range(m):
        v = sigma_value(rep, g, i)
        seen.setdefault(v.key(kc), v)
    deltas = [seen[k] for k in sorted(seen)]
    gf, yvars = guard_factors(m)
    sig = sigma_hat_expr(i, var("x"), yvars, m, n)
    factors = gf
    for idx, d in enumerate(deltas, start=1):
        factors.append(sum_([sig, const(-d)]))
        factors.append(var(f"vd{idx}"))
    return IdentityDoc(
        "sigma",
        prod(factors),
        {"Y": _names(yvars)},
        {"m": m, "n": n, "index": i, "values": [d.to_json() for d in deltas]},
        "guarded product over all attained values of one symmetric invariant",
    )


def su_membership_identity(m: int, n: int) -> IdentityDoc:
    _need_positive(m=m, n=n)
    gf, yvars = guard_factors(m)
    sig = sigma_hat_expr(n, var("x"), yvars, m, n)
    return IdentityDoc(
        "su-membership",
        prod(gf + [sum_([sig, const(-1)])]),
        {"Y": _names(yvars)},
        {"m": m, "n": n},
        "guarded determinant-equals-one test",
    )


# -- Adams / spectral families ----------------------------------------------------


def adams_block_expr(rep: Rep, i: int, x: Expr, yvars: list[Expr]) -> Expr:
    rows = rep.adams_rows()
    if not 1 <= i <= len(rows):
        raise BuildError(f"block index {i} out of range 1..{len(rows)}")
    return _distance_sum(rows[i - 1], Cyc.from_rational(Fraction(rep.group.order, rep.dim)),
                         x, yvars)


def spectrum_identity(rep: Rep) -> IdentityDoc:
    m = rep.group.order
    blocks = rep.adams_partition
    gf, yvars = guard_factors(m)
    factors = gf
    for i in range(1, len(blocks) + 1):
        factors.append(adams_block_expr(rep, i, var("x"), yvars))
        if i < len(blocks):
            factors.append(var(f"v{i}"))
    return IdentityDoc(
        "spectrum",
        prod(factors),
        {"Y": _names(yvars)},
        {"m": m, "n": rep.dim, "blocks": [len(b) for b in blocks]},
        "guarded product of spectral-block factors, one per distinct "
        "power-trace vector",
    )


def spectrum_level_identity(rep: Rep, i: int) -> IdentityDoc:
    m = rep.group.order
    factors, groups, xvars, yvars = _double_guard(m, m)
    for j, x in enumerate(xvars, start=1):
        factors.append(adams_block_expr(rep, i, x, yvars))
        factors.append(var(f"w{j}"))
    return IdentityDoc(
        "spectrum-level",
        prod(factors),
        groups,
        {"m": m, "n": rep.dim, "index": i},
        "guarded product asserting one spectral block is attained by every "
        "guard position",
    )


def gassmann_identity(rep: Rep, i: int) -> IdentityDoc:
    m = rep.group.order
    blocks = rep.adams_partition
    if not 1 <= i <= len(blocks):
        raise BuildError(f"block index {i} out of range 1..{len(blocks)}")
    t = len(blocks[i - 1])
    guards, groups, xvars, yvars = _double_guard(m, m)
    bases = [adams_block_expr(rep, i, x, yvars) for x in xvars]
    node = stream_subsets(bases, t, "v_S")
    return IdentityDoc(
        "gassmann",
        prod(guards + [node]),
        groups,
        {
            "m": m,
            "n": rep.dim,
            "index": i,
            "block_size": t,
            "stream_factors": comb(m, t),
            "stream_separator": "v_S",
        },
        "guarded streamed product over block-size subsets of spectral-block sums",
    )


def central_series_gassmann_identity(rep: Rep, t: int, i: int) -> IdentityDoc:
    if t < 1:
        raise BuildError("need t >= 1")
    group = rep.group
    series = group.upper_central_series()
    zt = series[t] if t < len(series) else series[-1]
    inside = set(zt)
    s = group.order - len(inside)
    if s == 0:
        return IdentityDoc(
            "central-series-gassmann", const(0), {},
            {"t": t, "index": i, "outside": 0},
            "degenerate form: the series step swallows the whole group",
            vacuous=True,
        )
    # spectral-block sums restricted to the complement of the series term
    blocks = [[g for g in b if g not in inside] for b in rep.adams_partition]
    blocks = sorted((b for b in blocks if b), key=min)
    if not 1 <= i <= len(blocks):
        raise BuildError(f"block index {i} out of range 1..{len(blocks)}")
    block = blocks[i - 1]
    m, n = group.order, rep.dim
    factors, groups, xvars, yvars = _double_guard(s, m)
    ratio = Cyc.from_rational(Fraction(m, n))
    row = rep.adams_vector(block[0])
    bases = [_distance_sum(row, ratio, x, yvars) for x in xvars]
    factors.append(stream_subsets(bases, len(block), "v_S"))
    # commutator chain factors: (c_t(x, U_x) - 1) v_x per guard position
    for j, x in enumerate(xvars, start=1):
        word = x
        for step in range(1, t + 1):
            u = var(f"c{j}_{step}")
            word = prod([inv(word), inv(u), word, u])
        factors.append(sub(word, const(1)))
        factors.append(var(f"vx{j}"))
    return IdentityDoc(
        "central-series-gassmann",
        prod(factors),
        groups,
        {
            "t": t,
            "index": i,
            "m": m,
            "n": n,
            "outside": s,
            "block_size": len(block),
            "stream_separator": "v_S",
        },
        "streamed spectral-block product over the complement of a central "
        "series term, times iterated-commutator exit factors",
    )


# -- eigenvalue families -----------------------------------------------------------


def minimal_poly_identity(rep: Rep, variant: str = "maximal") -> IdentityDoc:
    kc = rep.key_conductor
    x = var("x")
    if variant == "union":
        exps = eig_union(rep)
        factors = [sub(x, const(cyc_root_of_unity(kc, e))) for e in exps]
        return IdentityDoc(
            "minimal-poly-union",
            prod(factors),
            {},
            {"eigenvalues": list(exps), "conductor": kc},
            "one-variable product over every eigenvalue attained by the "
            "representation",
        )
    if variant != "maximal":
        raise BuildError("variant must be 'union' or 'maximal'")
    max_sets = eig_maximal(rep)
    factors = []
    for i, eset in enumerate(max_sets, start=1):
        poly = prod([sub(x, const(cyc_root_of_unity(kc, e))) for e in eset])
        factors.append(poly)
        if i < len(max_sets):
            factors.append(var(f"v{i}"))
    return IdentityDoc(
        "minimal-poly",
        prod(factors),
        {},
        {"maximal_sets": [list(s) for s in max_sets], "conductor": kc},
        "separated product of minimal polynomials of the maximal "
        "eigenvalue sets",
    )


# -- central partitions --------------------------------------------------------------


def central_partition_identity(rep: Rep, partition: list[list[int]]) -> IdentityDoc:
    group = rep.group
    m = group.order
    flat = sorted(g for block in partition for g in block)
    if flat != list(range(m)):
        raise BuildError("blocks must partition the group")
    targets = []
    for block in partition:
        acc = None
        for g in block:
            acc = rep.images[g] if acc is None else acc + rep.images[g]
        lam = acc.is_scalar()
        if lam is None:
            raise BuildError("a block sum is not scalar; not a central partition")
        targets.append(lam * Cyc.from_rational(Fraction(1, len(block))))
    gx, xvars = guard_factors(m, "x", "s")
    sizes = [len(b) for b in partition]
    node = stream_partitions([f"x{i}" for i in range(1, m + 1)], sizes, targets, "v_P")
    return IdentityDoc(
        "central-partition",
        prod(gx + [node]),
        {"X": _names(xvars)},
        {
            "m": m,
            "sizes": sizes,
            "targets": [t.to_json() for t in targets],
            "stream_separator": "v_P",
        },
        "guarded streamed product over typed partitions of squared distances "
        "of block averages from their scalar targets",
    )


def find_central_partitions(rep: Rep, max_block: int = 6) -> list[dict]:
    """Subsets X (|X| <= max_block) with scalar sum; each induces (X, rest)."""
    if max_block > 6:
        raise BuildError("subset search is limited to blocks of size <= 6")
    group = rep.group
    cc = group.conjugacy_classes
    images = rep.images
    results = []

    def class_union(subset) -> bool:
        members = set(subset)
        for g in subset:
            if not cc.classes[cc.index_of(g)] <= members:
                return False
        return True

    def walk(start: int, chosen: list[int], acc):
        if chosen:
            lam = acc.is_scalar()
            if lam is not None:
                results.append({
                    "subset": tuple(chosen),
                    "scalar": lam,
                    "nontrivial": not class_union(chosen),
                })
        if len(chosen) == max_block:
            return
        for g in range(start, group.order):
            walk(g + 1, chosen + [g], images[g] if acc is None else acc + images[g])

    walk(0, [], None)
    return results


# -- relation probability ---------------------------------------------------------


def probability_identity(u: Expr, t: int, m: int) -> IdentityDoc:
    """Streamed product asserting u vanishes on at least t assignment tuples."""
    if t < 1:
        raise BuildError("need t >= 1")
    uvars = sorted(u.free_vars(), key=_var_sort_key)
    p = len(uvars)
    if t > m**p:
        raise BuildError(f"t={t} exceeds the universe size {m}**{p}")
    guard_parts: list = []
    var_sets = []
    for axis in range(1, p + 1):
        gf, gvars = guard_factors(m, f"x{axis}_", f"s{axis}_")
        guard_parts.extend(gf)
        var_sets.append(gvars)
    bases = []
    for combo in itertools.product(*[range(m) for _ in range(p)]):
        mapping = {uvars[k]: var_sets[k][combo[k]] for k in range(p)}
        inst = substitute(u, mapping)
        bases.append(prod([inst, star(inst)]))
    node = stream_subsets(bases, t, "v_S")
    return IdentityDoc(
        "probability",
        prod(guard_parts + [node]),
        {f"X{axis}": _names(gvars) for axis, gvars in enumerate(var_sets, start=1)},
        {"m": m, "p": p, "t": t, "stream_factors": comb(m**p, t),
         "stream_separator": "v_S"},
        "guarded streamed product over t-subsets of assignment tuples of the "
        "squared relation values",
    )


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    def leaf(node: Expr) -> Expr:
        if node.kind == "var":
            return mapping.get(node.value, node)
        if node.kind == "const":
            return node
        raise BuildError(f"cannot substitute inside {node.kind}")

    return _rewrite(e, leaf, {})


def _rewrite(e: Expr, leaf, memo: dict) -> Expr:
    """Rebuild e through its sums, products and inverses with every other
    node replaced by leaf(node); a shared node is rebuilt once."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if e.kind in ("sum", "prod"):
        children = [_rewrite(c, leaf, memo) for c in e.children]
        out = sum_(children) if e.kind == "sum" else prod(children)
    elif e.kind == "inv":
        out = inv(_rewrite(e.children[0], leaf, memo))
    else:
        out = leaf(e)
    memo[id(e)] = out
    return out


# -- central Laurent polynomial -----------------------------------------------------


def central_laurent(m: int) -> IdentityDoc:
    if m < 2:
        raise BuildError("need m >= 2")
    gf, yvars = guard_factors(m)
    guard_node = prod(gf)
    body = sum_([prod([y, guard_node, inv(y)]) for y in yvars])
    return IdentityDoc(
        "central-laurent",
        body,
        {"Y": _names(yvars)},
        {"m": m},
        "conjugation average of the guard product: scalar-valued on every "
        "assignment, and not identically zero on a faithful irreducible "
        "representation of a group of order m",
        is_identity=False,
    )


# -- separating identity for the metacyclic family -----------------------------------


def gamma_separating_identity(entry, l: int) -> IdentityDoc:
    gamma = entry.meta.get("gamma")
    if gamma is None:
        raise BuildError("entry is not a metacyclic catalog entry")
    m, n, r, d, nprime = gamma.m, gamma.n, gamma.r, gamma.d, gamma.nprime
    if nprime % d != 0:
        raise BuildError("requires the cyclic part exponent divisible by the "
                         "diagonal block size")
    mn = m * n
    gf, yvars = guard_factors(mn)
    x, y = var("x"), var("z")
    sig = sigma_hat_expr(d, y, yvars, mn, d)
    factors = gf
    # determinant values cover every residue class except 1
    for tt in range(2, nprime + 1):
        factors.append(sum_([sig, const(-cyc_root_of_unity(nprime, (l * tt) % nprime))]))
    factors.append(sub(prod([y, power(x, n), inv(y)]), power(x, r * n)))
    return IdentityDoc(
        "gamma-separation",
        prod(factors),
        {"Y": _names(yvars)},
        {"m": m, "n": n, "r": r, "d": d, "nprime": nprime, "l": l},
        "guarded determinant-value factors times the conjugation relation on "
        "n-th powers",
    )


# -- disjunctive, fixed-point and standard identities ---------------------------------


def disjunctive_identity(words: list[Expr]) -> IdentityDoc:
    if not words:
        raise BuildError("need at least one word")
    factors = [var("u0")]
    for i, w in enumerate(words, start=1):
        factors += [sub(w, const(1)), var(f"u{i}")]
    return IdentityDoc(
        "disjunctive",
        prod(factors),
        {},
        {"clauses": len(words)},
        "separated product of word-minus-one factors",
    )


def s4_separating_identity(rep: Rep) -> IdentityDoc:
    """The 24-variable identity separating the two faithful 3-dim characters
    of the order-24 symmetric group: built from the sixth-power clause and the
    conjugation average matched to the rep's own 4-cycle character value."""
    group = rep.group
    m, n = group.order, rep.dim
    if (m, n) != (24, 3):
        raise BuildError("expects a 3-dimensional rep of the order-24 group")
    four_cycle = next(g for g in range(m) if group.element_order(g) == 4)
    c = rep.character.value(four_cycle) * Cyc.from_rational(Fraction(m, n))
    gf, yvars = guard_factors(m)
    x = var("x")
    factors = gf + [sub(power(x, 6), const(1)), var("y25"), sum_([psi_expr(x, yvars), const(-c)])]
    return IdentityDoc(
        "s4-separation",
        prod(factors),
        {"Y": _names(yvars)},
        {"m": m, "n": n, "constant": c.to_json()},
        "sixth-power clause or the 4-cycle character value is attained",
    )


def fixed_point_identity(rep: Rep, i: int) -> IdentityDoc:
    """For a fixed-point-free rep: order clauses against the i-th element
    order, followed by the vanishing cyclic average."""
    group = rep.group
    orders = group.order_statistics()
    if not 1 <= i <= len(orders):
        raise BuildError(f"order index {i} out of range 1..{len(orders)}")
    d_i = orders[i - 1]
    m, n = group.order, rep.dim
    gf, yvars = guard_factors(m)
    x = var("x")
    factors = gf
    for d in orders:
        if d != d_i:
            factors.append(sub(power(x, d), const(1)))
            factors.append(var(f"yd{d}"))
    # distinct fixed-space dimensions of order-d_i cyclic subgroups
    dims = set()
    for g in range(group.order):
        if group.element_order(g) == d_i:
            cyc = group.subgroup_generated([g])
            dims.add(fixed_point_dimension(rep, sorted(cyc)))
    avg = sum_([const(m)] + [psi_expr(power(x, k), yvars) for k in range(1, d_i)])
    for idx, dim in enumerate(sorted(dims), start=1):
        target = Fraction(m, n) * d_i * dim
        factors.append(sum_([avg, const(-target)]))
        factors.append(var(f"w{idx}"))
    return IdentityDoc(
        "fixed-point",
        prod(factors),
        {"Y": _names(yvars)},
        {"m": m, "n": n, "order": d_i, "dims": sorted(dims)},
        "order clauses against one element order, then cyclic averages "
        "pinned to fixed-space dimensions",
    )


def standard_identity(k: int) -> IdentityDoc:
    """Alternating sum over all orderings of k variables, built as a shared
    sub-product DAG so evaluation costs O(2^k k) products."""
    if k < 1:
        raise BuildError("need k >= 1")
    names = [f"y{i}" for i in range(1, k + 1)]
    # the node of each subset, built from those one smaller
    nodes = {(i,): var(nm) for i, nm in enumerate(names)}
    for size in range(2, k + 1):
        for s in itertools.combinations(range(k), size):
            nodes[s] = sum_([smul((-1) ** (size - 1 - pos),
                                  prod([nodes[s[:pos] + s[pos + 1:]], var(names[i])]))
                             for pos, i in enumerate(s)])
    expr = nodes[tuple(range(k))]
    return IdentityDoc(
        "standard",
        expr,
        {},
        {"k": k},
        "fully alternating multilinear sum over all orderings of the variables",
    )


def expand_doc(doc: IdentityDoc, limit: int = 10_000) -> IdentityDoc:
    """Unroll streamed products into explicit factors (size-guarded)."""
    expr = _rewrite(doc.expr, lambda e: expand_stream(e, limit), {})
    return IdentityDoc(doc.family + "-expanded", expr, doc.guards, dict(doc.params),
                       doc.citation, is_identity=doc.is_identity, vacuous=doc.vacuous)
