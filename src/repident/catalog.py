"""Constructors for the groups and representations used throughout:
cyclic and symmetric/alternating groups with exact irreducible matrix
models, quaternion and binary tetrahedral groups, Heisenberg p-groups,
the metacyclic fixed-point-free family Gamma_d(m,n,r) with its pi_{k,l}
irreps, the wreath product Z_p^p . C_p with its induced irreps, and
parametrized diagonal representations of elementary abelian groups.

Matrix models are chosen for exactness and speed: permutation-derived
integral models where they exist, monomial models over small cyclotomic
fields otherwise.  A model defined by generators (the pi_{k,l}, the split
3-dimensional models of A5 and the one-dimensional characters that S3:std,
A4:omega and the 3-dimensional irreps of S4 rest on) is built from its
generator images alone: each image is its parent's image times one
generator image along the group's word tree.  Closed-form models are
written entry by entry.  Either way Rep's validation is the one proof that
a model is a homomorphism.  It is skipped only where it cannot fail: for
models that reuse validated images, and for the diagonal abelian models,
whose exponents V a are linear in a.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exactnum import (_MR_LIMIT, Cyc, _is_prime, cyc_root_of_unity, golden_ratio,
                       mat_mul_mod)
from .grouplab import FiniteGroup, GroupError, group_from_elements
from .matrices import Mat, column_space_basis
from .replab import Rep, RepError, induced_rep, restrict_rep, subgroup_group


class CatalogError(ValueError):
    pass


@dataclass
class CatalogEntry:
    name: str
    group: FiniteGroup
    elements: list  # abstract element per index
    rep_builders: dict  # name -> zero-arg callable
    meta: dict

    _reps: dict = None

    def rep(self, name: str) -> Rep:
        if self._reps is None:
            self._reps = {}
        if name not in self._reps:
            builder = self.rep_builders.get(name)
            if builder is None:
                raise CatalogError(f"{self.name} has no representation {name!r}; "
                                   f"known: {sorted(self.rep_builders)}")
            self._reps[name] = builder()
        return self._reps[name]

    def rep_names(self) -> list[str]:
        return sorted(self.rep_builders)


def validate_catalog_rep(rep: Rep) -> None:
    """Unitary, monomial, or invariant-form validation (plus the homomorphism
    checks already performed at construction)."""
    if rep.is_unitary():
        return
    if rep.is_monomial_valued():
        return
    if rep.has_invariant_form():
        return
    raise RepError(f"{rep.name}: no unitarity, monomial structure, or invariant form")


# -- permutations -----------------------------------------------------------


def _perm_sign(p) -> int:
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def _perm_mul(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_group(n: int, even_only: bool):
    perms = sorted(
        p for p in itertools.permutations(range(n)) if not even_only or _perm_sign(p) == 1
    )
    name = ("A" if even_only else "S") + str(n)
    group, elems = group_from_elements(perms, _perm_mul, name=name)
    return group, elems


def _perm_matrix_std(perm, conductor=1) -> Mat:
    """Standard (n-1)-dimensional integral model: action on e_i - e_{n-1}."""
    n = len(perm)
    one = Cyc.one(conductor)
    zero = Cyc.zero(conductor)
    cols = []
    for j in range(n - 1):
        col = [zero] * (n - 1)
        tgt = perm[j]
        if tgt < n - 1:
            col[tgt] = one
        anchor = perm[n - 1]
        if anchor < n - 1:
            col = [col[i] - one if i == anchor else col[i] for i in range(n - 1)]
        cols.append(col)
    return Mat(tuple(tuple(cols[j][i] for j in range(n - 1)) for i in range(n - 1)))


def _scale_rep_by_sign(rep: Rep, elems) -> list[Mat]:
    out = []
    for g, perm in enumerate(elems):
        mt = rep.images[g]
        out.append(mt if _perm_sign(perm) == 1 else -mt)
    return out


def _exterior_square(m: Mat) -> Mat:
    n = m.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            row.append(m.rows[i][k] * m.rows[j][l] - m.rows[i][l] * m.rows[j][k])
        rows.append(tuple(row))
    return Mat(tuple(rows))


def _one_dim_rep(group: FiniteGroup, values: list[Cyc], name: str) -> Rep:
    return Rep(group, [Mat(((v,),)) for v in values], name=name)


def _from_generators(group: FiniteGroup, gens: list[int], gen_images: list[Mat],
                     name: str) -> Rep:
    """The representation sending gens[i] to gen_images[i].  Each image is
    its parent's image times one generator image, along the word tree, and
    Rep's validation proves the result a homomorphism (RepError if the
    generator images satisfy no relation the group needs)."""
    n = gen_images[0].n
    one = Cyc.one(lcm(*(v.conductor for m in gen_images for row in m.rows for v in row)))
    # zeros at conductor 1, as Mat products write them
    images = [Mat(tuple(tuple(one if i == j else Cyc.zero() for j in range(n))
                        for i in range(n)))] * group.order
    for y, parent, gi in group._word_tree(gens):
        images[y] = images[parent] * gen_images[gi]
    return Rep(group, images, name=name)


def _linear_characters(group: FiniteGroup, gens: list[int]) -> list[Rep]:
    """All one-dimensional representations, by brute force over root-of-unity
    generator images, in the order of the generators' exponents: for one
    generator g of order o, entry k sends g to zeta_o^k."""
    orders = [group.element_order(g) for g in gens]
    common = lcm(*orders)
    results = []
    for choice in itertools.product(*[range(o) for o in orders]):
        imgs = [Mat(((cyc_root_of_unity(common, k * (common // o)),),))
                for k, o in zip(choice, orders)]
        try:
            results.append(_from_generators(group, gens, imgs, f"{group.name}:lin{choice}"))
        except RepError:
            pass
    return results


# -- cyclic groups -----------------------------------------------------------


@lru_cache(maxsize=None)
def cyclic(n: int) -> CatalogEntry:
    if n < 1:
        raise CatalogError("cyclic(n) needs n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    group = FiniteGroup(table, name=f"Z{n}")
    builders = {}
    for k in range(n):
        def build(k=k):
            return _one_dim_rep(group, [cyc_root_of_unity(n, (k * g) % n) for g in range(n)],
                                name=f"Z{n}:chi{k}")
        builders[f"chi{k}"] = build
    return CatalogEntry(f"Z{n}", group, list(range(n)), builders, {"kind": "cyclic"})


# -- symmetric and alternating groups ----------------------------------------


@lru_cache(maxsize=None)
def symmetric(n: int) -> CatalogEntry:
    if not 2 <= n <= 5:
        raise CatalogError("symmetric(n) supported for 2 <= n <= 5")
    group, elems = _perm_group(n, even_only=False)
    builders: dict = {}
    # S4 follows its character table's numbering
    triv, sign = ("rho1", "rho2") if n == 4 else ("triv", "sign")
    builders[triv] = lambda: _one_dim_rep(group, [Cyc.one()] * group.order, f"S{n}:{triv}")
    builders[sign] = lambda: _one_dim_rep(
        group, [Cyc.from_rational(_perm_sign(p)) for p in elems], f"S{n}:{sign}"
    )
    if n == 3:
        builders["std"] = lambda: _s3_std(group, elems)
    if n == 4:
        builders["rho3"] = lambda: _s4_rho3(group, elems)
        builders["rho4"] = lambda: _s4_three_dim(group, elems, "rho4")
        builders["rho5"] = lambda: _s4_three_dim(group, elems, "rho5")
    if n == 5:
        builders["std4"] = lambda: Rep(group, [_perm_matrix_std(p) for p in elems],
                                       name="S5:std4")
        builders["std4s"] = lambda: Rep(
            group, _scale_rep_by_sign(symmetric(5).rep("std4"), elems), name="S5:std4s"
        )
        builders["five"] = lambda: _s5_five(group, elems)
        builders["fives"] = lambda: Rep(
            group, _scale_rep_by_sign(symmetric(5).rep("five"), elems), name="S5:fives"
        )
        builders["six"] = lambda: Rep(
            group, [_exterior_square(m) for m in symmetric(5).rep("std4").images],
            name="S5:six",
        )
    return CatalogEntry(f"S{n}", group, elems, builders, {"kind": "symmetric"})


def _s3_std(group: FiniteGroup, elems) -> Rep:
    # induced from the alternating subgroup with a primitive cube-root character
    a3 = [g for g, p in enumerate(elems) if _perm_sign(p) == 1]
    sub, sub_map = subgroup_group(group, a3)
    gen = next(g for g in range(sub.order) if sub.element_order(g) == 3)
    return induced_rep(group, a3, _linear_characters(sub, [gen])[1], sub_map, name="S3:std")


def _s4_rho3(group: FiniteGroup, elems) -> Rep:
    # two-dimensional irrep: factor through S4 / V4 ~ S3 and lift std
    v4 = [g for g, p in enumerate(elems)
          if p == tuple(range(4)) or _cycle_type(p) == (2, 2)]
    quotient, coset_of = group.quotient(frozenset(v4))
    s3 = symmetric(3)
    iso = quotient.find_isomorphism(s3.group)
    if iso is None:
        raise CatalogError("S4/V4 is not S3 (catalog bug)")
    std = s3.rep("std")
    return Rep(group, [std.images[iso[coset_of[g]]] for g in range(group.order)],
               name="S4:rho3")


def _cycle_type(p) -> tuple[int, ...]:
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            l += 1
        if l > 1:
            lens.append(l)
    return tuple(sorted(lens, reverse=True))


@lru_cache(maxsize=None)
def _s4_three_dims() -> dict:
    """Both 3-dim irreps of S4 as signed-permutation induced models, keyed by
    their value on a transposition (+1 for the standard one)."""
    entry = symmetric(4)
    group, elems = entry.group, entry.elements
    # index-3 dihedral subgroup generated by a 4-cycle and a transposition
    four_cycle = next(g for g, p in enumerate(elems) if _cycle_type(p) == (4,))
    swap = next(
        g
        for g, p in enumerate(elems)
        if _cycle_type(p) == (2,) and group.table[g][four_cycle] != group.table[four_cycle][g]
        and group.element_order(group.table[g][four_cycle]) == 2
    )
    d4 = sorted(group.subgroup_generated([four_cycle, swap]))
    if len(d4) != 8:
        raise CatalogError("dihedral subgroup of S4 not of order 8")
    sub, sub_map = subgroup_group(group, d4)
    sub_gens = [sub_map.index(four_cycle), sub_map.index(swap)]
    out = {}
    for one in _linear_characters(sub, sub_gens):
        ind = induced_rep(group, d4, one, sub_map)
        chi = ind.character
        if ind.is_irreducible():
            transposition = next(g for g, p in enumerate(elems) if _cycle_type(p) == (2,))
            key = chi.value(transposition)
            out[(key == 1, key == -1)] = ind
    if len(out) != 2:
        raise CatalogError("expected exactly two 3-dim irreps of S4")
    return {"plus": out[(True, False)], "minus": out[(False, True)]}


def _s4_three_dim(group, elems, which: str) -> Rep:
    pair = _s4_three_dims()
    # table row rho4 has value -1 on transpositions and +1 on 4-cycles
    rep = pair["minus"] if which == "rho4" else pair["plus"]
    return Rep(group, rep.images, name=f"S4:{which}", validate=False)


def _s5_five(group: FiniteGroup, elems) -> Rep:
    """Five-dimensional irrep from the action on the six cosets of a
    20-element affine subgroup."""
    five_cycle = next(g for g, p in enumerate(elems) if _cycle_type(p) == (5,))
    f20 = None
    for g, p in enumerate(elems):
        if _cycle_type(p) == (4,):
            sub = group.subgroup_generated([five_cycle, g])
            if len(sub) == 20:
                f20 = sorted(sub)
                break
    if f20 is None:
        raise CatalogError("no 20-element subgroup found in S5")
    leaders = group.coset_leaders(f20)
    transversal = sorted(set(leaders))
    coset_idx = {t: i for i, t in enumerate(transversal)}
    # permutation action on cosets, then cut the invariant complement
    images = []
    for g in range(group.order):
        perm = tuple(coset_idx[leaders[group.table[g][t]]] for t in transversal)
        images.append(_perm_matrix_std(perm))
    return Rep(group, images, name="S5:five")


@lru_cache(maxsize=None)
def alternating(n: int) -> CatalogEntry:
    if n not in (4, 5):
        raise CatalogError("alternating(n) supported for n in {4, 5}")
    group, elems = _perm_group(n, even_only=True)
    builders: dict = {}
    builders["triv"] = lambda: _one_dim_rep(group, [Cyc.one()] * group.order,
                                            f"A{n}:triv")
    if n == 4:
        builders["omega"] = lambda: _a4_omega(group, elems, 1, "A4:omega")
        builders["omega2"] = lambda: _a4_omega(group, elems, 2, "A4:omega2")
        builders["tau"] = lambda: Rep(group, [_perm_matrix_std(p) for p in elems],
                                      name="A4:tau")
    if n == 5:
        builders["dim4"] = lambda: Rep(group, [_perm_matrix_std(p) for p in elems],
                                       name="A5:dim4")
        builders["dim5"] = lambda: _a5_five(group, elems)
        builders["dim3a"] = lambda: _a5_three(group, elems, "a")
        builders["dim3b"] = lambda: _a5_three(group, elems, "b")
    return CatalogEntry(f"A{n}", group, elems, builders, {"kind": "alternating"})


def _a4_omega(group, elems, power: int, name: str) -> Rep:
    v4 = [g for g, p in enumerate(elems)
          if p == tuple(range(4)) or _cycle_type(p) == (2, 2)]
    quotient, coset_of = group.quotient(frozenset(v4))
    gen = next(q for q in range(quotient.order) if quotient.element_order(q) == 3)
    # gen -> zeta_3^power
    chi = _linear_characters(quotient, [gen])[power]
    return Rep(group, [chi.images[coset_of[g]] for g in range(group.order)], name=name)


def _a5_five(group, elems) -> Rep:
    s5 = symmetric(5)
    five = s5.rep("five")
    idx = {p: i for i, p in enumerate(s5.elements)}
    return Rep(group, [five.images[idx[p]] for p in elems], name="A5:dim5")


@lru_cache(maxsize=None)
def _a5_three_pair() -> tuple[Rep, Rep]:
    """Split the exterior square of the 4-dim model over Q(zeta_5)."""
    entry = alternating(5)
    group, elems = entry.group, entry.elements
    lam = [_exterior_square(_perm_matrix_std(p, conductor=5)) for p in elems]
    phi = golden_ratio()
    psi = Cyc.one(5) - phi  # (1 - sqrt5)/2, the algebraic conjugate
    cc = group.conjugacy_classes
    # label the two order-5 classes by minimal representative
    five_classes = [i for i in range(len(cc)) if group.element_order(cc.representatives[i]) == 5]
    five_classes.sort(key=lambda i: cc.representatives[i])
    chi = {}
    for g in range(group.order):
        o = group.element_order(g)
        if o == 1:
            chi[g] = Cyc.from_rational(3, 5)
        elif o == 2:
            chi[g] = Cyc.from_rational(-1, 5)
        elif o == 3:
            chi[g] = Cyc.zero(5)
        else:
            chi[g] = phi if cc.index_of(g) == five_classes[0] else psi
    # central idempotent (3/60) sum chi(g^-1) Lam(g)
    scale = Cyc.from_rational(Fraction(3, 60), 5)
    acc = None
    for g in range(group.order):
        term = lam[g].scale(chi[group.inverse[g]])
        acc = term if acc is None else acc + term
    idem = acc.scale(scale)
    basis_cols = column_space_basis([list(r) for r in idem.rows])
    if len(basis_cols) != 3:
        raise CatalogError("idempotent image is not 3-dimensional")
    b_rows = [[basis_cols[j][i] for j in range(3)] for i in range(6)]
    # choose 3 independent rows of B to coordinatize
    sel = None
    for combo in itertools.combinations(range(6), 3):
        m3 = Mat(tuple(tuple(b_rows[i]) for i in combo))
        try:
            inv3 = m3.inverse()
        except ZeroDivisionError:
            continue
        sel = (combo, inv3)
        break
    if sel is None:
        raise CatalogError("no coordinatizing rows found")
    combo, inv3 = sel

    def coordinates(m: Mat) -> Mat:
        # m acting on the basis columns, read in the coordinatizing rows
        return inv3 * Mat(tuple(
            tuple(sum((m.rows[i][k] * b_rows[k][j] for k in range(6)), Cyc.zero(5))
                  for j in range(3))
            for i in combo))

    gens = group.small_generating_set()
    rep_a = _from_generators(group, gens, [coordinates(lam[g]) for g in gens], "A5:dim3a")
    if rep_a.character.values != [chi[g] for g in range(group.order)]:
        raise CatalogError("split rep has unexpected character")
    rep_b = Rep(group, [m.galois(2) for m in rep_a.images], name="A5:dim3b")
    return rep_a, rep_b


def _a5_three(group, elems, which: str) -> Rep:
    a, b = _a5_three_pair()
    return a if which == "a" else b


# -- quaternions and the binary tetrahedral group -----------------------------


def _mat_key(m: Mat, conductor: int):
    return tuple(v.key(conductor) for row in m.rows for v in row)


def matrix_group(gens: list[Mat], conductor: int, name: str) -> tuple[FiniteGroup, list[Mat]]:
    """Closure of generator matrices; returns the table group (identity first,
    then BFS discovery order) and the matrix per element."""
    ident = Mat.identity(gens[0].n, conductor)
    elems = [ident]
    keys = {_mat_key(ident, conductor): 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod_m = m * g
                k = _mat_key(prod_m, conductor)
                if k not in keys:
                    keys[k] = len(elems)
                    elems.append(prod_m)
                    nxt.append(prod_m)
        frontier = nxt
        if len(elems) > 2048:
            raise CatalogError("matrix group closure too large")
    order = len(elems)
    table = [[keys[_mat_key(elems[a] * elems[b], conductor)] for b in range(order)]
             for a in range(order)]
    group = FiniteGroup(table, name=name)
    return group, elems


def _quaternion_generators() -> list[Mat]:
    i = cyc_root_of_unity(4, 1)
    z = Cyc.zero(4)
    one = Cyc.one(4)
    mi = Mat(((i, z), (z, -i)))
    mj = Mat(((z, one), (-one, z)))
    return [mi, mj]


@lru_cache(maxsize=None)
def quaternion() -> CatalogEntry:
    group, elems = matrix_group(_quaternion_generators(), 4, "Q8")
    builders = {"dim2": lambda: Rep(group, elems, name="Q8:dim2")}
    return CatalogEntry("Q8", group, elems, builders, {"kind": "quaternion"})


@lru_cache(maxsize=None)
def binary_tetrahedral() -> CatalogEntry:
    i = cyc_root_of_unity(4, 1)
    z = Cyc.zero(4)
    one = Cyc.one(4)
    half = Cyc.from_rational(Fraction(1, 2), 4)
    mi = Mat(((i, z), (z, -i)))
    mj = Mat(((z, one), (-one, z)))
    # (-1 + i + j + k)/2, a unit quaternion of order 3
    mw = Mat((((i - one) * half, (one + i) * half),
              ((i - one) * half, (-one - i) * half)))
    group, elems = matrix_group([mi, mj, mw], 4, "2T")
    builders = {"nat": lambda: Rep(group, elems, name="2T:nat")}
    return CatalogEntry("2T", group, elems, builders, {"kind": "binary_tetrahedral"})


# -- Heisenberg groups --------------------------------------------------------


@lru_cache(maxsize=None)
def heisenberg(p: int) -> CatalogEntry:
    """Minimal Heisenberg p-group of order p^3 (p an odd prime)."""
    if p == 2 or p >= _MR_LIMIT or not _is_prime(p):
        raise CatalogError("heisenberg(p) needs an odd prime p")
    triples = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mul(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[1] * y[0]) % p)

    group, elems = group_from_elements(triples, mul, name=f"H{p}")
    builders = {}
    for t in range(1, p):
        def build(t=t):
            images = []
            zero = Cyc.zero(p)
            for (a, b, c) in elems:
                rows = [[zero] * p for _ in range(p)]
                for x in range(p):
                    rows[(x + a) % p][x] = cyc_root_of_unity(p, (t * (c + b * x)) % p)
                images.append(Mat(tuple(tuple(r) for r in rows)))
            return Rep(group, images, name=f"H{p}:theta{t}")
        builders[f"theta{t}"] = build
    return CatalogEntry(f"H{p}", group, list(elems), builders, {"kind": "heisenberg", "p": p})


# -- metacyclic fixed-point-free groups Gamma_d(m,n,r) ------------------------


@dataclass(frozen=True)
class GammaGroup:
    m: int
    n: int
    r: int
    d: int
    nprime: int
    entry_name: str


def _mult_order(r: int, m: int) -> int:
    if gcd(r, m) != 1:
        raise CatalogError("r must be a unit mod m")
    k, x = 1, r % m
    while x != 1:
        x = (x * r) % m
        k += 1
    return k


@lru_cache(maxsize=None)
def gamma_d(m: int, n: int, r: int) -> CatalogEntry:
    if m < 2 or n < 1:
        raise CatalogError("need m >= 2 and n >= 1")
    d = _mult_order(r, m)
    if gcd(m, (r - 1) * n) != 1:
        raise CatalogError("condition gcd(m,(r-1)n) = 1 fails")
    if n % d != 0:
        raise CatalogError("d must divide n")
    nprime = n // d
    dd = d
    for q in range(2, d + 1):
        if dd % q == 0:
            if nprime % q != 0:
                raise CatalogError(f"prime divisor {q} of d does not divide n'")
            while dd % q == 0:
                dd //= q
    name = f"gamma({m},{n},{r})"
    # element (i, j) is A^i B^j; identity is (0, 0)
    rpow = [pow(r, j, m) for j in range(n)]

    def mul(x, y):
        return ((x[0] + y[0] * rpow[x[1]]) % m, (x[1] + y[1]) % n)

    pairs = [(i, j) for i in range(m) for j in range(n)]
    group, elems = group_from_elements(pairs, mul, name=name)
    gamma = GammaGroup(m, n, r, d, nprime, name)
    builders = {}
    for k in range(1, m):
        if gcd(k, m) != 1:
            continue
        for l in range(1, n):
            if gcd(l, n) != 1:
                continue
            def build(k=k, l=l):
                return _pi_kl_rep(group, elems, gamma, k, l)
            builders[f"pi({k},{l})"] = build
    entry = CatalogEntry(name, group, elems, builders,
                         {"kind": "gamma", "gamma": gamma})
    return entry


def _pi_kl_rep(group: FiniteGroup, elems, gamma: GammaGroup, k: int, l: int) -> Rep:
    m, d, nprime, r = gamma.m, gamma.d, gamma.nprime, gamma.r
    conductor = lcm(m, nprime)
    zero = Cyc.zero(conductor)
    a_mat = Mat(tuple(
        tuple(cyc_root_of_unity(m, (k * pow(r, c, m)) % m).lift(conductor) if c == c2 else zero
              for c2 in range(d))
        for c in range(d)
    ))
    rows = []
    corner = cyc_root_of_unity(nprime, l % nprime).lift(conductor)
    one = Cyc.one(conductor)
    for i in range(d):
        row = [zero] * d
        if i < d - 1:
            row[i + 1] = one
        else:
            row[0] = corner
        rows.append(tuple(row))
    b_mat = Mat(tuple(rows))
    gens = [elems.index((1, 0)), elems.index((0, 1))]
    return _from_generators(group, gens, [a_mat, b_mat], f"{gamma.entry_name}:pi({k},{l})")


# -- wreath product Z_p^p . C_p ----------------------------------------------


def circulant(w: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """Circulant matrix of a form w as sum w_i shift^i, entries mod p: entry
    (a, b) is w[(b - a) mod p]."""
    return tuple(tuple(w[(b - a) % p] % p for b in range(p)) for a in range(p))


def _mat_mod_det(mat, p) -> int:
    n = len(mat)
    m = [list(r) for r in mat]
    det = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] % p:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = (det * m[col][col]) % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % p
            if f:
                m[r] = [(m[r][j] - f * m[col][j]) % p for j in range(n)]
    return det % p


def is_admissible(w: tuple[int, ...], p: int) -> bool:
    return sum(w) % p != 0


def find_unit_h(p: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """First (lexicographically) circulant unit of order p outside the shift powers.

    The shift powers are the circulants of the unit coefficient vectors.  A
    singular circulant has no power equal to the identity, so the order test
    alone keeps the units.  Returns (coefficient vector, matrix mod p).
    """
    ident = circulant((1,) + (0,) * (p - 1), p)
    for coeffs in itertools.product(range(p), repeat=p):
        if sum(coeffs) == 1:
            continue  # a unit vector: a power of the shift
        h = x = circulant(coeffs, p)
        order = 1
        while x != ident and order <= p:
            x = mat_mul_mod(x, h, p)
            order += 1
        if order == p:
            return coeffs, h
    raise CatalogError("no unit of order p found (p must be an odd prime > 2)")


@lru_cache(maxsize=None)
def wreath(p: int) -> CatalogEntry:
    """Semidirect product Z_p^p . C_p via the coordinate cycle (order p^(p+1)), p an odd prime."""
    if p == 2 or p >= _MR_LIMIT or not _is_prime(p):
        raise CatalogError("wreath(p) needs an odd prime p")
    vectors = list(itertools.product(range(p), repeat=p))

    def act(s, a):
        # coordinate permutation by the s-th power of the cycle
        return tuple(a[(i + s) % p] for i in range(p))

    pairs = [(a, s) for a in vectors for s in range(p)]

    def mul(x, y):
        a1, s1 = x
        a2, s2 = y
        shifted = act(s1, a2)
        return (tuple((a1[i] + shifted[i]) % p for i in range(p)), (s1 + s2) % p)

    group, elems = group_from_elements(pairs, mul, name=f"W{p}")
    builders = {}
    w0 = tuple([1] + [0] * (p - 1))
    h_coeffs, h_mat = find_unit_h(p)
    hw0 = tuple(sum(h_mat[i][j] * w0[j] for j in range(p)) % p for i in range(p))
    builders["rho_w"] = lambda: _rho_w(group, elems, p, w0, f"W{p}:rho_w")
    builders["rho_hw"] = lambda: _rho_w(group, elems, p, hw0, f"W{p}:rho_hw")
    return CatalogEntry(
        f"W{p}", group, elems, builders,
        {"kind": "wreath", "p": p, "w": w0, "h": h_coeffs, "hw": hw0},
    )


def rho_w(entry: CatalogEntry, w: tuple[int, ...]) -> Rep:
    p = entry.meta["p"]
    return _rho_w(entry.group, entry.elements, p, w, f"W{p}:rho{w}")


def _rho_w(group: FiniteGroup, elems, p: int, w: tuple[int, ...], name: str) -> Rep:
    if not is_admissible(w, p):
        raise CatalogError(f"form {w} is not admissible (coordinates sum to 0 mod {p})")
    abelian_part = [g for g, (a, s) in enumerate(elems) if s == 0]
    sub, sub_map = subgroup_group(group, abelian_part)
    vals = []
    for idx in range(sub.order):
        a, _ = elems[sub_map[idx]]
        vals.append(cyc_root_of_unity(p, sum(w[i] * a[i] for i in range(p)) % p))
    one_dim = _one_dim_rep(sub, vals, f"W{p}:w'{w}")
    return induced_rep(group, abelian_part, one_dim, sub_map, name=name)


# -- parametrized abelian representations -------------------------------------


@lru_cache(maxsize=None)
def elementary_abelian(p: int, m: int) -> CatalogEntry:
    vectors = list(itertools.product(range(p), repeat=m))

    def mul(x, y):
        return tuple((x[i] + y[i]) % p for i in range(m))

    group, elems = group_from_elements(vectors, mul, name=f"Z{p}^{m}")
    return CatalogEntry(f"Z{p}^{m}", group, elems, {}, {"kind": "abelian", "p": p, "m": m})


def abelian_rep(p: int, m: int, n: int, v_matrix) -> Rep:
    """Diagonal representation a -> diag(zeta_p^(V a)) of Z_p^m in dimension n."""
    entry = elementary_abelian(p, m)
    group, elems = entry.group, entry.elements
    zero = Cyc.zero(p)
    images = []
    for a in elems:
        va = [sum(v_matrix[row][i] * a[i] for i in range(m)) % p for row in range(n)]
        rows = tuple(
            tuple(cyc_root_of_unity(p, va[i]) if i == j else zero for j in range(n))
            for i in range(n)
        )
        images.append(Mat(rows))
    return Rep(group, images, name=f"Z{p}^{m}:V{tuple(tuple(r) for r in v_matrix)}",
               validate=False)


# -- registry -----------------------------------------------------------------


def get_entry(name: str) -> CatalogEntry:
    name = name.strip()
    if name.startswith("Z") and name[1:].isdigit():
        return cyclic(int(name[1:]))
    if name.startswith("S") and name[1:].isdigit():
        return symmetric(int(name[1:]))
    if name.startswith("A") and name[1:].isdigit():
        return alternating(int(name[1:]))
    if name == "Q8":
        return quaternion()
    if name == "2T":
        return binary_tetrahedral()
    if name.startswith("H") and name[1:].isdigit():
        return heisenberg(int(name[1:]))
    if name.startswith("W") and name[1:].isdigit():
        return wreath(int(name[1:]))
    if name.startswith("gamma(") and name.endswith(")"):
        try:
            m, n, r = (int(part) for part in name[6:-1].split(","))
        except ValueError:
            raise CatalogError(f"{name!r} is not gamma(m,n,r) with integers m, n, r") from None
        return gamma_d(m, n, r)
    raise CatalogError(f"unknown catalog group {name!r}")


def get_rep(group_name: str, rep_name: str) -> Rep:
    return get_entry(group_name).rep(rep_name)


def list_known() -> list[str]:
    return ["Z<n>", "S2..S5", "A4", "A5", "Q8", "2T", "H<p> (p an odd prime)",
            "W<p> (p an odd prime)", "gamma(m,n,r)"]
