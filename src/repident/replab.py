"""Matrix representations over Cyc and their character-level analytics:
characters, Adams vectors and the spectral partition, elementary symmetric
invariants of eigenvalues, exact spectra via Fourier inversion on cyclic
subgroups, induction/restriction, Galois twists, fixed-point dimensions
and Molien series coefficients.

Spectra are always computed from power traces (the Adams data), never
from an eigenvalue solver: for g of order d the multiplicity of zeta_d^k
is (1/d) * sum_t chi(g^t) zeta_d^(-kt), an exact cyclotomic computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exactnum import Cyc, cyc_root_of_unity, demote, euler_phi, mod_p
from .grouplab import FiniteGroup, GroupError
from .matrices import Mat


class RepError(ValueError):
    pass


class Rep:
    def __init__(self, group: FiniteGroup, images, name=None, validate=True):
        self.group = group
        self.images = tuple(images)
        if len(self.images) != group.order:
            raise RepError("need one matrix per group element")
        self.dim = self.images[0].n
        self.name = name or f"rep{self.dim}d"
        if validate:
            self._validate()

    def _validate(self):
        """rho(e) = I and rho(a) rho(s) = rho(as) for every a and every s in a
        generating set.  That proves rho a homomorphism: every b is a word
        s1...sk in the generators, so by induction on k rho(b) =
        rho(s1)...rho(sk), and then rho(a) rho(b) = rho(ab) step by step."""
        if not self.images[0].is_identity():
            raise RepError("identity element must map to the identity matrix")
        table = self.group.table
        for s in self.group.small_generating_set():
            image = self.images[s]
            for a in range(self.group.order):
                if self.images[a] * image != self.images[table[a][s]]:
                    raise RepError(f"homomorphism fails at pair ({a},{s})")

    def image(self, g: int) -> Mat:
        return self.images[g]

    @cached_property
    def conductor(self) -> int:
        c = 1
        for mt in self.images:
            for row in mt.rows:
                for v in row:
                    c = lcm(c, v.conductor)
        return c

    @cached_property
    def key_conductor(self) -> int:
        """Conductor for canonical value keys: lcm of group exponent and entries."""
        return lcm(self.group.exponent(), self.conductor)

    @cached_property
    def character(self) -> "Character":
        return Character(self.group, [mt.trace() for mt in self.images], rep=self)

    # -- predicates -------------------------------------------------------

    @cached_property
    def kernel(self) -> frozenset[int]:
        return frozenset(g for g in range(self.group.order) if self.images[g].is_identity())

    def is_faithful(self) -> bool:
        return self.kernel == frozenset({0})

    def is_irreducible(self) -> bool:
        return self._irreducible

    @cached_property
    def _irreducible(self) -> bool:
        return inner_product(self.character, self.character) == 1

    def is_unitary(self) -> bool:
        inv = self.group.inverse
        return all(
            self.images[inv[g]] == self.images[g].conj_transpose()
            for g in range(self.group.order)
        )

    def is_monomial_valued(self) -> bool:
        return all(mt.monomial_form() for mt in self.images)

    def has_invariant_form(self) -> bool:
        """An invariant sesquilinear form sum_g rho(g)* rho(g) exists and is checked."""
        s = None
        for mt in self.images:
            term = mt.conj_transpose() * mt
            s = term if s is None else s + term
        return all(mt.conj_transpose() * s * mt == s for mt in self.images)

    def is_fixed_point_free(self) -> bool:
        """No nontrivial element has eigenvalue 1."""
        exp = self.key_conductor
        for g in range(1, self.group.order):
            if any(e == 0 and mult > 0 for e, mult in spectrum_key(self, g, exp)):
                return False
        return True

    # -- lazy facts for group-algebra evaluation ------------------------------

    @cached_property
    def scalar_cosets(self) -> list[tuple[int, object]] | None:
        """Fold of the group onto the cosets of its scalar subgroup
        Z = {g : rho(g) = lam I}: entry g is (r, lam) with rho(g) = lam rho(r)
        and r the least element of gZ; None when Z is trivial.

        lam is an int or Fraction when rational, else a Cyc.
        """
        scalars = {}
        for g, mt in enumerate(self.images):
            lam = mt.is_scalar()
            if lam is not None:
                scalars[g] = demote(lam)
        if len(scalars) == 1:
            return None
        table = self.group.table
        fold: list = [None] * self.group.order
        for g in range(self.group.order):
            if fold[g] is None:
                for z, lam in scalars.items():
                    fold[table[g][z]] = (g, lam)
        return fold

    @cached_property
    def integer_images(self) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(phi, den, vectors): every image lifted to the rep's conductor, of
        degree phi, as an integer coefficient vector over one common
        denominator den.

        vectors[g] lists the nonzero (position, value) pairs of image g, where
        entry (i, j) holds positions (i*dim + j)*phi .. +phi-1 in the power
        basis of the conductor.
        """
        n = self.conductor
        phi = euler_phi(n)
        lifted = [[v.lift(n) for row in mt.rows for v in row] for mt in self.images]
        den = 1
        for entries in lifted:
            for v in entries:
                den = lcm(den, v.den)
        vectors = []
        for entries in lifted:
            vec = []
            for idx, v in enumerate(entries):
                s = den // v.den
                vec.extend((idx * phi + k, c * s) for k, c in enumerate(v.num) if c)
            vectors.append(tuple(vec))
        return phi, den, tuple(vectors)

    @cached_property
    def images_mod_p(self) -> tuple:
        """(red, images): the reduction map red = exactnum.mod_p at the key
        conductor, and every image reduced by it entry by entry, as a tuple
        of row tuples of ints mod red.p (None when an entry does not reduce).
        """
        red = mod_p(self.key_conductor)
        images = []
        for mt in self.images:
            rows = tuple(tuple(red(v) for v in row) for row in mt.rows)
            images.append(None if any(None in row for row in rows) else rows)
        return red, tuple(images)

    @cached_property
    def central_weights(self) -> tuple[list[int], list[int], list]:
        """(class index per element, class sizes, weights): the sum of the
        class K acts as the scalar |K| chi(g_K) / chi(1) on an irreducible rep
        (Schur's lemma); weights are ints or Fractions when rational."""
        cc = self.group.conjugacy_classes
        chi = self.character
        class_of = [cc.index_of(g) for g in range(self.group.order)]
        weights = [demote(chi.value(r) * Cyc.from_rational(Fraction(size, self.dim)))
                   for r, size in zip(cc.representatives, cc.sizes)]
        return class_of, cc.sizes, weights

    # -- analytics ---------------------------------------------------------

    def adams_vector(self, g: int) -> tuple[Cyc, ...]:
        chi = self.character
        return tuple(chi.value(self.group.power(g, k)) for k in range(1, self.dim + 1))

    @cached_property
    def adams_partition(self) -> list[list[int]]:
        """Level sets of the Adams map, ordered by minimal element index."""
        kc = self.key_conductor
        blocks: dict[tuple, list[int]] = {}
        for g in range(self.group.order):
            key = tuple(v.key(kc) for v in self.adams_vector(g))
            blocks.setdefault(key, []).append(g)
        return sorted(blocks.values(), key=lambda b: min(b))

    def adams_rows(self) -> list[tuple[Cyc, ...]]:
        return [self.adams_vector(block[0]) for block in self.adams_partition]

    def galois_conjugate(self, t: int, validate: bool = False) -> "Rep":
        if gcd(t, self.conductor) != 1:
            raise RepError(f"galois exponent {t} not coprime to entry conductor {self.conductor}")
        return Rep(
            self.group,
            [mt.galois(t) for mt in self.images],
            name=f"{self.name}^galois{t}",
            validate=validate,
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "dim": self.dim,
            "images": [mt.to_json() for mt in self.images],
        }

    @staticmethod
    def from_json(obj: dict) -> "Rep":
        group = FiniteGroup.from_json(obj["group"])
        n = obj["dim"]
        images = [Mat.from_json(entries, n) for entries in obj["images"]]
        return Rep(group, images)

    def __repr__(self):
        return f"Rep({self.name}, dim={self.dim}, group={self.group.name})"


class Character:
    """Class function given by its value on every element."""

    def __init__(self, group: FiniteGroup, values, rep: Rep | None = None):
        self.group = group
        self.values = list(values)
        self.rep = rep

    def value(self, g: int) -> Cyc:
        return self.values[g]

    def degree(self) -> Cyc:
        return self.values[0]

    def key_conductor(self) -> int:
        c = self.group.exponent()
        for v in self.values:
            c = lcm(c, v.conductor)
        return c

    def is_class_function(self) -> bool:
        cc = self.group.conjugacy_classes
        for cls in cc.classes:
            rep0 = min(cls)
            if any(self.values[g] != self.values[rep0] for g in cls):
                return False
        return True

    def range_values(self, conductor: int | None = None) -> list[Cyc]:
        """Distinct values, canonically ordered by coefficient vectors."""
        kc = conductor or self.key_conductor()
        seen = {}
        for v in self.values:
            seen.setdefault(v.key(kc), v)
        return [seen[k] for k in sorted(seen)]

    def level_set(self, value: Cyc) -> list[int]:
        return [g for g in range(self.group.order) if self.values[g] == value]

    def class_values(self) -> list[Cyc]:
        cc = self.group.conjugacy_classes
        return [self.values[r] for r in cc.representatives]


def inner_product(chi1: Character, chi2: Character) -> Cyc:
    if chi1.group is not chi2.group and chi1.group.table != chi2.group.table:
        raise RepError("characters live on different groups")
    m = chi1.group.order
    acc = None
    for g in range(m):
        term = chi1.values[g] * chi2.values[g].conjugate()
        acc = term if acc is None else acc + term
    return acc * Cyc.from_rational(Fraction(1, m))


def sigma_value(rep: Rep, g: int, i: int) -> Cyc:
    """i-th elementary symmetric function of the eigenvalues of rep(g).

    Computed by the Newton recursion from power traces; sigma_1 is the
    character and sigma_n the determinant.
    """
    if not 1 <= i <= rep.dim:
        raise RepError(f"sigma index {i} out of range 1..{rep.dim}")
    chi = rep.character
    p = [None] + [chi.value(rep.group.power(g, k)) for k in range(1, i + 1)]
    e = [Cyc.one()] + [None] * i
    for k in range(1, i + 1):
        acc = None
        for j in range(1, k + 1):
            term = e[k - j] * p[j]
            if j % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        e[k] = acc * Cyc.from_rational(Fraction(1, k))
    return e[i]


def spectrum(rep: Rep, g: int) -> list[tuple[int, int, int]]:
    """Multiset of eigenvalues of rep(g) as (order d, exponent k, multiplicity).

    Fourier inversion over the cyclic group generated by g; multiplicities
    must come out as non-negative integers summing to the dimension.
    """
    d = rep.group.element_order(g)
    chi = rep.character
    out = []
    total = 0
    dd = Cyc.from_rational(Fraction(1, d))
    for k in range(d):
        acc = None
        for t in range(d):
            term = chi.value(rep.group.power(g, t)) * cyc_root_of_unity(d, (-k * t) % d)
            acc = term if acc is None else acc + term
        mult = acc * dd
        if not mult.is_rational():
            raise RepError("non-integer eigenvalue multiplicity; not a representation")
        q = mult.rational_value()
        if q.denominator != 1 or q < 0:
            raise RepError("non-integer eigenvalue multiplicity; not a representation")
        if q:
            out.append((d, k, int(q)))
            total += int(q)
    if total != rep.dim:
        raise RepError("eigenvalue multiplicities do not sum to the dimension")
    return out


def spectrum_key(rep: Rep, g: int, conductor: int) -> tuple[tuple[int, int], ...]:
    """Spectrum as sorted (exponent at the given conductor, multiplicity) pairs."""
    pairs = []
    for d, k, mult in spectrum(rep, g):
        pairs.append(((k * (conductor // d)) % conductor, mult))
    return tuple(sorted(pairs))


def eig_sets(rep: Rep) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(union of per-element eigenvalue sets, maximal per-element sets).

    Eigenvalues are exponents at the rep's key conductor, each set sorted.
    """
    kc = rep.key_conductor
    per_element = set()
    for g in range(rep.group.order):
        eigs = tuple(sorted(e for e, _ in spectrum_key(rep, g, kc)))
        per_element.add(eigs)
    union = tuple(sorted({e for s in per_element for e in s}))
    maximal = [
        s
        for s in per_element
        if not any(set(s) < set(t) for t in per_element if t != s)
    ]
    maximal.sort(key=lambda s: (-len(s), s))
    return union, maximal


def eig_union(rep: Rep) -> tuple[int, ...]:
    return eig_sets(rep)[0]


def eig_maximal(rep: Rep) -> list[tuple[int, ...]]:
    return eig_sets(rep)[1]


def subgroup_group(parent: FiniteGroup, elements) -> tuple[FiniteGroup, list[int]]:
    """The subgroup on the given (closed) element set as its own table group.

    Returns (group, element list mapping new index -> parent index).
    """
    elems = sorted(elements)
    if elems[0] != 0:
        raise GroupError("subgroup must contain the identity")
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[parent.table[a][b]] for b in elems] for a in elems]
    sub = FiniteGroup(table, name=f"{parent.name}_sub{len(elems)}")
    return sub, elems


def restrict_rep(rep: Rep, elements, name=None) -> Rep:
    sub, elems = subgroup_group(rep.group, elements)
    return Rep(sub, [rep.images[e] for e in elems], name=name or f"{rep.name}|{len(elems)}",
               validate=False)


def induced_rep(group: FiniteGroup, sub_elements, sub_rep: Rep, sub_map: list[int],
                name=None) -> Rep:
    """Induce sub_rep from the subgroup (given by parent indices sub_map) to group.

    Coset representatives are the minimal elements of each left coset, in
    ascending order, so induced matrices are byte-reproducible.
    """
    sub_set = set(sub_map)
    index_in_sub = {e: i for i, e in enumerate(sub_map)}
    # left cosets t*Sigma
    seen = set()
    transversal = []
    for g in range(group.order):
        if g in seen:
            continue
        coset = {group.table[g][s] for s in sub_set}
        transversal.append(min(coset))
        seen |= coset
    transversal.sort()
    q = len(transversal)
    d = sub_rep.dim
    n = q * d
    conductor = sub_rep.conductor
    zero_block = Mat.zeros(d, conductor)
    images = []
    for g in range(group.order):
        blocks = [[zero_block] * q for _ in range(q)]
        for j, tj in enumerate(transversal):
            gt = group.table[g][tj]
            for i, ti in enumerate(transversal):
                x = group.table[group.inverse[ti]][gt]
                if x in sub_set:
                    blocks[i][j] = sub_rep.images[index_in_sub[x]]
                    break
        rows = []
        for bi in range(q):
            for r in range(d):
                row = []
                for bj in range(q):
                    row.extend(blocks[bi][bj].rows[r])
                rows.append(tuple(row))
        images.append(Mat(tuple(rows)))
    return Rep(group, images, name=name or f"Ind({sub_rep.name})")


def galois_conjugate_character(chi: Character, t: int) -> Character:
    exp = chi.group.exponent()
    from math import gcd

    if gcd(t, exp) != 1:
        raise RepError(f"galois exponent {t} not coprime to the group exponent {exp}")
    return Character(chi.group, [chi.values[chi.group.power(g, t)] for g in range(chi.group.order)])


def fixed_point_dimension(rep: Rep, elements) -> int:
    elements = list(elements)
    chi = rep.character
    acc = None
    for g in elements:
        acc = chi.values[g] if acc is None else acc + chi.values[g]
    acc = acc * Cyc.from_rational(Fraction(1, len(elements)))
    if not acc.is_rational():
        raise RepError("fixed point dimension is not rational")
    q = acc.rational_value()
    if q.denominator != 1 or q < 0:
        raise RepError("fixed point dimension is not a non-negative integer")
    return int(q)


def molien_coefficients(rep: Rep, degree: int) -> list[Fraction]:
    """Exact Taylor coefficients of the invariant-ring Poincare series.

    (1/|G|) sum_g 1/det(I - rep(g)^-1 t), expanded via the eigenvalue
    factorization prod_j 1/(1 - conj(eps_j) t) truncated at the degree.
    """
    m = rep.group.order
    total = [Cyc.zero() for _ in range(degree + 1)]
    for g in range(rep.group.order):
        ginv = rep.group.inverse[g]
        series = [Cyc.one()] + [Cyc.zero()] * degree
        for d, k, mult in spectrum(rep, ginv):
            eps = cyc_root_of_unity(d, k)
            for _ in range(mult):
                # multiply by 1/(1 - eps t) = sum eps^a t^a
                new = [Cyc.zero() for _ in range(degree + 1)]
                powcache = [cyc_root_of_unity(d, (k * a) % d) for a in range(degree + 1)]
                for a in range(degree + 1):
                    if series[a].is_zero():
                        continue
                    for b in range(degree + 1 - a):
                        new[a + b] = new[a + b] + series[a] * powcache[b]
                series = new
        for a in range(degree + 1):
            total[a] = total[a] + series[a]
    out = []
    inv_m = Cyc.from_rational(Fraction(1, m))
    for a in range(degree + 1):
        v = total[a] * inv_m
        if not v.is_rational():
            raise RepError("Molien coefficient is not rational")
        out.append(v.rational_value())
    return out
