"""Matrix representations over Cyc and their character-level analytics:
characters, Adams vectors and the spectral partition, elementary symmetric
invariants of eigenvalues, exact spectra via Fourier inversion on cyclic
subgroups, induction/restriction, Galois twists, fixed-point dimensions
and Molien series coefficients.

Spectra are always computed from power traces (the Adams data), never
from an eigenvalue solver: for g of order d the multiplicity of zeta_d^k
is (1/d) * sum_t chi(g^t) zeta_d^(-kt).  With the values chi(g^t) written
as integer vectors in Z[x]/(x^L - 1), multiplying by zeta_d^(-kt) is a
rotation, so each multiplicity is a sum of d rotated vectors reduced
modulo the L-th cyclotomic polynomial once: exact, and no Cyc product.
A spectrum is a class function, so it is computed once per conjugacy class
(Rep.class_spectra) and every per-element query is a lookup.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exactnum import Cyc, cyc_root_of_unity, demote, euler_phi, mod_p, reduce_cyclic
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

    @cached_property
    def class_spectra(self) -> list[list[tuple[int, int, int]]]:
        """Per conjugacy class, the eigenvalues of the class representative g
        as (order d, exponent k, multiplicity) with k ascending.

        Fourier inversion over the cyclic group generated by g, by rotation:
        the d values chi(g^t) go once into Z[x]/(x^L - 1), L the lcm of d and
        their conductors, as integer vectors over one common denominator D.
        Multiplying by zeta_d^(-kt) rotates a vector by (L/d)kt, so
        d*D*mult_k is a sum of d rotated vectors, reduced modulo Phi_L once.
        That reduction must be rational, the multiplicities non-negative
        integers summing to the dimension.
        """
        values = self.character.values
        table = self.group.table
        out = []
        for g in self.group.conjugacy_classes.representatives:
            d = self.group.element_order(g)
            powers = []
            x = 0
            for _ in range(d):
                powers.append(values[x])
                x = table[x][g]
            n, den = d, 1
            for v in powers:
                n, den = lcm(n, v.conductor), lcm(den, v.den)
            # (position, coefficient, rotation per k) of every term of chi(g^t)
            s = n // d
            terms = []
            for t, v in enumerate(powers):
                step, scale = n // v.conductor, den // v.den
                terms.extend((j * step, c * scale, s * t) for j, c in enumerate(v.num) if c)
            spec = []
            for k in range(d):
                vec = [0] * n
                for pos, c, rot in terms:
                    vec[(pos - k * rot) % n] += c
                red = reduce_cyclic(vec)
                mult, rem = divmod(red[0], d * den)
                if any(red[1:]) or rem or mult < 0:
                    raise RepError("non-integer eigenvalue multiplicity; not a representation")
                if mult:
                    spec.append((d, k, mult))
            if sum(mult for _, _, mult in spec) != self.dim:
                raise RepError("eigenvalue multiplicities do not sum to the dimension")
            out.append(spec)
        return out

    @cached_property
    def class_spectrum_keys(self) -> list[tuple[tuple[tuple[int, int], int], ...]]:
        """Per conjugacy class, its spectrum as sorted ((d, k), multiplicity)
        pairs with each eigenvalue zeta_d^k in lowest terms, gcd(k, d) = 1
        (eigenvalue 1 is (1, 0)).  A root of unity has one such form, so
        keys compare across representations without a common conductor."""
        out = []
        for spec in self.class_spectra:
            pairs = []
            for d, k, mult in spec:
                g = gcd(k, d)
                pairs.append(((d // g, k // g), mult))
            out.append(tuple(sorted(pairs)))
        return out

    # -- predicates -------------------------------------------------------

    @cached_property
    def kernel(self) -> frozenset[int]:
        return frozenset(g for g in range(self.group.order) if self.images[g].is_identity())

    @cached_property
    def kernel_cosets(self) -> tuple[int, ...]:
        """Entry g is the least element of the coset g ker(rho): rho(x) =
        rho(y) exactly when x and y have the same entry."""
        return self.group.coset_leaders(self.kernel)

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
        reps = self.group.conjugacy_classes.representatives
        return not any(k == 0 for g, spec in zip(reps, self.class_spectra) if g
                       for _, k, _ in spec)

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
        table, inverse = self.group.table, self.group.inverse
        return [(r, scalars[table[inverse[r]][g]])
                for g, r in enumerate(self.group.coset_leaders(scalars))]

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

    # -- analytics ---------------------------------------------------------

    def adams_vector(self, g: int) -> tuple[Cyc, ...]:
        chi = self.character
        return tuple(chi.value(self.group.power(g, k)) for k in range(1, self.dim + 1))

    @cached_property
    def adams_partition(self) -> list[list[int]]:
        """Level sets of the Adams map, ordered by minimal element index.

        The first dim power traces fix the spectrum and are fixed by it
        (Newton's identities), so the level sets are those of the class
        spectrum keys, and every element takes its class's key.
        """
        blocks: dict[tuple, list[int]] = {}
        # g ascends, so the blocks are made in the order of their least elements
        for g, key in enumerate(self.group.conjugacy_classes.spread(self.class_spectrum_keys)):
            blocks.setdefault(key, []).append(g)
        return list(blocks.values())

    def adams_rows(self) -> list[tuple[Cyc, ...]]:
        return [self.adams_vector(block[0]) for block in self.adams_partition]

    def galois_conjugate(self, t: int) -> "Rep":
        """The twist by zeta -> zeta^t, entrywise: a homomorphism whenever
        self is one, so it is not validated again."""
        if gcd(t, self.conductor) != 1:
            raise RepError(f"galois exponent {t} not coprime to entry conductor {self.conductor}")
        return Rep(
            self.group,
            [mt.galois(t) for mt in self.images],
            name=f"{self.name}^galois{t}",
            validate=False,
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
    """Class function given by its value on every element.

    The key conductor and the class value keys are memoized, so values must
    not change once either has been read.
    """

    def __init__(self, group: FiniteGroup, values, rep: Rep | None = None):
        self.group = group
        self.values = list(values)
        self.rep = rep
        self._key_conductor: int | None = None
        self._class_keys: dict[int, list[tuple]] = {}

    def value(self, g: int) -> Cyc:
        return self.values[g]

    def degree(self) -> Cyc:
        return self.values[0]

    def key_conductor(self) -> int:
        if self._key_conductor is None:
            self._key_conductor = lcm(self.group.exponent(), *(v.conductor for v in self.values))
        return self._key_conductor

    def class_keys(self, conductor: int) -> list[tuple]:
        """Per conjugacy class, the key of its value at the given conductor."""
        keys = self._class_keys.get(conductor)
        if keys is None:
            keys = self._class_keys[conductor] = [v.key(conductor) for v in self.class_values()]
        return keys

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
    """Multiset of eigenvalues of rep(g) as (order d, exponent k, multiplicity),
    read from the spectrum of g's conjugacy class."""
    return list(rep.class_spectra[rep.group.conjugacy_classes.index_of(g)])


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
    per_element = {tuple(sorted(e for e, _ in spectrum_key(rep, g, kc)))
                   for g in rep.group.conjugacy_classes.representatives}
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
    ascending order, so induced matrices are byte-reproducible.  Raises
    RepError when sub_elements and sub_map do not hold the same elements.
    """
    if set(sub_elements) != set(sub_map):
        raise RepError(f"sub_elements {sorted(set(sub_elements))} and sub_map "
                       f"{sorted(set(sub_map))} name different subgroups")
    index_in_sub = {e: i for i, e in enumerate(sub_map)}
    leaders = group.coset_leaders(sub_map)
    transversal = sorted(set(leaders))
    row_of = {t: i for i, t in enumerate(transversal)}
    q = len(transversal)
    d = sub_rep.dim
    conductor = sub_rep.conductor
    zero_block = Mat.zeros(d, conductor)
    images = []
    for g in range(group.order):
        blocks = [[zero_block] * q for _ in range(q)]
        for j, tj in enumerate(transversal):
            # g tj lies in the coset ti Sigma of its leader ti
            gt = group.table[g][tj]
            ti = leaders[gt]
            x = group.table[group.inverse[ti]][gt]
            blocks[row_of[ti]][j] = sub_rep.images[index_in_sub[x]]
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
    g -> g^-1 permutes the conjugacy classes, so each class contributes its
    size times the term of its representative.
    """
    m = rep.group.order
    cc = rep.group.conjugacy_classes
    total = [Cyc.zero() for _ in range(degree + 1)]
    for g, size in zip(cc.representatives, cc.sizes):
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
        weight = Cyc.from_rational(size)
        for a in range(degree + 1):
            total[a] = total[a] + series[a] * weight
    out = []
    inv_m = Cyc.from_rational(Fraction(1, m))
    for a in range(degree + 1):
        v = total[a] * inv_m
        if not v.is_rational():
            raise RepError("Molien coefficient is not rational")
        out.append(v.rational_value())
    return out
