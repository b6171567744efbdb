"""Finite groups as multiplication tables, plus the derived structure the
identity machinery consumes: conjugacy classes (with a fixed total order),
element orders, centralizers, the upper central series, the subgroup
lattice, left cosets as one table of coset leaders (the least element of
each coset, FiniteGroup.coset_leaders), and isomorphisms found by one
search over generator images.

Everything is index-based: elements are 0..m-1 with 0 the identity.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import lcm


# Bounds of the brute-force searches over generator images.
MAX_SEARCH_ORDER = 128
MAX_AUTOMORPHISM_GENS = 3


class GroupError(ValueError):
    pass


class FiniteGroup:
    def __init__(self, table, labels=None, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name or f"group{self.order}"
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.order)]
        self._validate()
        self.inverse = self._inverses()

    def _validate(self):
        m = self.order
        if any(len(row) != m for row in self.table):
            raise GroupError("table is not square")
        full = set(range(m))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise GroupError(f"row {i} is not a permutation (not a Latin square)")
        for j in range(m):
            if {self.table[i][j] for i in range(m)} != full:
                raise GroupError(f"column {j} is not a permutation (not a Latin square)")
        if any(self.table[0][j] != j for j in range(m)) or any(
            self.table[i][0] != i for i in range(m)
        ):
            raise GroupError("element 0 is not a two-sided identity")
        if m <= 512:
            # Light's associativity test: it suffices to check a(bc)=(ab)c
            # for a,b in a generating set; rows of generators define the
            # candidate translations.
            gens = self.small_generating_set()
            for a in gens:
                ta = self.table[a]
                for b in range(m):
                    tab = self.table[ta[b]]
                    tb = self.table[b]
                    for c in range(m):
                        if tab[c] != ta[tb[c]]:
                            raise GroupError(f"associativity fails at ({a},{b},{c})")

    def _inverses(self):
        inv = [None] * self.order
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if v == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise GroupError("missing inverses")
        return tuple(inv)

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, g: int) -> int:
        """g * a * g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inverse[a], -e)
        result = 0
        base = a
        while e:
            if e & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            e >>= 1
        return result

    def commutator(self, a: int, b: int) -> int:
        """a^-1 b^-1 a b."""
        t = self.table
        return t[t[t[self.inverse[a]][self.inverse[b]]][a]][b]

    def element_order(self, a: int) -> int:
        return self.element_orders[a]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = [1] * self.order
        for a in range(self.order):
            x = a
            while x != 0:
                x = self.table[x][a]
                orders[a] += 1
        return tuple(orders)

    def order_statistics(self) -> tuple[int, ...]:
        return tuple(sorted({self.element_order(g) for g in range(self.order)}))

    def exponent(self) -> int:
        return lcm(*self.element_orders)

    def small_generating_set(self) -> tuple[int, ...]:
        """Generators taken greedily by descending element order, each one
        not yet reached by the earlier ones; computed once per group."""
        return self._generators

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        reached = {0}
        for g in sorted(range(self.order), key=lambda x: (-self.element_order(x), x)):
            if g in reached:
                continue
            gens.append(g)
            reached = self._closure_set(gens)
            if len(reached) == self.order:
                break
        return tuple(gens)

    def _closure_set(self, gens) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    # -- conjugacy structure ----------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> "ConjClassList":
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            cls = set()
            for h in range(self.order):
                cls.add(self.conj(g, h))
            for x in cls:
                seen[x] = True
            classes.append(frozenset(cls))
        keyed = []
        for cls in classes:
            rep = min(cls)
            min_order = min(self.element_order(x) for x in cls)
            keyed.append((-len(cls), min_order, rep, cls))
        keyed.sort(key=lambda t: t[:3])
        return ConjClassList(
            self,
            [t[3] for t in keyed],
            [min(t[3]) for t in keyed],
        )

    def class_of(self, g: int) -> int:
        return self.conjugacy_classes.index_of(g)

    def class_sum(self, h: int) -> tuple[tuple[int, ...], int]:
        """(the members of h's class in index order, |C_G(h)|): summed over
        every y in G, y h y^-1 is |C_G(h)| times the sum of those members.
        Built per class on first use."""
        rows = self._class_sums
        row = rows[h]
        if row is None:
            cls = self.conjugacy_classes.classes[self.class_of(h)]
            row = (tuple(sorted(cls)), self.order // len(cls))
            for g in cls:
                rows[g] = row
        return row

    @cached_property
    def _class_sums(self) -> list:
        return [None] * self.order

    def centralizer(self, g: int) -> list[int]:
        return [h for h in range(self.order) if self.table[h][g] == self.table[g][h]]

    def center(self) -> list[int]:
        t = self.table
        return [
            g for g in range(self.order) if all(t[g][h] == t[h][g] for h in range(self.order))
        ]

    # -- subgroups ---------------------------------------------------------

    def subgroup_generated(self, gens) -> frozenset[int]:
        return frozenset(self._closure_set(list(gens)))

    def all_subgroups(self, limit: int = 200) -> list[frozenset[int]]:
        if self.order > limit:
            raise GroupError(f"subgroup lattice limited to order <= {limit}")
        return list(self._subgroup_lattice)

    def cyclic_subgroups(self) -> list[frozenset[int]]:
        """The cyclic subgroups <g>, ordered as in all_subgroups: by size,
        then by sorted members."""
        return list(self._cyclic)

    @cached_property
    def _cyclic(self) -> dict[frozenset[int], int]:
        """Each cyclic subgroup, mapped to its least generator, in the order
        of all_subgroups."""
        cyclic: dict[frozenset, int] = {}
        for g in range(self.order):
            cyclic.setdefault(self.subgroup_generated([g]), g)
        return dict(sorted(cyclic.items(), key=lambda item: (len(item[0]), sorted(item[0]))))

    @cached_property
    def _subgroup_lattice(self) -> tuple[frozenset[int], ...]:
        # cyclic extension: every subgroup is a cyclic subgroup or the join of
        # a smaller subgroup with a cyclic subgroup it does not contain
        cyclic = self._cyclic
        gens_of = {sub: (g,) for sub, g in cyclic.items()}
        found = list(gens_of)
        while found:
            new = []
            for sub in found:
                for c, g in cyclic.items():
                    if c <= sub:
                        continue
                    gens = gens_of[sub] + (g,)
                    join = self.subgroup_generated(gens)
                    if join not in gens_of:
                        gens_of[join] = gens
                        new.append(join)
            found = new
        return tuple(sorted(gens_of, key=lambda s: (len(s), sorted(s))))

    def is_normal(self, sub) -> bool:
        s = set(sub)
        return all(self.conj(x, g) in s for x in s for g in range(self.order))

    def coset_leaders(self, sub) -> tuple[int, ...]:
        """Entry g is the least element of the left coset g*sub: x and y lie in
        one coset exactly when their entries are equal."""
        table = self.table
        members = tuple(sub)
        least: list = [None] * self.order
        for g in range(self.order):
            if least[g] is None:  # g ascends: the least element of its coset
                row = table[g]
                for h in members:
                    least[row[h]] = g
        return tuple(least)

    def quotient(self, normal_sub) -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup; returns (group, coset index per
        element).  Cosets are numbered in the order of their leaders, so the
        identity's coset is 0."""
        if not self.is_normal(normal_sub):
            raise GroupError("subgroup is not normal")
        leaders = self.coset_leaders(normal_sub)
        reps = sorted(set(leaders))
        index = {r: i for i, r in enumerate(reps)}
        coset_of = [index[r] for r in leaders]
        table = [[coset_of[self.table[a][b]] for b in reps] for a in reps]
        return FiniteGroup(table, name=f"{self.name}/N"), coset_of

    def upper_central_series(self) -> list[frozenset[int]]:
        series = [frozenset({0})]
        current = frozenset({0})
        while True:
            if len(current) == self.order:
                break
            quotient, coset_of = self.quotient(current)
            zq = set(quotient.center())
            nxt = frozenset(g for g in range(self.order) if coset_of[g] in zq)
            if nxt == current:
                break
            series.append(nxt)
            current = nxt
        return series

    # -- maps ----------------------------------------------------------------

    def power_map(self, t: int) -> tuple[list[int], bool]:
        mapping = [self.power(g, t) for g in range(self.order)]
        return mapping, len(set(mapping)) == self.order

    def automorphisms(self):
        if self.order > MAX_SEARCH_ORDER:
            raise GroupError(f"automorphism search limited to order <= {MAX_SEARCH_ORDER}")
        gens = self.small_generating_set()
        if len(gens) > MAX_AUTOMORPHISM_GENS:
            raise GroupError(
                f"automorphism search limited to <= {MAX_AUTOMORPHISM_GENS} generators")
        return self._isomorphisms(self, gens, first=False)

    def find_isomorphism(self, other: "FiniteGroup"):
        """Brute-force isomorphism self -> other, or None."""
        if self.order != other.order:
            return None
        if self.order > MAX_SEARCH_ORDER:
            raise GroupError(f"isomorphism search limited to order <= {MAX_SEARCH_ORDER}")
        found = self._isomorphisms(other, self.small_generating_set(), first=True)
        return found[0] if found else None

    def _isomorphisms(self, other: "FiniteGroup", gens, first: bool,
                      colours=None) -> list[list[int]]:
        """Isomorphisms self -> other (of equal order), as image lists.

        colours is a pair of per-element lists (self's, other's) that an
        isomorphism must keep, equal at the identity; by default the element
        orders.  Each generator's image ranges over the elements of other of
        its colour, in index order, the last generator fastest.  An assignment
        of images extends along the word tree, shortest words first, so each
        element's image is its parent's image times one generator image.  It
        is dropped at the first repeated image or colour mismatch, and kept
        when the extension is a homomorphism.  With first, the search stops at
        the first isomorphism found.
        """
        mine, theirs = colours or (self.element_orders, other.element_orders)
        steps = self._word_tree(gens)
        candidates = [[h for h in range(other.order) if theirs[h] == mine[g]] for g in gens]
        table = other.table
        found = []
        for images in product(*candidates):
            phi = [0] * self.order
            seen = [False] * other.order
            seen[0] = True
            for y, parent, gi in steps:
                h = table[phi[parent]][images[gi]]
                if seen[h] or theirs[h] != mine[y]:
                    break
                seen[h] = True
                phi[y] = h
            else:
                if self._respects(phi, gens, other, images):
                    found.append(phi)
                    if first:
                        break
        return found

    def _respects(self, phi, gens, other: "FiniteGroup", images) -> bool:
        """phi(g*x) = phi(g)*phi(x) for every generator g; this suffices, as
        every left factor is a word in the generators."""
        for g, h in zip(gens, images):
            tg, timg = self.table[g], other.table[h]
            for b in range(self.order):
                if phi[tg[b]] != timg[phi[b]]:
                    return False
        return True

    def _word_tree(self, gens) -> list[tuple[int, int, int]]:
        """(element, parent, generator index) for every element but the
        identity, shortest words first: element = parent * gens[index]."""
        steps = word_tree([[row[g] for row in self.table] for g in gens], self.order)
        if len(steps) != self.order - 1:
            raise GroupError("given generators do not generate the group")
        return steps

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "table": [list(r) for r in self.table],
            "labels": list(self.labels),
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteGroup":
        return FiniteGroup(obj["table"], labels=obj.get("labels"))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class ConjClassList:
    """Conjugacy classes sorted by (size desc, min element order asc, min rep asc)."""

    def __init__(self, group: FiniteGroup, classes, representatives):
        self.group = group
        self.classes = classes
        self.representatives = representatives
        self.sizes = [len(c) for c in classes]
        self._index = {}
        for i, cls in enumerate(classes):
            for g in cls:
                self._index[g] = i

    def __len__(self):
        return len(self.classes)

    def index_of(self, g: int) -> int:
        return self._index[g]

    def spread(self, per_class) -> list:
        """Per element, the entry of per_class at the element's class."""
        index = self._index
        return [per_class[index[g]] for g in range(self.group.order)]

    def __iter__(self):
        return iter(self.classes)


def from_cayley_table(table, labels=None, name=None) -> FiniteGroup:
    return FiniteGroup(table, labels=labels, name=name)


def word_tree(rights, order: int) -> list[tuple[int, int, int]]:
    """The word tree of generators given by their right multiplications:
    rights[i][x] is x times generator i, for elements 0..order-1 with 0 the
    identity.  Returns (element, parent, generator index) for every element
    the generators reach but the identity, shortest words first (a
    breadth-first walk, generators in order): element = parent * generator.
    """
    steps = []
    reached = [False] * order
    reached[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, right in enumerate(rights):
                y = right[x]
                if not reached[y]:
                    reached[y] = True
                    steps.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    return steps


def table_from_generators(rights, order: int) -> list[tuple[int, ...]]:
    """The multiplication table of a group from right multiplication by a
    generating set (rights as in word_tree), with no further products.

    Along the word tree, for b = p*s, column b is right_s applied to column
    p, since a*(p*s) = (a*p)*s.  That holds only for an associative
    multiplication, which the caller guarantees.
    """
    steps = word_tree(rights, order)
    if len(steps) != order - 1:
        raise GroupError("given generators do not generate the group")
    columns: list = [range(order)] + [None] * (order - 1)
    for y, parent, gi in steps:
        right = rights[gi]
        columns[y] = [right[c] for c in columns[parent]]
    return list(zip(*columns))


def group_from_elements(elements, mul, name=None) -> tuple[FiniteGroup, list]:
    """Build an index table from abstract elements and a multiplication
    callable: (group, elements in index order), each element's label its str.

    The identity is detected and moved to index 0; the other elements keep
    their given order.  The table comes from right multiplication by a
    generating set alone (table_from_generators), m times its size calls of
    mul, not m^2: generators are taken greedily in index order, each one not
    yet reached by the earlier ones.  mul must be associative: FiniteGroup's
    Light test reads this table, so it cannot catch a mul that is not.
    """
    elems = list(elements)
    ident = None
    for e in elems:
        if all(mul(e, x) == x and mul(x, e) == x for x in elems):
            ident = e
            break
    if ident is None:
        raise GroupError("no identity element")
    elems.remove(ident)
    elems.insert(0, ident)
    index = {e: i for i, e in enumerate(elems)}
    rights = []
    reached = {0}
    for g, s in enumerate(elems):
        if g in reached:
            continue
        rights.append([index[mul(a, s)] for a in elems])
        reached = {0}.union(y for y, _, _ in word_tree(rights, len(elems)))
        if len(reached) == len(elems):
            break
    table = table_from_generators(rights, len(elems))
    return FiniteGroup(table, labels=[str(e) for e in elems], name=name), elems
