import pytest

from repident import catalog
from repident.grouplab import FiniteGroup, GroupError, from_cayley_table


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_cyclic_construction():
    g = from_cayley_table(cyclic_table(3))
    assert g.order == 3
    assert g.inverse[1] == 2


def test_non_associative_rejected():
    # a Latin square that is not a group table (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupError):
        from_cayley_table(table)


def test_non_latin_rejected():
    with pytest.raises(GroupError):
        from_cayley_table([[0, 0], [1, 1]])


def test_s4_classes():
    s4 = catalog.symmetric(4)
    cc = s4.group.conjugacy_classes
    assert cc.sizes == [8, 6, 6, 3, 1]
    # tie break: among the size-6 classes, transpositions (order 2) first
    assert s4.group.element_order(cc.representatives[1]) == 2
    assert s4.group.element_order(cc.representatives[2]) == 4
    assert sum(cc.sizes) == 24
    for size in cc.sizes:
        assert 24 % size == 0


def test_abelian_classes_singletons():
    z6 = catalog.cyclic(6).group
    assert z6.conjugacy_classes.sizes == [1] * 6


def test_q8_classes_against_brute_force():
    q8 = catalog.quaternion().group

    def brute_classes(g):
        seen = set()
        classes = []
        for a in range(g.order):
            if a in seen:
                continue
            cls = {g.table[g.table[h][a]][g.inverse[h]] for h in range(g.order)}
            classes.append(frozenset(cls))
            seen |= cls
        return sorted(classes, key=lambda c: (-len(c), min(c)))

    assert sorted(len(c) for c in brute_classes(q8)) == sorted(q8.conjugacy_classes.sizes)
    assert sorted(q8.conjugacy_classes.sizes, reverse=True) == [2, 2, 2, 1, 1]


def test_element_orders():
    a5 = catalog.alternating(5).group
    # brute-force power oracle
    orders = set()
    for g in range(a5.order):
        k, x = 1, g
        while x != 0:
            x = a5.table[x][g]
            k += 1
        orders.add(k)
    assert orders == {1, 2, 3, 5}
    assert a5.order_statistics() == (1, 2, 3, 5)
    assert catalog.cyclic(6).group.order_statistics() == (1, 2, 3, 6)
    assert a5.element_order(0) == 1


def test_centralizer_class_counting():
    s4 = catalog.symmetric(4).group
    for g in range(s4.order):
        cls = s4.conjugacy_classes.classes[s4.class_of(g)]
        assert len(s4.centralizer(g)) * len(cls) == s4.order
    assert s4.centralizer(0) == list(range(24))


def test_center_and_series():
    s3 = catalog.symmetric(3).group
    assert s3.center() == [0]
    assert s3.upper_central_series() == [frozenset({0})]
    z6 = catalog.cyclic(6).group
    assert z6.upper_central_series() == [frozenset({0}), frozenset(range(6))]
    h3 = catalog.heisenberg(3).group
    series = h3.upper_central_series()
    assert [len(s) for s in series] == [1, 3, 27]
    # brute-force center oracle
    brute = {g for g in range(27)
             if all(h3.table[g][h] == h3.table[h][g] for h in range(27))}
    assert series[1] == frozenset(brute)
    for term in series:
        assert h3.is_normal(term)


def test_subgroups():
    z6 = catalog.cyclic(6).group
    assert sorted(len(s) for s in z6.all_subgroups()) == [1, 2, 3, 6]
    q8 = catalog.quaternion().group
    subs = q8.all_subgroups()
    assert len(subs) == 6
    # brute-force closure oracle: every subset closed under the operation
    brute = set()
    for mask in range(1, 2 ** 8):
        sub = frozenset(i for i in range(8) if mask >> i & 1)
        if 0 in sub and all(q8.table[a][b] in sub for a in sub for b in sub):
            brute.add(sub)
    assert set(subs) == brute


def _pairwise_closure_lattice(group):
    """Reference lattice: the subgroups generated by one or two elements,
    closed under joins of incomparable pairs until nothing new appears."""
    from itertools import combinations

    subs = {group.subgroup_generated([g, h]) for g in range(group.order)
            for h in range(g, group.order)}
    changed = True
    while changed:
        changed = False
        for a, b in combinations(list(subs), 2):
            if not (a <= b or b <= a):
                join = group.subgroup_generated(a | b)
                if join not in subs:
                    subs.add(join)
                    changed = True
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("name", ["Z6", "Q8", "S4", "A5", "H3", "W3", "gamma(7,9,2)"])
def test_subgroup_lattice_matches_pairwise_closure(name):
    group = catalog.get_entry(name).group
    assert group.all_subgroups() == _pairwise_closure_lattice(group)


@pytest.mark.parametrize("name", ["Z6", "Q8", "S4", "A5", "W3"])
def test_cyclic_subgroups_in_lattice_order(name):
    group = catalog.get_entry(name).group
    cyclic = [s for s in group.all_subgroups()
              if any(group.subgroup_generated([g]) == s for g in s)]
    assert group.cyclic_subgroups() == cyclic
    assert len(cyclic) == len({group.subgroup_generated([g]) for g in range(group.order)})
    # no order cap: H7 (order 343) has 342 / 6 subgroups of order 7 and the trivial one
    assert len(catalog.heisenberg(7).group.cyclic_subgroups()) == 58


def test_exponent_is_the_lcm_of_element_orders():
    from math import lcm

    for name, exponent in (("S4", 12), ("A5", 30), ("Q8", 4), ("W3", 9), ("gamma(7,9,2)", 63)):
        group = catalog.get_entry(name).group
        assert group.exponent() == exponent == lcm(*group.order_statistics())


@pytest.mark.parametrize("name", ["S4", "A5", "Q8", "W3", "gamma(7,9,2)"])
def test_small_generating_set_is_computed_once(name):
    """One tuple per group, greedy by descending element order, that
    generates the group and whose every member is new to the ones before."""
    group = catalog.get_entry(name).group
    gens = group.small_generating_set()
    assert type(gens) is tuple and group.small_generating_set() is gens
    assert len(group.subgroup_generated(gens)) == group.order
    orders = [group.element_order(g) for g in gens]
    assert orders == sorted(orders, reverse=True)
    assert all(g not in group.subgroup_generated(gens[:i]) for i, g in enumerate(gens))


def test_subgroup_lattice_limit():
    w3 = catalog.wreath(3).group
    with pytest.raises(GroupError):
        w3.all_subgroups(limit=80)
    assert len(w3.all_subgroups(limit=81)) == 50


def test_subgroup_lattice_is_kept_but_returned_fresh():
    s4 = catalog.symmetric(4).group
    subs = s4.all_subgroups()
    expected = list(subs)
    subs.pop()
    subs.append(frozenset({0}))
    again = s4.all_subgroups()
    assert again == expected and again is not subs
    # the kept lattice does not lift the order limit
    with pytest.raises(GroupError):
        s4.all_subgroups(limit=23)


def test_automorphisms():
    assert len(catalog.cyclic(5).group.automorphisms()) == 4
    z2z2 = from_cayley_table([[i ^ j for j in range(4)] for i in range(4)])
    assert len(z2z2.automorphisms()) == 6
    assert len(catalog.quaternion().group.automorphisms()) == 24
    for name, count in (("H3", 432), ("W3", 324), ("A5", 120)):
        assert len(catalog.get_entry(name).group.automorphisms()) == count, name


def test_power_map():
    z6 = catalog.cyclic(6).group
    mapping, bijective = z6.power_map(5)
    assert bijective and mapping[1] == 5
    mapping, bijective = z6.power_map(1)
    assert bijective and mapping == list(range(6))
    _, bij = catalog.symmetric(4).group.power_map(2)
    assert not bij
    # bijective iff coprime, across a catalog sample
    from math import gcd

    for group in (z6, catalog.symmetric(3).group, catalog.quaternion().group):
        for t in range(1, group.order):
            _, bij = group.power_map(t)
            assert bij == (gcd(t, group.order) == 1)


def test_group_json_round_trip():
    s3 = catalog.symmetric(3).group
    blob = s3.to_json()
    g2 = FiniteGroup.from_json(blob)
    assert g2.table == s3.table


def _frozenset_cosets(group, sub):
    """Left cosets g*sub as frozensets, in the order of their first member,
    so the identity's coset comes first."""
    cosets = []
    for g in range(group.order):
        coset = frozenset(group.table[g][h] for h in sub)
        if coset not in cosets:
            cosets.append(coset)
    return cosets


def _coset_cases():
    for name in ("S4", "A4", "Q8"):
        group = catalog.get_entry(name).group
        for sub in group.all_subgroups():
            yield name, group, sub
    for name in ("H5", "W3"):
        group = catalog.get_entry(name).group
        for sub in group.cyclic_subgroups():
            yield name, group, sub


def test_coset_leaders_match_frozenset_cosets():
    for name, group, sub in _coset_cases():
        leaders = group.coset_leaders(sub)
        for coset in _frozenset_cosets(group, sub):
            for g in coset:
                assert leaders[g] == min(coset), (name, sorted(sub), g)


def test_quotient():
    s4 = catalog.symmetric(4).group
    v4 = [g for g in range(24)
          if g == 0 or (s4.element_order(g) == 2 and len(s4.centralizer(g)) == 8)]
    q, coset_of = s4.quotient(frozenset(v4))
    assert q.order == 6
    assert coset_of[0] == 0
    iso = q.find_isomorphism(catalog.symmetric(3).group)
    assert iso is not None
    # every normal subgroup: the table of the frozenset cosets, numbered in
    # the order of their first members
    for name, group, sub in _coset_cases():
        if name in ("H5", "W3") or not group.is_normal(sub):
            continue
        cosets = _frozenset_cosets(group, sub)
        index = {g: i for i, coset in enumerate(cosets) for g in coset}
        reps = [min(coset) for coset in cosets]
        q, coset_of = group.quotient(sub)
        assert coset_of == [index[g] for g in range(group.order)], (name, sorted(sub))
        assert q.table == tuple(tuple(index[group.table[a][b]] for b in reps) for a in reps)
