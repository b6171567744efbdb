from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from repident import catalog, equivalence as eq
from repident.exactnum import Cyc, cyc_root_of_unity
from repident.matrices import Mat, rref
from repident.replab import (
    Rep,
    RepError,
    eig_maximal,
    eig_union,
    fixed_point_dimension,
    galois_conjugate_character,
    induced_rep,
    inner_product,
    molien_coefficients,
    restrict_rep,
    sigma_value,
    spectrum,
    spectrum_key,
    subgroup_group,
)


@pytest.fixture(scope="module")
def s4():
    return catalog.symmetric(4)


@pytest.fixture(scope="module")
def s3_std():
    return catalog.symmetric(3).rep("std")


def test_table_values(s4):
    """Frozen character table of the order-24 symmetric group."""
    group = s4.group
    cc = group.conjugacy_classes

    def rep_of(size, order):
        for i in range(len(cc)):
            if cc.sizes[i] == size and group.element_order(cc.representatives[i]) == order:
                return cc.representatives[i]
        raise AssertionError

    cols = [rep_of(1, 1), rep_of(3, 2), rep_of(6, 2), rep_of(8, 3), rep_of(6, 4)]
    expected = {
        "rho1": (1, 1, 1, 1, 1),
        "rho2": (1, 1, -1, 1, -1),
        "rho3": (2, 2, 0, -1, 0),
        "rho4": (3, -1, -1, 0, 1),
        "rho5": (3, -1, 1, 0, -1),
    }
    for name, values in expected.items():
        chi = s4.rep(name).character
        assert tuple(chi.value(g) for g in cols) == values
        assert chi.is_class_function()


def test_inner_products(s4, s3_std):
    triv = catalog.symmetric(3).rep("triv")
    assert inner_product(triv.character, triv.character) == 1
    assert inner_product(s3_std.character, s3_std.character) == 1
    assert inner_product(s4.rep("rho4").character, s4.rep("rho5").character).is_zero()


def test_predicates(s4, s3_std):
    # regular rep of Z2 is not irreducible
    z2 = catalog.cyclic(2).group
    one, zero = Cyc.one(), Cyc.zero()
    regular = Rep(z2, [Mat.identity(2), Mat(((zero, one), (one, zero)))], name="Z2:reg")
    assert not regular.is_irreducible()
    assert regular.is_unitary()
    a5_d4 = catalog.alternating(5).rep("dim4")
    assert a5_d4.is_irreducible() and a5_d4.is_faithful()
    assert s3_std.is_unitary()
    assert not s4.rep("rho3").is_faithful()


def test_adams_partition(s4):
    rho4 = s4.rep("rho4")
    blocks = rho4.adams_partition
    # the two classes sharing power traces merge: r < s
    assert sorted(len(b) for b in blocks) == [1, 6, 8, 9]
    triv = s4.rep("rho1")
    assert len(triv.adams_partition) == 1
    # abelian one-dim: blocks are level sets of the character powers
    z6 = catalog.cyclic(6).rep("chi1")
    assert len(z6.adams_partition) == 6


def _adams_partition_reference(rep):
    """Level sets of the Adams map keyed element by element, ordered by
    minimal element."""
    kc = rep.key_conductor
    blocks = {}
    for g in range(rep.group.order):
        blocks.setdefault(tuple(v.key(kc) for v in rep.adams_vector(g)), []).append(g)
    return sorted(blocks.values(), key=min)


_SMALL_CATALOG = ["Z6", "S3", "S4", "S5", "A4", "A5", "Q8", "2T", "H3", "H5", "W3",
                  "gamma(7,9,2)"]


@pytest.mark.parametrize("name", _SMALL_CATALOG + ["Z3^2"])
def test_adams_partition_matches_per_element_keys(name):
    if name == "Z3^2":
        reps = [catalog.abelian_rep(3, 2, 2, form)
                for form in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 0]])]
    else:
        entry = catalog.get_entry(name)
        reps = [entry.rep(r) for r in entry.rep_names()]
    for rep in reps:
        assert rep.adams_partition == _adams_partition_reference(rep), rep.name


def _spectral_reference(rep1, rep2):
    """Plain, strong and uniform Gassmann equivalence with every spectrum
    keyed by spectrum_key at the lcm of both reps' key conductors; the
    uniform verdict only over one table."""
    kc = lcm(rep1.key_conductor, rep2.key_conductor)
    if rep1.dim != rep2.dim or rep1.group.order != rep2.group.order:
        return False, False, None
    keys1, keys2 = ([spectrum_key(rep, g, kc) for g in range(rep.group.order)]
                    for rep in (rep1, rep2))
    cc1, cc2 = rep1.group.conjugacy_classes, rep2.group.conjugacy_classes
    strong = (sorted((size, keys1[r]) for size, r in zip(cc1.sizes, cc1.representatives))
              == sorted((size, keys2[r]) for size, r in zip(cc2.sizes, cc2.representatives)))
    uniform = None
    if rep1.group.table == rep2.group.table:
        uniform = next(((False, sub) for sub in rep1.group.cyclic_subgroups()
                        if sorted(keys1[g] for g in sub) != sorted(keys2[g] for g in sub)),
                       (True, None))
    return sorted(keys1) == sorted(keys2), strong, uniform


def test_spectral_predicates_match_the_conductor_reference():
    """Every same-order pair over the small catalog, the cross-group pairs
    S4/2T and Z6/S3 included: the conductor-free class spectrum keys give
    the verdicts of keys at a common conductor, and the spectral signature
    has the blocks of the Adams partition."""
    by_order: dict = {}
    for name in _SMALL_CATALOG:
        entry = catalog.get_entry(name)
        by_order.setdefault(entry.group.order, []).extend(entry.rep(r) for r in entry.rep_names())
    assert {len({rep.group.name for rep in reps}) for reps in by_order.values()} == {1, 2}
    for reps in by_order.values():
        for rep in reps:
            assert (sorted(size for _, size in eq.spectral_signature(rep))
                    == sorted(len(block) for block in _adams_partition_reference(rep))), rep.name
        for rep1, rep2 in combinations_with_replacement(reps, 2):
            gassmann, strong, uniform = _spectral_reference(rep1, rep2)
            assert eq.gassmann_equivalent(rep1, rep2) is gassmann, (rep1.name, rep2.name)
            assert eq.strong_gassmann(rep1, rep2) is strong, (rep1.name, rep2.name)
            if uniform is not None:
                assert eq.uniformly_gassmann(rep1, rep2) == uniform, (rep1.name, rep2.name)


def test_character_keys_are_taken_once():
    rep = catalog.heisenberg(3).rep("theta1")
    chi = Rep(rep.group, rep.images, validate=False).character
    kc = chi.key_conductor()
    assert kc == 3 and chi.key_conductor() is kc
    keys = chi.class_keys(kc)
    assert keys is chi.class_keys(kc)
    assert keys == [v.key(kc) for v in chi.class_values()]
    assert chi.class_keys(2 * kc) == [v.key(2 * kc) for v in chi.class_values()]


def test_sigma_values(s4, s3_std):
    group = s4.group
    rho5 = s4.rep("rho5")
    for g in range(group.order):
        assert sigma_value(rho5, g, 1) == rho5.character.value(g)
    # n = 2: sigma_2 = det via the half-difference formula
    for g in range(6):
        tr = s3_std.character.value(g)
        tr2 = s3_std.character.value(s3_std.group.power(g, 2))
        half = Cyc.from_rational(Fraction(1, 2))
        assert sigma_value(s3_std, g, 2) == (tr * tr - tr2) * half
        assert sigma_value(s3_std, g, 2) == s3_std.images[g].det()
    # permutation-derived rep: top invariant is the sign
    from repident.catalog import _perm_sign

    std4 = catalog.symmetric(5).rep("std4")
    for g in (1, 7, 31):
        assert sigma_value(std4, g, 4) == _perm_sign(catalog.symmetric(5).elements[g])


def test_sigma_multiplicative_on_commuting(s4):
    rho5 = s4.rep("rho5")
    group = s4.group
    n = rho5.dim
    for g in range(group.order):
        for h in group.centralizer(g):
            gh = group.table[g][h]
            assert sigma_value(rho5, gh, n) == sigma_value(rho5, g, n) * sigma_value(rho5, h, n)
    for g in range(group.order):
        v = sigma_value(rho5, g, n)
        assert abs(abs(v.to_complex()) - 1) < 1e-9


def test_spectrum(s4):
    rho5 = s4.rep("rho5")
    group = s4.group
    assert spectrum(rho5, 0) == [(1, 0, 3)]
    four_cycle = next(g for g in range(24) if group.element_order(g) == 4)
    # natural-model eigenvalues of a 4-cycle minus the trivial line: i, -1, -i
    assert sorted(spectrum(rho5, four_cycle)) == [(4, 1, 1), (4, 2, 1), (4, 3, 1)]
    # order-2, trace 0, dim 2 forces {1, -1}
    z2 = catalog.cyclic(2).group
    one, zero = Cyc.one(), Cyc.zero()
    swap = Rep(z2, [Mat.identity(2), Mat(((zero, one), (one, zero)))], name="swap")
    assert sorted(spectrum(swap, 1)) == [(2, 0, 1), (2, 1, 1)]
    # multiplicities sum to dim and recompose the trace
    for name in ("rho3", "rho4", "rho5"):
        rep = s4.rep(name)
        for g in range(24):
            sp = spectrum(rep, g)
            assert sum(mult for _, _, mult in sp) == rep.dim
            acc = None
            for d, k, mult in sp:
                term = cyc_root_of_unity(d, k) * Fraction(mult)
                acc = term if acc is None else acc + term
            assert acc == rep.character.value(g)


def test_spectrum_rejects_non_representation():
    z2 = catalog.cyclic(2).group
    one, zero = Cyc.one(), Cyc.zero()
    two = Cyc.from_rational(2)
    bogus = Rep(z2, [Mat.identity(1), Mat(((one,),))], name="bogus", validate=False)
    # images fine; now break the character by hand
    bogus.character.values[1] = two
    with pytest.raises(RepError):
        spectrum(bogus, 1)


def _spectrum_reference(rep, g):
    """Per-element Fourier inversion over the cyclic group generated by g."""
    group = rep.group
    d = group.element_order(g)
    out = []
    for k in range(d):
        acc = Cyc.zero()
        for t in range(d):
            acc = acc + rep.character.value(group.power(g, t)) * cyc_root_of_unity(d, (-k * t) % d)
        mult = (acc * Fraction(1, d)).rational_value()
        if mult:
            out.append((d, k, int(mult)))
    return out


_SPECTRUM_REPS = [
    ("S4", "rho3"), ("S4", "rho4"), ("S4", "rho5"), ("A4", "tau"), ("A5", "dim3a"),
    ("A5", "dim4"), ("A5", "dim5"), ("Q8", "dim2"), ("2T", "nat"), ("H3", "theta1"),
    ("W3", "rho_w"), ("gamma(7,9,2)", "pi(1,1)"), ("gamma(7,9,2)", "pi(2,4)"),
]


def _spectrum_rep(index):
    if index == len(_SPECTRUM_REPS):
        # a Galois conjugate, built without validation
        return catalog.alternating(5).rep("dim3a").galois_conjugate(2)
    group, name = _SPECTRUM_REPS[index]
    return catalog.get_entry(group).rep(name)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(_SPECTRUM_REPS)), st.data())
def test_class_spectra_match_per_element_inversion(index, data):
    rep = _spectrum_rep(index)
    g = data.draw(st.integers(0, rep.group.order - 1))
    sp = spectrum(rep, g)
    assert sp == _spectrum_reference(rep, g)
    # a fresh list each call
    sp.append(None)
    assert spectrum(rep, g) == _spectrum_reference(rep, g)


@pytest.mark.parametrize("group, name", [
    ("gamma(7,9,2)", "pi(1,2)"), ("W3", "rho_w"), ("H5", "theta1"), ("2T", "nat"),
    ("A5", "dim3a^galois2"),
])
def test_class_spectra_match_reference_on_every_class(group, name):
    """The rotation sum agrees with the per-element Cyc inversion on every
    conjugacy class, including an unvalidated Galois conjugate."""
    if name == "dim3a^galois2":
        rep = catalog.alternating(5).rep("dim3a").galois_conjugate(2)
    else:
        rep = catalog.get_entry(group).rep(name)
    reps = rep.group.conjugacy_classes.representatives
    assert len(rep.class_spectra) == len(reps)
    for g, spec in zip(reps, rep.class_spectra):
        assert spec == _spectrum_reference(rep, g)


@pytest.mark.parametrize("group, name", [
    ("S3", "std"), ("S4", "rho4"), ("S4", "rho5"), ("gamma(7,9,2)", "pi(1,2)"),
    ("H3", "theta1"), ("Z3^2", "reducible"),
])
def test_difference_ranks_are_exact_ranks(group, name):
    """Entry g of `Rep.difference_ranks` is the rank of rho(g) - I, the
    number of pivots `matrices.rref` finds, on every element, a reducible
    rep (eigenvalue 1 in one block of some images) included."""
    if group == "Z3^2":
        rep = catalog.abelian_rep(3, 2, 3, [[1, 0], [0, 1], [1, 1]])
    else:
        rep = catalog.get_entry(group).rep(name)
    identity = Mat.identity(rep.dim)
    assert rep.difference_ranks == [len(rref([list(row) for row in (mt - identity).rows])[1])
                                    for mt in rep.images]
    assert rep.is_fixed_point_free() == (group == "gamma(7,9,2)")


@pytest.mark.parametrize("order, values, message", [
    (2, [1, 3], "non-integer"),  # multiplicities 2 and -1
    (3, [1, cyc_root_of_unity(4, 1), cyc_root_of_unity(4, 1)], "non-integer"),  # (1 + 2i)/3
    (2, [2, 0], "do not sum"),  # multiplicities 1 and 1 in dimension 1
])
def test_class_spectra_reject_each_bad_character(order, values, message):
    group = catalog.cyclic(order).group
    bogus = Rep(group, [Mat.identity(1)] * order, name="bogus", validate=False)
    bogus.character.values[:] = [Cyc.from_rational(v) if isinstance(v, int) else v
                                 for v in values]
    with pytest.raises(RepError, match=message):
        bogus.class_spectra


def test_class_spectra_multiply_no_cyclotomics(monkeypatch):
    """Spectra add rotated integer vectors: with the character built, not one
    Cyc product is formed."""
    built = catalog.gamma_d(7, 9, 2).rep("pi(1,2)")
    rep = Rep(built.group, built.images, name="fresh", validate=False)
    rep.character

    def mul(self, other):
        raise AssertionError("class_spectra multiplied two Cyc")

    monkeypatch.setattr(Cyc, "__mul__", mul)
    spectra = rep.class_spectra
    monkeypatch.undo()
    assert spectra == built.class_spectra


def test_eig_sets(s4):
    triv = s4.rep("rho1")
    assert eig_union(triv) == (0,)
    tau = catalog.alternating(4).rep("tau")
    mx = eig_maximal(tau)
    kc = tau.key_conductor
    assert {tuple(sorted(s)) for s in mx} == {
        tuple(sorted((0, kc // 2))),
        tuple(sorted((0, kc // 3, 2 * kc // 3))),
    }
    rho4 = s4.rep("rho4")
    kc4 = rho4.key_conductor
    union = set(eig_union(rho4))
    assert {0, kc4 // 2, kc4 // 4, 3 * kc4 // 4} <= union


def test_induced_rep_z4():
    z4 = catalog.cyclic(4)
    group = z4.group
    sub_elems = [0, 2]
    sub, sub_map = subgroup_group(group, sub_elems)
    sign = Rep(sub, [Mat.identity(1), Mat(((Cyc.from_rational(-1),),))], name="sgn")
    ind = induced_rep(group, sub_elems, sign, sub_map)
    assert ind.dim == 2
    assert [ind.character.value(g) for g in range(4)] == [2, 0, -2, 0]


def test_induced_rep_rejects_disagreeing_subgroup():
    """sub_elements and sub_map must hold the same subgroup: [0, 1] against
    the map of {0, 2} is an error, not a silent use of the map."""
    group = catalog.cyclic(4).group
    sub, sub_map = subgroup_group(group, [0, 2])
    sign = Rep(sub, [Mat.identity(1), Mat(((Cyc.from_rational(-1),),))], name="sgn")
    with pytest.raises(RepError, match="different subgroups"):
        induced_rep(group, [0, 1], sign, sub_map)


def test_induction_to_whole_group_is_identity_up_to_equivalence(s4):
    rho4 = s4.rep("rho4")
    sub, sub_map = subgroup_group(s4.group, range(24))
    ind = induced_rep(s4.group, range(24), rho4, sub_map)
    assert ind.character.values == rho4.character.values


def test_restriction_to_center_is_scalar():
    h3 = catalog.heisenberg(3)
    theta = h3.rep("theta1")
    center = sorted(h3.group.center())
    res = restrict_rep(theta, center)
    for mt in res.images:
        assert mt.is_scalar() is not None


def test_galois_conjugate_character():
    a5 = catalog.alternating(5)
    d3a, d3b = a5.rep("dim3a"), a5.rep("dim3b")
    chi = galois_conjugate_character(d3a.character, 7)
    assert chi.values == d3b.character.values
    assert galois_conjugate_character(d3a.character, 1).values == d3a.character.values
    with pytest.raises(RepError):
        galois_conjugate_character(d3a.character, 2)  # not coprime to the exponent 30
    # galois preserves the range as a set
    kc = 60
    r1 = {v.key(kc) for v in d3a.character.range_values(kc)}
    r2 = {v.key(kc) for v in chi.values}
    assert r1 == r2


def test_fixed_point_dimension(s4):
    rho4 = s4.rep("rho4")
    assert fixed_point_dimension(rho4, range(24)) == 0
    assert fixed_point_dimension(rho4, [0]) == 3
    # a transposition fixes a line in the sign-twisted standard model
    group = s4.group
    t = next(g for g in range(24)
             if group.element_order(g) == 2 and len(group.centralizer(g)) == 4)
    assert fixed_point_dimension(rho4, sorted(group.subgroup_generated([t]))) == 1


def test_molien_trivial_group_counts_monomials():
    z1 = catalog.cyclic(1).group
    for n in (2, 3):
        rep = Rep(z1, [Mat.identity(n)], name="triv")
        coeffs = molien_coefficients(rep, 5)
        from math import comb

        assert coeffs == [Fraction(comb(n + d - 1, d)) for d in range(6)]


def test_molien_minus_identity():
    # hand expansion oracle: invariants of +-I on two variables are the
    # even polynomials, so degree 2k has dimension 2k+1
    z2 = catalog.cyclic(2).group
    rep = Rep(z2, [Mat.identity(2), Mat.identity(2).scale(Cyc.from_rational(-1))],
              name="-I")
    assert molien_coefficients(rep, 6) == [
        Fraction(1), Fraction(0), Fraction(3), Fraction(0),
        Fraction(5), Fraction(0), Fraction(7),
    ]


def test_molien_gassmann_invariance():
    a5 = catalog.alternating(5)
    assert molien_coefficients(a5.rep("dim3a"), 8) == molien_coefficients(a5.rep("dim3b"), 8)
    gam = catalog.gamma_d(7, 9, 2)
    p11, p12 = gam.rep("pi(1,1)"), gam.rep("pi(1,2)")
    assert molien_coefficients(p11, 8) == molien_coefficients(p12, 8)
    assert fixed_point_dimension(p11, range(63)) == fixed_point_dimension(p12, range(63))


def test_column_orthogonality(s4):
    reps = [s4.rep(f"rho{i}") for i in range(1, 6)]
    group = s4.group
    cc = group.conjugacy_classes
    for i in range(len(cc)):
        for j in range(len(cc)):
            gi, gj = cc.representatives[i], cc.representatives[j]
            acc = None
            for rep in reps:
                term = rep.character.value(gi) * rep.character.value(gj).conjugate()
                acc = term if acc is None else acc + term
            if i == j:
                assert acc == Fraction(group.order, cc.sizes[i])
            else:
                assert acc.is_zero()


def test_rep_json_round_trip(s3_std):
    import json

    blob = json.loads(json.dumps(s3_std.to_json()))
    rep2 = Rep.from_json(blob)
    assert rep2.character.values == s3_std.character.values


def test_validation_rejects_a_rare_failure_on_a_large_group():
    """A sign character of Z_1024 with one sign flipped at an element that
    none of 1000 seeded random pairs (a, b, ab) touches: a check on sampled
    pairs accepts it, the generator check does not."""
    import random

    from repident.grouplab import FiniteGroup

    m = 1024
    group = FiniteGroup([[(a + b) % m for b in range(m)] for a in range(m)], name="Z1024")
    rng = random.Random(7)
    touched = set()
    for _ in range(1000):
        a, b = rng.randrange(m), rng.randrange(m)
        touched |= {a, b, (a + b) % m}
    bad = min(set(range(1, m)) - touched)
    images = [Mat(((Cyc.from_rational((-1) ** (k + (k == bad))),),)) for k in range(m)]
    with pytest.raises(RepError):
        Rep(group, images)
    images[bad] = Mat(((Cyc.from_rational((-1) ** bad),),))
    Rep(group, images)


def _all_pairs_homomorphism(group, images) -> bool:
    return images[0].is_identity() and all(
        images[a] * images[b] == images[group.table[a][b]]
        for a in range(group.order) for b in range(group.order))


def test_validation_matches_the_all_pairs_check():
    """On S3, Q8 and Z6, validation rejects exactly the corrupted image lists
    that fail rho(a) rho(b) = rho(ab) at some pair: random single-image
    corruptions, and every left coset g<s> of a cyclic subgroup (g not in
    <s>) scaled by one factor, which a check of the generator s alone would
    pass."""
    import random

    rng = random.Random(11)
    reps = [catalog.symmetric(3).rep("std"), catalog.quaternion().rep("dim2"),
            catalog.cyclic(6).rep("chi1")]
    outcomes = set()
    for rep in reps:
        group, m = rep.group, rep.group.order
        zeta = cyc_root_of_unity(rep.key_conductor, 1)
        cases = []
        for _ in range(25):
            images = list(rep.images)
            g = rng.randrange(m)
            kind = rng.choice(["swap", "negate", "twist", "transpose"])
            if kind == "swap":
                images[g] = images[rng.randrange(m)]
            elif kind == "negate":
                images[g] = images[g].scale(Cyc.from_rational(-1))
            elif kind == "twist":
                images[g] = images[g].scale(zeta)
            else:
                images[g] = Mat(tuple(zip(*images[g].rows)))
            cases.append(images)
        for s in range(1, m):
            cyclic = {group.power(s, k) for k in range(group.element_order(s))}
            cosets = {frozenset(group.table[g][c] for c in cyclic) for g in range(m)}
            for coset in cosets - {frozenset(cyclic)}:
                for factor in (zeta, Cyc.from_rational(2)):
                    cases.append([mt.scale(factor) if h in coset else mt
                                  for h, mt in enumerate(rep.images)])
        for images in cases:
            expected = _all_pairs_homomorphism(group, images)
            try:
                Rep(group, images)
                accepted = True
            except RepError:
                accepted = False
            assert accepted == expected, rep.name
            outcomes.add(accepted)
    assert outcomes == {True, False}


def _mat_product_proof(group, images) -> str | None:
    """The homomorphism proof as a loop of Mat products: the message of its
    first failure, or None when the images pass."""
    if not images[0].is_identity():
        return "identity element must map to the identity matrix"
    for s in group.small_generating_set():
        for a in range(group.order):
            if images[a] * images[s] != images[group.table[a][s]]:
                return f"homomorphism fails at pair ({a},{s})"
    return None


@pytest.mark.parametrize("ref", ["A5:dim3a", "gamma(7,9,2):pi(1,2)", "W3:rho_w"])
def test_integer_proof_matches_the_mat_product_proof(ref):
    """The proof over integer coefficient vectors accepts and rejects exactly
    the image lists the Mat product loop does, at the same first failing
    pair.  The reps have conductors 5 (denominator 5), 21 and 3; each gets
    single-entry corruptions of its generator images and of a non-generator
    image: a zeta_7 added (a new conductor), 1/3 added (a new denominator),
    a nonzero entry set to zero and a zero entry set to 1."""
    group_name, rep_name = ref.rsplit(":", 1)
    rep = catalog.get_entry(group_name).rep(rep_name)
    group = rep.group
    gens = group.small_generating_set()
    other = next(g for g in reversed(range(group.order)) if g not in gens)
    cases = [list(rep.images)]
    for g in (*gens, other):
        rows = rep.images[g].rows
        cells = [(i, j) for i in range(rep.dim) for j in range(rep.dim)]
        i, j = next(c for c in cells if not rows[c[0]][c[1]].is_zero())
        changes = [(i, j, rows[i][j] + cyc_root_of_unity(7, 1)),
                   (i, j, rows[i][j] + Fraction(1, 3)), (i, j, Cyc.zero())]
        zeros = [c for c in cells if rows[c[0]][c[1]].is_zero()]
        if zeros:
            changes.append((*zeros[0], Cyc.one()))
        for i, j, value in changes:
            new = [list(row) for row in rows]
            new[i][j] = value
            images = list(rep.images)
            images[g] = Mat(new)
            cases.append(images)
    outcomes = []
    for images in cases:
        try:
            Rep(group, images)
            got = None
        except RepError as exc:
            got = str(exc)
        assert got == _mat_product_proof(group, images), ref
        outcomes.append(got)
    assert outcomes[0] is None
    assert all(outcomes[1:]), ref


def test_images_of_mixed_dimension_are_a_rep_error():
    """Images of two dimensions are refused before the proof multiplies
    them (a Mat product of a 2x2 and a 1x1 image raises IndexError)."""
    z2 = catalog.cyclic(2).group
    with pytest.raises(RepError, match="one dimension"):
        Rep(z2, [Mat.identity(2), Mat(((Cyc.one(),),))])
    with pytest.raises(RepError, match="one dimension"):
        Rep(z2, [Mat.identity(2), Mat(((Cyc.one(),),))], validate=False)
