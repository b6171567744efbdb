import json
import random
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

from repident import catalog, equivalence as eq
from repident.grouplab import FiniteGroup
from repident.replab import Rep, restrict_rep, spectrum


@pytest.fixture(scope="module")
def s4():
    return catalog.symmetric(4)


@pytest.fixture(scope="module")
def a5():
    return catalog.alternating(5)


def test_range_signature_basics(s4):
    triv = s4.rep("rho1")
    rs = eq.range_signature(triv.character)
    assert len(rs) == 1 and rs[0][1] == 24
    rho4 = s4.rep("rho4")
    sizes = sorted(c for _, c in eq.range_signature(rho4.character))
    assert sizes == [1, 6, 8, 9]
    assert sum(sizes) == 24


def test_s4_pair_signatures(s4):
    rho4, rho5 = s4.rep("rho4"), s4.rep("rho5")
    assert eq.ranges_equal(rho4.character, rho5.character)
    assert eq.range_signatures_equal(rho4.character, rho5.character)
    assert eq.table_equivalent(rho4.character, rho5.character)
    assert eq.strongly_table_equivalent(rho4.character, rho5.character)
    assert not eq.gassmann_equivalent(rho4, rho5)
    assert rho4.character.values != rho5.character.values


def test_reflexivity(s4):
    rho4 = s4.rep("rho4")
    assert eq.gassmann_equivalent(rho4, rho4)
    assert eq.strong_gassmann(rho4, rho4)
    assert eq.galois_conjugate_reps(rho4, rho4) == 1
    alpha = eq.similar_reps(rho4, rho4)
    assert alpha is not None


def test_distinct_dimension_pairs_not_table_equivalent(s4):
    assert not eq.table_equivalent(s4.rep("rho1").character, s4.rep("rho4").character)


def test_gamma_pair(s4):
    gam = catalog.gamma_d(7, 9, 2)
    p11, p12 = gam.rep("pi(1,1)"), gam.rep("pi(1,2)")
    assert eq.gassmann_equivalent(p11, p12)
    assert eq.similar_reps(p11, p12) is None
    assert eq.galois_conjugate_reps(p11, p12) is not None


def test_similar_implies_gassmann(a5):
    d3a, d3b = a5.rep("dim3a"), a5.rep("dim3b")
    assert eq.similar_reps(d3a, d3b) is not None
    assert eq.gassmann_equivalent(d3a, d3b)


def test_galois_implies_gassmann():
    h3 = catalog.heisenberg(3)
    t1, t2 = h3.rep("theta1"), h3.rep("theta2")
    assert eq.galois_conjugate_reps(t1, t2) is not None
    assert eq.gassmann_equivalent(t1, t2)


def test_abelian_gassmann_forces_isomorphism():
    """Faithful reps of Z4 and Z2xZ2 cannot share spectral signatures."""
    z4 = catalog.cyclic(4).rep("chi1")
    from repident.catalog import abelian_rep

    klein = abelian_rep(2, 2, 1, [[1, 0]])  # 1-dim, not faithful; build 2-dim faithful
    klein2 = abelian_rep(2, 2, 2, [[1, 0], [0, 1]])
    assert klein2.is_faithful()
    # compare a faithful Z4 rep against the faithful Klein rep of equal dim:
    z4_2dim = catalog.gamma_d  # placeholder to keep naming clear
    from repident.replab import Rep
    from repident.matrices import Mat
    from repident.exactnum import Cyc, cyc_root_of_unity

    i = cyc_root_of_unity(4, 1)
    zero = Cyc.zero(4)
    z4g = catalog.cyclic(4).group
    diag = Rep(z4g, [
        Mat(((cyc_root_of_unity(4, k), zero), (zero, cyc_root_of_unity(4, 3 * k))))
        for k in range(4)
    ], name="Z4:2dim")
    assert diag.is_faithful()
    assert not eq.gassmann_equivalent(diag, klein2)


def test_cyclic_gassmann_iff_similar():
    for n in range(2, 13):
        entry = catalog.cyclic(n)
        reps = [entry.rep(f"chi{k}") for k in range(n)]
        faithful = [r for r in reps if r.is_faithful()]
        for r1 in faithful:
            for r2 in faithful:
                g = eq.gassmann_equivalent(r1, r2)
                s = eq.similar_reps(r1, r2) is not None
                assert g == s, (n, r1.name, r2.name)


def test_monotone_chain(s4, a5):
    """strong table => table => equal ranges; signature equality => equal ranges."""
    reps = [s4.rep(f"rho{i}") for i in range(1, 6)]
    for r1 in reps:
        for r2 in reps:
            c1, c2 = r1.character, r2.character
            if eq.strongly_table_equivalent(c1, c2):
                assert eq.table_equivalent(c1, c2)
            if eq.table_equivalent(c1, c2):
                assert eq.ranges_equal(c1, c2)
            if eq.range_signatures_equal(c1, c2):
                assert eq.ranges_equal(c1, c2)
            if eq.gassmann_equivalent(r1, r2):
                assert eq.range_signatures_equal(c1, c2)


def test_uniform_gassmann_galois_pair_true():
    h3 = catalog.heisenberg(3)
    ok, witness = eq.uniformly_gassmann(h3.rep("theta1"), h3.rep("theta2"))
    assert ok and witness is None


def test_uniform_gassmann_wreath_false():
    w3 = catalog.wreath(3)
    rw, rhw = w3.rep("rho_w"), w3.rep("rho_hw")
    assert eq.similar_reps(rw, rhw) is not None
    assert eq.gassmann_equivalent(rw, rhw)
    assert eq.galois_conjugate_reps(rw, rhw) is None
    ok, witness = eq.uniformly_gassmann(rw, rhw)
    assert not ok
    abelian = {g for g, (a, s) in enumerate(w3.elements) if s == 0}
    assert set(witness) <= abelian
    # the full abelian part itself cannot witness the failure: the circulant
    # unit induces a spectrum-preserving bijection a -> ha of that subgroup
    from repident.replab import restrict_rep

    ra = restrict_rep(rw, sorted(abelian))
    rb = restrict_rep(rhw, sorted(abelian))
    assert eq.gassmann_equivalent(ra, rb)


def test_compare_all_payload(a5):
    out = eq.compare_all(a5.rep("dim3a"), a5.rep("dim3b"))
    assert out["gassmann"] and out["similar"] and out["galois"]
    assert out["galois_t"] == 7
    s4 = catalog.symmetric(4)
    out2 = eq.compare_all(s4.rep("rho4"), s4.rep("rho5"))
    assert out2["strong_table_equiv"] and not out2["gassmann"] and not out2["similar"]


# gamma(7,9,2) irreducibles; every pair of them is compared by the benchmark
_GAMMA_PIS = ("pi(1,1)", "pi(1,2)", "pi(1,4)", "pi(2,1)", "pi(3,1)", "pi(2,2)")
# forms V of diagonal reps a -> diag(zeta_3^(V a)) of the order-9 abelian group
_Z3SQ_FORMS = (
    (((1, 0), (0, 1)), ((0, 1), (1, 0))),
    (((1, 1), (0, 1)), ((2, 0), (0, 1))),
    (((1, 2), (2, 2)), ((1, 0), (0, 2))),
)


def _compare_cases():
    """compare_all pairs whose JSON output is pinned in
    tests/data/compare_pinned.json."""
    s4, h3 = catalog.symmetric(4), catalog.heisenberg(3)
    a5, w3 = catalog.alternating(5), catalog.wreath(3)
    cases = {
        "S4 rho4/rho5": (s4.rep("rho4"), s4.rep("rho5")),
        "H3 theta1/theta2": (h3.rep("theta1"), h3.rep("theta2")),
        "A5 dim3a/dim3b": (a5.rep("dim3a"), a5.rep("dim3b")),
        "W3 rho_w/rho_hw": (w3.rep("rho_w"), w3.rep("rho_hw")),
    }
    gam = catalog.gamma_d(7, 9, 2)
    for a, b in combinations(_GAMMA_PIS, 2):
        cases[f"gamma {a}/{b}"] = (gam.rep(a), gam.rep(b))
    for i, (u, v) in enumerate(_Z3SQ_FORMS):
        cases[f"Z3^2 pair{i}"] = (catalog.abelian_rep(3, 2, 2, u), catalog.abelian_rep(3, 2, 2, v))
    return cases


def test_compare_json_pinned():
    pinned = json.loads((Path(__file__).parent / "data" / "compare_pinned.json").read_text())
    cases = _compare_cases()
    assert list(cases) == list(pinned)
    for name, (rep1, rep2) in cases.items():
        assert json.dumps(eq.compare_all(rep1, rep2)) == json.dumps(pinned[name]), name


def _assert_similarity(rep1, rep2, alpha):
    """alpha is a bijective homomorphism from rep1's group onto rep2's that
    carries chi1 to chi2."""
    m = rep1.group.order
    t1, t2 = rep1.group.table, rep2.group.table
    assert alpha is not None and sorted(alpha) == list(range(m))
    assert all(alpha[t1[a][b]] == t2[alpha[a]][alpha[b]] for a in range(m) for b in range(m))
    chi1, chi2 = rep1.character.values, rep2.character.values
    assert all(chi2[alpha[g]] == chi1[g] for g in range(m))


def test_similar_reps_matches_an_automorphism_scan():
    """On every pinned pair, similar_reps returns the first automorphism of
    automorphisms() that carries chi1 to chi2, or None when there is none."""
    scans = {}
    for name, (rep1, rep2) in _compare_cases().items():
        group = rep1.group
        assert group.table == rep2.group.table, name
        auts = scans.setdefault(group.table, group.automorphisms())
        chi1, chi2 = rep1.character.values, rep2.character.values
        expected = next((alpha for alpha in auts
                         if all(chi2[alpha[g]] == chi1[g] for g in range(group.order))), None)
        alpha = eq.similar_reps(rep1, rep2)
        assert alpha == expected, name
        if alpha is not None:
            _assert_similarity(rep1, rep2, alpha)


@pytest.mark.parametrize("name,others", [("H5", ("theta1", "theta2", "theta3", "theta4")),
                                         ("H7", ("theta2",))])
def test_heisenberg_faithful_reps_similar(name, others):
    """The paper's p-group examples: theta1 is similar to each faithful
    irreducible of H5, and to theta2 of H7 (order 343)."""
    entry = catalog.get_entry(name)
    theta1 = entry.rep("theta1")
    for other in others:
        _assert_similarity(theta1, entry.rep(other), eq.similar_reps(theta1, entry.rep(other)))


def _relabelled(rep, seed):
    """rep moved to a copy of its group whose non-identity elements are
    shuffled."""
    m = rep.group.order
    label = [0] + random.Random(seed).sample(range(1, m), m - 1)
    table = [[0] * m for _ in range(m)]
    images = [None] * m
    for a in range(m):
        images[label[a]] = rep.images[a]
        for b in range(m):
            table[label[a]][label[b]] = label[rep.group.table[a][b]]
    return Rep(FiniteGroup(table), images, name=f"{rep.name} relabelled")


@pytest.mark.parametrize("name,rep_name,other", [("S4", "rho4", "rho5"),
                                                 ("gamma(7,9,2)", "pi(1,2)", "pi(1,1)")])
def test_similar_reps_across_tables(name, rep_name, other):
    entry = catalog.get_entry(name)
    rep = entry.rep(rep_name)
    copy = _relabelled(rep, 7)
    assert copy.group.table != rep.group.table
    for rep1, rep2 in ((rep, copy), (copy, rep)):
        _assert_similarity(rep1, rep2, eq.similar_reps(rep1, rep2))
    assert eq.compare_all(rep, copy)["similar"]
    assert eq.similar_reps(entry.rep(other), copy) is None


def test_similar_reps_non_isomorphic_groups():
    """Z9 and Z3^2 have equal orders but are not isomorphic."""
    z9 = catalog.cyclic(9).rep("chi3")
    for rep in (catalog.abelian_rep(3, 2, 1, [[1, 0]]),
                catalog.abelian_rep(3, 2, 2, [[1, 0], [0, 1]])):
        assert eq.similar_reps(z9, rep) is None
        assert eq.compare_all(z9, rep)["similar"] is False


@pytest.mark.parametrize("name", ["S4", "H3", "W3"])
def test_uniform_gassmann_matches_restriction_definition(name):
    """Verdict and witness agree with restricting both reps to every
    subgroup and testing Gassmann equivalence there."""
    entry = catalog.get_entry(name)
    subgroups = entry.group.all_subgroups()
    restricted = {}

    def restriction(rep_name, sub):
        key = (rep_name, sub)
        if key not in restricted:
            restricted[key] = restrict_rep(entry.rep(rep_name), sorted(sub))
        return restricted[key]

    for a, b in combinations_with_replacement(entry.rep_names(), 2):
        expected = next(((False, sub) for sub in subgroups
                         if not eq.gassmann_equivalent(restriction(a, sub), restriction(b, sub))),
                        (True, None))
        assert eq.uniformly_gassmann(entry.rep(a), entry.rep(b)) == expected, (a, b)
        assert eq.uniformly_gassmann(entry.rep(b), entry.rep(a)) == expected, (b, a)


_SMALL_GROUPS = ["Z5", "Z6", "S3", "S4", "A4", "A5", "Q8", "2T", "H3", "H5", "W3", "gamma(7,9,2)",
                 "Z3^2"]
_Z3_FORMS = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, 0], [0, 1]], [[1, 2], [2, 2]],
             [[1, 0], [1, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 0]])


def _small_reps(name):
    if name == "Z3^2":
        reps = [catalog.abelian_rep(3, 2, 2, form) for form in _Z3_FORMS]
        return reps[0].group, reps
    entry = catalog.get_entry(name)
    return entry.group, [entry.rep(r) for r in entry.rep_names()]


@pytest.mark.parametrize("name", _SMALL_GROUPS)
def test_uniform_gassmann_matches_the_subgroup_lattice(name):
    """Testing only cyclic subgroups gives the verdict and the witness of
    the first subgroup of the whole lattice whose per-element spectrum
    multisets differ, for every pair of reps in both orders."""
    group, reps = _small_reps(name)
    subgroups = group.all_subgroups()
    spectra = [[tuple(spectrum(rep, g)) for g in range(group.order)] for rep in reps]
    for i, j in product(range(len(reps)), repeat=2):
        expected = next(((False, sub) for sub in subgroups
                         if sorted(spectra[i][g] for g in sub)
                         != sorted(spectra[j][g] for g in sub)),
                        (True, None))
        assert eq.uniformly_gassmann(reps[i], reps[j]) == expected, (reps[i].name, reps[j].name)


def test_compare_all_builds_no_subgroup_lattice():
    w3 = catalog.wreath(3)
    group = FiniteGroup(w3.group.table)
    rw, rhw = (Rep(group, w3.rep(r).images, validate=False) for r in ("rho_w", "rho_hw"))
    out = eq.compare_all(rw, rhw)
    assert out == eq.compare_all(w3.rep("rho_w"), w3.rep("rho_hw"))
    assert out["uniform_gassmann_failing_subgroup"] == [0, 3, 6]
    assert "_subgroup_lattice" not in group.__dict__


def test_uniform_gassmann_has_no_order_cap():
    """H7 has order 343: its Galois pair is uniformly Gassmann, in
    uniformly_gassmann and in compare_all."""
    h7 = catalog.heisenberg(7)
    theta1, theta2 = h7.rep("theta1"), h7.rep("theta2")
    assert eq.uniformly_gassmann(theta1, theta2) == (True, None)
    assert eq.compare_all(theta1, theta2)["uniform_gassmann"] is True
