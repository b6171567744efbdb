"""Cross-module property suites tying identities to the equivalence
predicates they characterize."""

import pytest

from helpers import unseparated_character_doc
from repident import catalog, equivalence as eq, idfactory as idf, verifier as vf
from repident.freeexpr import var


@pytest.fixture(scope="module")
def s4():
    return catalog.symmetric(4)


def test_character_identity_iff_scaled_range_inclusion(s4):
    """At equal group order, the character identity of rho transfers to sigma
    exactly when range(chi_sigma) lies in the (dim sigma / dim rho)-scaled
    range of chi_rho."""
    from math import lcm

    pairs = [
        (s4.rep("rho4"), s4.rep("rho5")),          # equal ranges -> holds
        (catalog.symmetric(3).rep("std"), catalog.cyclic(6).rep("chi1")),
        (catalog.cyclic(6).rep("chi1"), catalog.symmetric(3).rep("std")),
        (s4.rep("rho4"), catalog.binary_tetrahedral().rep("nat")),
        (catalog.binary_tetrahedral().rep("nat"), s4.rep("rho4")),
    ]
    for rho, sigma in pairs:
        # the biconditional needs a faithful target of the same order
        assert rho.group.order == sigma.group.order and sigma.is_faithful()
        doc = idf.character_identity(rho)
        verdict = vf.holds_guarded(doc, sigma, seed=3)
        kc = lcm(rho.key_conductor, sigma.key_conductor)
        from fractions import Fraction

        from repident.exactnum import Cyc

        scale = Cyc.from_rational(Fraction(sigma.dim, rho.dim))
        scaled_rho = {(v * scale).key(kc) for v in rho.character.range_values(kc)}
        sigma_range = {v.key(kc) for v in sigma.character.range_values(kc)}
        assert verdict.holds == (sigma_range <= scaled_rho), (rho.name, sigma.name)


def test_gassmann_identities_iff_equal_signatures(s4):
    """The block identities transfer between reps exactly when the spectral
    signatures match (sampled over blocks on a Gassmann pair and a non-pair)."""
    rho4, rho5 = s4.rep("rho4"), s4.rep("rho5")
    held = all(
        vf.holds_guarded(idf.gassmann_identity(rho4, i), rho5, seed=2).holds
        for i in range(1, len(rho4.adams_partition) + 1)
    )
    assert held == eq.gassmann_equivalent(rho4, rho5) == False
    gam = catalog.gamma_d(7, 9, 2)
    p11, p12 = gam.rep("pi(1,1)"), gam.rep("pi(1,2)")
    assert eq.gassmann_equivalent(p11, p12)
    for i in (1, 2, 6):
        assert vf.holds_guarded(idf.gassmann_identity(p11, i), p12, seed=2).holds


def test_central_partition_transfer(s4):
    """A holding partition identity forces a partition with the same
    signature on the target; the strongly-table-equivalent pair provides it."""
    rho4, rho5 = s4.rep("rho4"), s4.rep("rho5")
    cc = s4.group.conjugacy_classes
    class_partition = [sorted(c) for c in cc.classes]
    doc = idf.central_partition_identity(rho4, class_partition)
    assert vf.holds_guarded(doc, rho4, seed=5).holds
    assert vf.holds_guarded(doc, rho5, seed=5).holds


def test_binary_tetrahedral_identity_list():
    """The natural two-dimensional model satisfies the advertised list:
    a disjunctive sample, the alternating identity in four variables, the
    character identity, and the one-variable eigenvalue identity."""
    tt = catalog.binary_tetrahedral()
    nat = tt.rep("nat")
    from repident.freeexpr import power

    # element orders are 1,2,3,4,6: x^12 = 1 identically
    doc = idf.disjunctive_identity([power(var("x"), 12)])
    assert vf.holds_exhaustive(doc, nat, budget=10**5).holds
    assert vf.holds_sampled(idf.standard_identity(4), nat, n=400, seed=5).holds
    assert vf.holds_guarded(idf.character_identity(nat), nat, seed=5).holds
    union_doc = idf.minimal_poly_identity(nat, "union")
    assert vf.holds_exhaustive(union_doc, nat, budget=10**3).holds


def test_su_membership(s4):
    """Determinant-one test: holds exactly for image inside the special
    unitary group."""
    tt = catalog.binary_tetrahedral()
    nat = tt.rep("nat")
    doc = idf.su_membership_identity(24, 2)
    assert vf.holds_guarded(doc, nat, seed=1).holds
    # the sign-carrying 3-dim rep contains determinant -1 images
    rho5 = s4.rep("rho5")
    from repident.replab import sigma_value

    dets = {str(sigma_value(rho5, g, 3)) for g in range(24)}
    assert dets == {"Cyc(1)", "Cyc(-1)"}
    doc2 = idf.su_membership_identity(24, 3)
    assert not vf.holds_guarded(doc2, rho5, seed=1).holds


def test_cayley_hamilton(s4):
    std = catalog.symmetric(3).rep("std")
    assert vf.holds_guarded(idf.cayley_hamilton_identity(6, 2), std, seed=1).holds
    rho5 = s4.rep("rho5")
    assert vf.holds_guarded(idf.cayley_hamilton_identity(24, 3), rho5, seed=1).holds
    # wrong dimension parameter must fail
    assert not vf.holds_guarded(idf.cayley_hamilton_identity(6, 1), std, seed=1).holds


def test_range_identities_hold_for_every_range_value(s4):
    std = catalog.symmetric(3).rep("std")
    for xi in std.character.range_values():
        doc = idf.range_identity(std, xi)
        assert vf.holds_guarded(doc, std, seed=2).holds


def test_psi_prime_and_theta_equivalent_to_character_identity(s4):
    """The separator-free variant together with the commutation identity
    gives the same verdicts as the separated identity."""
    targets = [
        (s4.rep("rho4"), s4.rep("rho4")),
        (s4.rep("rho4"), s4.rep("rho5")),
        (catalog.symmetric(3).rep("std"), catalog.symmetric(3).rep("std")),
    ]
    for rho, sigma in targets:
        sep = vf.holds_guarded(idf.character_identity(rho), sigma, seed=4).holds
        unsep = vf.holds_guarded(unseparated_character_doc(rho), sigma, seed=4).holds
        theta = vf.holds_guarded(idf.theta(rho.group.order), sigma, seed=4).holds
        assert theta
        assert sep == unsep


def test_fixed_point_identities_on_fpf_rep():
    gam = catalog.gamma_d(7, 9, 2)
    p11 = gam.rep("pi(1,1)")
    orders = gam.group.order_statistics()
    for i in range(1, len(orders) + 1):
        doc = idf.fixed_point_identity(p11, i)
        assert vf.holds_guarded(doc, p11, seed=6).holds, i


def test_conjecture_sweeps_report_empty():
    """Experiment sweeps over the default catalog find no counterexamples;
    they assert nothing beyond the sweep."""
    from repident.cli import cmd_experiment, make_parser

    parser = make_parser()
    for name in ("table-equivalence", "strong-gassmann"):
        args = parser.parse_args(["experiment", name, "--groups", "S3,S4,A4"])
        assert cmd_experiment(args) == 0
