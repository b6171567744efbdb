import json
from fractions import Fraction

import pytest

from repident import catalog, idfactory as idf, verifier as vf
from repident.exactnum import Cyc, sqrt5
from repident.freeexpr import Evaluator, var
from repident.replab import sigma_value


@pytest.fixture(scope="module")
def s3_std():
    return catalog.symmetric(3).rep("std")


@pytest.fixture(scope="module")
def s4():
    return catalog.symmetric(4)


def test_guard_shape():
    doc = idf.guard_C(3)
    assert doc.params["m"] == 3
    # m(m-1)/2 difference factors, one leading and one separator each
    seps = vf._doc_tables(doc).separators
    assert len(seps) == 1 + 3
    guards = doc.guards["Y"]
    assert guards == ["y1", "y2", "y3"]
    with pytest.raises(idf.BuildError):
        idf.guard_C(1)


def test_psi_free_vars(s3_std):
    doc = idf.psi(6)
    assert doc.expr.free_vars() == {"x"} | {f"y{i}" for i in range(1, 7)}
    c6 = idf.guard_C(4)
    assert len(c6.expr.free_vars()) == 4 + 1 + 6


def test_character_identity_constants(s3_std):
    doc = idf.character_identity(s3_std)
    constants = [Cyc.from_json(c) for c in doc.params["constants"]]
    # range {2, 0, -1} scaled by m/n = 3
    keys = {c.key(6) for c in constants}
    assert keys == {Cyc.from_rational(q).key(6) for q in (6, 0, -3)}


def test_character_identity_rejects_bad_reps(s4):
    with pytest.raises(idf.BuildError):
        idf.character_identity(s4.rep("rho3"))  # not faithful


def test_character_identity_galois_invariance(s4):
    """Rebuilding from a Galois-twisted rep yields the same document."""
    a5 = catalog.alternating(5)
    d3a, d3b = a5.rep("dim3a"), a5.rep("dim3b")
    assert idf.character_identity(d3a).to_json() == idf.character_identity(d3b).to_json()


def test_builders_are_deterministic(s4):
    rho4 = s4.rep("rho4")
    for build in (
        lambda: idf.character_identity(rho4),
        lambda: idf.spectrum_identity(rho4),
        lambda: idf.sigma_identity(rho4, 2),
        lambda: idf.level_set_identity(rho4, 1),
        lambda: idf.class_identity(rho4),
        lambda: idf.minimal_poly_identity(rho4),
    ):
        a = json.dumps(build().to_json(), sort_keys=True)
        b = json.dumps(build().to_json(), sort_keys=True)
        assert a == b


def test_doc_json_round_trip(s3_std):
    doc = idf.character_identity(s3_std)
    blob = json.loads(json.dumps(doc.to_json()))
    doc2 = idf.IdentityDoc.from_json(blob)
    assert doc2.to_json() == doc.to_json()
    # streamed docs round trip as well
    doc3 = idf.level_set_identity(s3_std, 1)
    blob3 = json.loads(json.dumps(doc3.to_json()))
    assert idf.IdentityDoc.from_json(blob3).to_json() == doc3.to_json()


def test_sigma_monomials_against_direct_values(s4):
    rho5 = s4.rep("rho5")
    ev = Evaluator(rho5)
    yvars = [var(f"y{i}") for i in range(1, 25)]
    for g in (0, 3, 9, 17):
        assign = {f"y{k + 1}": k for k in range(24)}
        assign["x"] = g
        for i in (1, 2, 3):
            e = idf.sigma_hat_expr(i, var("x"), yvars, 24, 3)
            assert ev.scalar_of(e, assign) == sigma_value(rho5, g, i)


def test_sigma_monomials_table():
    assert idf.sigma_monomials(1) == [(Fraction(1), (1,))]
    assert sorted(idf.sigma_monomials(2)) == sorted(
        [(Fraction(1, 2), (1, 1)), (Fraction(-1, 2), (2,))]
    )
    assert sorted(idf.sigma_monomials(3)) == sorted(
        [
            (Fraction(1, 6), (1, 1, 1)),
            (Fraction(-1, 2), (1, 2)),
            (Fraction(1, 3), (3,)),
        ]
    )


def test_level_set_counts(s4):
    rho4 = s4.rep("rho4")
    kc = rho4.key_conductor
    values = rho4.character.range_values(kc)
    by_value = {str(v): None for v in values}
    minus_one = next(i + 1 for i, v in enumerate(values) if v == -1)
    doc = idf.level_set_identity(rho4, minus_one)
    assert doc.params["level_size"] == 9
    from math import comb

    assert doc.params["stream_factors"] == comb(24, 9)
    triv = s4.rep("rho1")
    doc1 = idf.level_set_identity(triv, 1)
    assert doc1.params["stream_factors"] == 1


def test_class_identity_structure(s4):
    doc = idf.class_identity(s4.rep("rho4"))
    assert doc.params["sizes"] == [8, 6, 6, 3, 1]
    assert doc.params["size_groups"] == [[1], [2, 3], [4], [5]]
    body = doc.expr.children[-1]
    assert body.kind == "stream_perm_body"
    # the group sizes, and every pair proved psd
    assert body.extra == ((1, 2, 1, 1), True)
    # the equal-size pair contributes |S(A_i)| = 2 permutation factors
    from repident.freeexpr import expand_stream

    expanded = expand_stream(body)
    assert expanded.kind == "sum" and len(expanded.children) == 4
    pair_product = expanded.children[1]
    assert pair_product.kind == "prod" and len(pair_product.children) == 2


def test_class_identity_trivial_group():
    z1 = catalog.cyclic(1)
    doc = idf.class_identity(z1.rep("chi0"))
    assert doc.vacuous


def test_range_identity_rejects_outside_values(s3_std):
    with pytest.raises(idf.BuildError):
        idf.range_identity(s3_std, Cyc.from_rational(7))
    doc = idf.range_identity(s3_std, Cyc.from_rational(-1))
    assert doc.params["m"] == 6


def test_gassmann_identity_params(s4):
    rho4 = s4.rep("rho4")
    blocks = rho4.adams_partition
    doc = idf.gassmann_identity(rho4, 2)
    assert doc.params["block_size"] == len(blocks[1])


def test_central_laurent_shape():
    doc = idf.central_laurent(4)
    assert not doc.is_identity
    assert doc.expr.kind == "sum"
    assert len(doc.expr.children) == 4


def test_gamma_separating_shape():
    gam = catalog.gamma_d(7, 9, 2)
    doc = idf.gamma_separating_identity(gam, 1)
    assert doc.params["nprime"] == 3
    # determinant residues 2..n' and the conjugation factor
    assert doc.params["l"] == 1


def test_standard_identity_small(s3_std):
    # s_2(a, b) = ab - ba
    doc = idf.standard_identity(2)
    ev = Evaluator(s3_std)
    for a in range(6):
        for b in range(6):
            val = ev.evaluate(doc.expr, {"y1": a, "y2": b})
            direct = (
                s3_std.images[a] * s3_std.images[b]
                - s3_std.images[b] * s3_std.images[a]
            )
            assert val == direct
    # s_4 holds in a 2-dim rep, s_2 does not
    assert vf.holds_sampled(idf.standard_identity(4), s3_std, n=60, seed=0).holds
    assert not vf.holds_sampled(idf.standard_identity(2), s3_std, n=60, seed=0).holds


def test_disjunctive_identity(s3_std):
    from repident.freeexpr import power

    z2 = catalog.cyclic(2).rep("chi1")
    doc = idf.disjunctive_identity([power(var("x"), 2)])
    assert vf.holds_exhaustive(doc, z2, budget=10**4).holds
    # x^2 = 1 or x^3 = 1 holds identically in A4
    tau = catalog.alternating(4).rep("tau")
    doc2 = idf.disjunctive_identity([power(var("x"), 2), power(var("x"), 3)])
    assert vf.holds_exhaustive(doc2, tau, budget=10**6).holds


def test_probability_identity_universe(s3_std):
    from repident.freeexpr import const, inv, prod, sub

    comm = sub(prod([inv(var("a")), inv(var("b")), var("a"), var("b")]), const(1))
    doc = idf.probability_identity(comm, 18, 6)
    assert doc.params["p"] == 2
    groups = doc.guards
    assert set(groups) == {"X1", "X2"}
    assert all(len(v) == 6 for v in groups.values())
    with pytest.raises(idf.BuildError):
        idf.probability_identity(comm, 37, 6)


def test_expand_doc_matches_streamed_verdict(s3_std):
    # small streamed doc: expanded form gives the same verdict
    kc = s3_std.key_conductor
    values = s3_std.character.range_values(kc)
    idx = next(i + 1 for i, v in enumerate(values) if v == 2)  # level of the degree
    doc = idf.level_set_identity(s3_std, idx)
    assert doc.params["level_size"] == 1
    expanded = idf.expand_doc(doc, limit=10)
    v1 = vf.holds_guarded(doc, s3_std, seed=0)
    v2 = vf.holds_guarded(expanded, s3_std, seed=0)
    assert v1.holds and v2.holds


def test_expand_doc_unrolls_permutation_body(s3_std):
    """Expanding a class identity rewrites its streamed permutation body into
    explicit sums and products, with the streamed document's verdict."""
    doc = idf.class_identity(s3_std)
    expanded = idf.expand_doc(doc)

    def kinds(e, seen):
        if id(e) not in seen:
            seen[id(e)] = e.kind
            for c in e.children:
                kinds(c, seen)
        return set(seen.values())

    assert "stream_perm_body" in kinds(doc.expr, {})
    assert not any(k.startswith("stream") for k in kinds(expanded.expr, {}))
    for rep in (s3_std, catalog.symmetric(3).rep("sign")):
        streamed = vf.holds_sampled(doc, rep, n=40, seed=1).to_json()
        unrolled = vf.holds_sampled(expanded, rep, n=40, seed=1).to_json()
        streamed.pop("timing_ms")
        unrolled.pop("timing_ms")
        assert streamed == unrolled


def test_builder_soundness_sweep():
    """Every builder output passes the verifier on its own source rep."""
    targets = [
        catalog.symmetric(3).rep("std"),
        catalog.cyclic(6).rep("chi1"),
        catalog.quaternion().rep("dim2"),
        catalog.alternating(4).rep("tau"),
        catalog.symmetric(4).rep("rho5"),
        catalog.heisenberg(3).rep("theta1"),
    ]
    for rep in targets:
        m, n = rep.group.order, rep.dim
        docs = [
            idf.character_identity(rep),
            idf.theta(m),
            idf.dimension_identity(m, n),
            idf.dimension_identity_alt(m, n),
            idf.spectrum_identity(rep),
            idf.spectrum_level_identity(rep, 1),
            idf.gassmann_identity(rep, 1),
            idf.cayley_hamilton_identity(m, n),
            idf.sigma_identity(rep, n),
            idf.level_set_identity(rep, 1),
        ]
        for doc in docs:
            verdict = vf.holds_guarded(doc, rep, seed=1, orderings=2)
            assert verdict.holds, (rep.name, doc.family)
        mp = idf.minimal_poly_identity(rep)
        if m ** len(mp.expr.free_vars()) <= 10**5:
            assert vf.holds_exhaustive(mp, rep, budget=10**5).holds
        cls = idf.class_identity(rep)
        assert vf.holds_structured(cls, rep, seed=1).holds, rep.name
