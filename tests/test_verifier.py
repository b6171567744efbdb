import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from helpers import unseparated_character_doc
from repident import catalog, idfactory as idf, verifier as vf
from repident.exactnum import Cyc, cyc_root_of_unity
from repident.freeexpr import (Evaluator, const, inv, power, prod, reference_eval, smul,
                               star, stream_perm_body, stream_subsets, sub, sum_, var)
from repident.matrices import Mat


def _undecided_stream(base):
    """The streamed product of (base + base) over the one 2-subset of
    [base, base]: zero exactly where base is, and undecided elsewhere, since
    a base such as x - 1 is not proved psd."""
    return stream_subsets([base, base], 2, "s")


@pytest.fixture(scope="module")
def s3_std():
    return catalog.symmetric(3).rep("std")


@pytest.fixture(scope="module")
def z3_chi():
    return catalog.cyclic(3).rep("chi1")


def test_exhaustive_examples(z3_chi):
    z2 = catalog.cyclic(2).rep("chi1")
    v = vf.holds_exhaustive(idf.guard_C(3), z2, budget=10**4)
    assert v.holds and v.detail["assignments"] == 2**7
    doc = idf.disjunctive_identity([power(var("x"), 2)])
    v = vf.holds_exhaustive(doc, z3_chi, budget=10**4)
    assert not v.holds
    # constant-zero expression with no variables
    zero_doc = idf.IdentityDoc("test", const(0), {}, {}, "zero")
    assert vf.holds_exhaustive(zero_doc, z3_chi, budget=10).holds


def test_budget_enforced(s3_std):
    with pytest.raises(vf.BudgetExceeded):
        vf.holds_exhaustive(idf.character_identity(s3_std), s3_std, budget=100)


def test_guarded_requires_guards(s3_std):
    doc = idf.disjunctive_identity([power(var("x"), 6)])
    with pytest.raises(vf.VerifierError):
        vf.holds_guarded(doc, s3_std)


def test_sampled_seed_stability(s3_std):
    doc = idf.disjunctive_identity([power(var("x"), 3)])
    v1 = vf.holds_sampled(doc, s3_std, n=50, seed=42)
    v2 = vf.holds_sampled(doc, s3_std, n=50, seed=42)
    assert not v1.holds and not v2.holds
    assert v1.counterexample == v2.counterexample


def test_sampled_fails_quickly(z3_chi):
    z2 = catalog.cyclic(2).rep("chi1")
    doc = idf.disjunctive_identity([power(var("x"), 3)])
    v = vf.holds_sampled(doc, z2, n=50, seed=0)
    assert not v.holds


def test_witness_revalidates(s3_std):
    doc = idf.dimension_identity(6, 1)
    v = vf.holds_guarded(doc, s3_std, seed=0)
    assert not v.holds
    ev = Evaluator(s3_std)
    assert not ev.evaluate(doc.expr, v.counterexample).is_zero()


def test_agreement_across_modes():
    """All applicable modes agree on status for small cases."""
    z4 = catalog.cyclic(4).rep("chi1")
    z2 = catalog.cyclic(2).rep("chi1")
    cases = [
        (z4, idf.disjunctive_identity([power(var("x"), 4)]), True),
        (z4, idf.disjunctive_identity([power(var("x"), 2)]), False),
        (z4, idf.guard_C(3), False),
        (z2, idf.guard_C(3), True),
        (z2, idf.character_identity(z2), True),
    ]
    for rep, doc, expected in cases:
        ve = vf.holds_exhaustive(doc, rep, budget=10**7)
        vs = vf.holds_sampled(doc, rep, n=300, seed=1)
        assert ve.holds == expected
        assert vs.holds == expected
        groups = doc.guards
        if groups and all(len(v) == rep.group.order for v in groups.values()):
            vg = vf.holds_guarded(doc, rep, seed=1)
            assert vg.holds == expected


def test_check_dispatch(s3_std):
    doc = idf.character_identity(s3_std)
    v = vf.check(doc, s3_std, mode="auto", seed=0)
    assert v.holds and v.evidence == "guarded"
    doc2 = idf.class_identity(s3_std)
    v2 = vf.check(doc2, s3_std, mode="auto", seed=0)
    assert v2.holds and v2.evidence == "structured"
    small = idf.disjunctive_identity([power(var("x"), 6)])
    v3 = vf.check(small, s3_std, mode="auto", seed=0)
    assert v3.holds and v3.evidence == "exhaustive"


def test_scalar_check(s3_std):
    doc = idf.psi(6)
    assign = {f"y{i + 1}": i for i in range(6)}
    assign["x"] = 3
    lam = vf.scalar_check(doc.expr, s3_std, assign)
    assert lam == s3_std.character.value(3) * Cyc.from_rational(3)
    # non-central word on a higher-dim rep has non-scalar image
    g = next(g for g in range(6) if s3_std.group.element_order(g) == 3)
    assert vf.scalar_check(var("x"), s3_std, {"x": g}) is None


def test_expectation(s3_std):
    comm = prod([inv(var("x")), inv(var("y")), var("x"), var("y")])
    value = vf.expectation(comm, s3_std)
    assert value.is_scalar() == Fraction(1, 4)
    # expectation of a single variable on a nontrivial irrep vanishes
    assert vf.expectation(var("x"), s3_std).is_zero()


def test_expectation_characterizes_identities(s3_std):
    from repident.freeexpr import star

    # E(u u*) = 0 iff u is an identity: test both directions on small cases
    u_id = sub(power(var("x"), 6), const(1))  # holds in S3
    uu = prod([u_id, star(u_id)])
    assert vf.expectation(uu, s3_std).is_zero()
    u_non = sub(power(var("x"), 2), const(1))
    uu2 = prod([u_non, star(u_non)])
    assert not vf.expectation(uu2, s3_std).is_zero()


def test_relation_probability(s3_std):
    comm1 = sub(prod([inv(var("x")), inv(var("y")), var("x"), var("y")]), const(1))
    assert vf.relation_probability(comm1, s3_std) == Fraction(1, 2)
    z6 = catalog.cyclic(6).rep("chi1")
    comm_ab = sub(prod([inv(var("x")), inv(var("y")), var("x"), var("y")]), const(1))
    assert vf.relation_probability(comm_ab, z6) == 1
    # probability 1 iff the verifier says the relation holds exhaustively
    v = vf.holds_exhaustive(idf.disjunctive_identity([power(var("x"), 6)]), s3_std,
                            budget=10**4)
    p = vf.relation_probability(sub(power(var("x"), 6), const(1)), s3_std)
    assert v.holds and p == 1


def test_conditional_probability(s3_std):
    # Pr(x = 1 | x^2 = 1): among the four square roots of 1, one is trivial
    u = sub(var("x"), const(1))
    v = sub(power(var("x"), 2), const(1))
    assert vf.conditional_relation_probability(u, v, s3_std) == Fraction(1, 4)


def test_relation_probabilities_record_no_key_per_assignment(monkeypatch):
    """The relation probabilities walk every assignment of the relation's
    variables, each decided by its own scan, over six relation sessions.
    The probabilities are those of a direct count:
    ab + ba + 1 vanishes on no pair of S4:rho4 (`reference_eval`), and
    ab - ba on the 120 commuting pairs of the 576 (rho4 is faithful)."""
    rep = catalog.symmetric(4).rep("rho4")
    a, b = var("a"), var("b")
    anti = sum_([prod([a, b]), prod([b, a]), const(1)])
    comm, equal = sub(prod([a, b]), prod([b, a])), sub(a, b)
    table = rep.group.table
    assert sum(table[x][y] == table[y][x] for x in range(24) for y in range(24)) == 120
    assert not any(reference_eval(anti, {"a": rep.image(x), "b": rep.image(y)}, 3).is_zero()
                   for x in range(24) for y in range(24))
    sessions = []
    relation_session = vf._relation_session

    def record(expr, rep):
        sessions.append(relation_session(expr, rep))
        return sessions[-1]

    monkeypatch.setattr(vf, "_relation_session", record)
    assert vf.relation_probability(anti, rep) == 0
    assert vf.relation_probability(comm, rep) == Fraction(120, 576)
    assert vf.conditional_relation_probability(anti, comm, rep) == 0
    assert vf.conditional_relation_probability(comm, equal, rep) == 1
    assert len(sessions) == 6


def test_parallel_exhaustive(z3_chi):
    doc = idf.guard_C(3)
    v = vf.holds_exhaustive(doc, z3_chi, budget=10**7, jobs=2)
    assert not v.holds
    z2 = catalog.cyclic(2).rep("chi1")
    v2 = vf.holds_exhaustive(doc, z2, budget=10**7, jobs=2)
    assert v2.holds and v2.detail["jobs"] == 2


def test_parallel_exhaustive_ends_as_the_serial_walk():
    """Over 1, 2 or 3 workers the exhaustive walk ends as the serial walk
    does: at its first failing decision or its first raising scan,
    whichever comes first in the serial order.  (x + y)^-1 (y^2 - 1) on
    S3:std fails at {x: 0, y: 3}, before any later window meets a singular
    x + y.  (x - y)^-1 (y + 1) raises at the first assignment, before any
    later window fails; y^2 - 1 in place of y + 1 would vanish there first,
    since a word difference is decided before any factor is evaluated."""
    from repident.freeexpr import NonGroupSubtermError

    rep = catalog.symmetric(3).rep("std")
    x, y = var("x"), var("y")
    square = sub(power(y, 2), const(1))
    fails = idf.IdentityDoc("test", prod([inv(sum_([x, y])), square]), {}, {},
                            "a singular inverse after the failure")
    raises = idf.IdentityDoc("test", prod([inv(sub(x, y)), sum_([y, const(1)])]), {}, {},
                             "a singular inverse first")
    for jobs in (1, 2, 3):
        verdict = _verdict_json(vf.holds_exhaustive(fails, rep, jobs=jobs))
        assert verdict.pop("jobs", 1) == jobs
        assert verdict == {"status": "fails", "evidence": "exhaustive", "assignments": 36,
                           "witness": {"x": 0, "y": 3}}
        with pytest.raises(NonGroupSubtermError):
            vf.holds_exhaustive(raises, rep, jobs=jobs)


def test_sl2_checks():
    x, y = var("x"), var("y")
    s2 = sub(prod([sum_([y, inv(y)]), x]), prod([x, sum_([y, inv(y)])]))
    assert vf.sl2_sample_check(s2, trials=300, seed=3).holds
    bad = sub(prod([sum_([y, inv(y)]), x]), smul(2, x))
    v = vf.sl2_sample_check(bad, trials=50, seed=3)
    assert not v.holds and v.detail["trial"] < 50
    assert vf.sl2_trace_identity_check(trials=300, seed=3).holds


def test_random_sl2_is_the_shear_product():
    """random_sl2 equals the exact Mat product of its shears, entry for entry,
    and draws the same random numbers in the same order."""
    from repident.matrices import Mat

    def shear_product(rng, shears, height):
        acc = Mat.identity(2)
        one, zero = Cyc.one(), Cyc.zero()
        for _ in range(shears):
            c = Cyc.from_rational(Fraction(rng.randint(-height, height),
                                           rng.randint(1, height)))
            upper = rng.random() < 0.5
            acc = acc * Mat(((one, c), (zero, one)) if upper else ((one, zero), (c, one)))
        return acc

    def entries(mat):
        return [(v.conductor, v.num, v.den) for row in mat.rows for v in row]

    for seed, shears, height in ((0, 4, 10), (1, 4, 10), (2, 7, 3), (3, 1, 1), (4, 0, 10)):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(40):
            got = vf.random_sl2(got_rng, shears, height)
            assert entries(got) == entries(shear_product(want_rng, shears, height))
        assert got_rng.getstate() == want_rng.getstate()


def test_vacuous_docs_hold(z3_chi):
    doc = idf.central_series_gassmann_identity(catalog.cyclic(6).rep("chi1"), 1, 1)
    assert doc.vacuous
    assert vf.check(doc, z3_chi).holds


def _pinned_cases():
    """Small verdicts of every mode; their JSON (timing aside) is pinned in
    tests/data/verdicts_pinned.json."""
    s3_std = catalog.symmetric(3).rep("std")
    s4 = catalog.symmetric(4)
    rho4, rho5 = s4.rep("rho4"), s4.rep("rho5")
    z2, z3 = catalog.cyclic(2).rep("chi1"), catalog.cyclic(3).rep("chi1")
    x, y = var("x"), var("y")
    comm = sub(prod([inv(var("a")), inv(var("b")), var("a"), var("b")]), const(1))
    tr_y = sum_([y, inv(y)])
    return {
        "exhaustive-holds": lambda: vf.holds_exhaustive(idf.guard_C(3), z2, budget=10**4),
        "exhaustive-fails": lambda: vf.holds_exhaustive(idf.guard_C(3), z3, budget=10**4),
        "exhaustive-jobs2": lambda: vf.holds_exhaustive(idf.guard_C(3), z2, budget=10**4,
                                                        jobs=2),
        "guarded-holds": lambda: vf.holds_guarded(idf.character_identity(s3_std), s3_std,
                                                  seed=3),
        "guarded-fails": lambda: vf.holds_guarded(idf.dimension_identity(6, 1), s3_std,
                                                  seed=0, orderings=1),
        "guarded-fails-shuffled": lambda: vf.holds_guarded(
            idf.s4_separating_identity(rho4), rho5, seed=5, orderings=2),
        "guarded-blocked": lambda: vf.holds_guarded(idf.probability_identity(comm, 19, 6),
                                                    s3_std, seed=4, orderings=1),
        "sampled-holds": lambda: vf.holds_sampled(idf.disjunctive_identity([power(x, 6)]),
                                                  s3_std, n=50, seed=42),
        "sampled-fails": lambda: vf.holds_sampled(idf.disjunctive_identity([power(x, 3)]),
                                                  s3_std, n=50, seed=42),
        "structured-class": lambda: vf.holds_structured(idf.class_identity(s3_std), s3_std,
                                                        seed=0),
        "structured-class-s4": lambda: vf.holds_structured(idf.class_identity(rho4), rho5,
                                                           seed=5),
        "structured-series": lambda: vf.holds_structured(
            idf.central_series_gassmann_identity(s3_std, 1, 1), s3_std, seed=0),
        "sl2-holds": lambda: vf.sl2_sample_check(
            sub(prod([tr_y, x]), prod([x, tr_y])), trials=300, seed=3),
        "sl2-fails": lambda: vf.sl2_sample_check(
            sub(prod([tr_y, x]), smul(2, x)), trials=50, seed=3),
        "sl2-trace": lambda: vf.sl2_trace_identity_check(trials=300, seed=3),
    }


def _verdict_json(verdict) -> dict:
    out = verdict.to_json()
    out.pop("timing_ms", None)
    return out


def test_verdict_json_pinned():
    pinned = json.loads((Path(__file__).parent / "data" / "verdicts_pinned.json").read_text())
    cases = _pinned_cases()
    assert list(cases) == list(pinned)
    for name, run in cases.items():
        # dumps keeps key order, so the detail and witness order are pinned too
        assert json.dumps(_verdict_json(run())) == json.dumps(pinned[name]), name


def _psi_pinned_cases():
    """Guarded verdicts whose documents sum conjugation averages psi_Y over
    a bijection Y onto the group; their JSON (timing aside) is pinned in
    tests/data/psi_verdicts_pinned.json."""
    w3 = catalog.get_rep("W3", "rho_w")
    h3 = catalog.heisenberg(3).rep("theta1")
    s3_std = catalog.symmetric(3).rep("std")
    gam = catalog.gamma_d(7, 9, 2)
    return {
        "W3:rho_w gassmann(1)": lambda: vf.holds_guarded(
            idf.gassmann_identity(w3, 1), w3, seed=2, orderings=1),
        "H3:theta1 spectrum": lambda: vf.holds_guarded(
            idf.spectrum_identity(h3), h3, seed=3, orderings=3),
        "S3:std dimension(6,1)": lambda: vf.holds_guarded(
            idf.dimension_identity(6, 1), s3_std, seed=4, orderings=2),
        "gamma(7,9,2) gamma-sep on pi(1,2)": lambda: vf.holds_guarded(
            idf.gamma_separating_identity(gam, 1), gam.rep("pi(1,2)"), seed=5, orderings=1),
    }


def test_psi_verdict_json_pinned():
    pinned = json.loads((Path(__file__).parent / "data" / "psi_verdicts_pinned.json")
                        .read_text())
    cases = _psi_pinned_cases()
    assert list(cases) == list(pinned)
    for name, run in cases.items():
        assert json.dumps(_verdict_json(run())) == json.dumps(pinned[name]), name


def test_parallel_exhaustive_reports_undecided():
    """Workers' undecided counts reach the verdict: --jobs 2 reports what
    --jobs 1 does."""
    z2 = catalog.cyclic(2).rep("chi1")
    # a streamed product that cannot be decided where x is not the identity
    expr = _undecided_stream(sub(var("x"), const(1)))
    doc = idf.IdentityDoc("test", expr, {}, {}, "undecided")
    serial = _verdict_json(vf.holds_exhaustive(doc, z2, budget=100))
    parallel = _verdict_json(vf.holds_exhaustive(doc, z2, budget=100, jobs=2))
    assert serial == {"status": "holds", "evidence": "exhaustive", "assignments": 2,
                      "undecided": 1}
    assert parallel.pop("jobs") == 2
    assert parallel == serial


def test_parallel_exhaustive_witness_matches_serial(z3_chi):
    """--jobs 2 reports the serial run's fails witness: the failing range
    with the lowest start wins, whatever order the workers finish in."""
    doc = idf.guard_C(3)
    serial = _verdict_json(vf.holds_exhaustive(doc, z3_chi, budget=10**4))
    for _ in range(3):
        parallel = _verdict_json(vf.holds_exhaustive(doc, z3_chi, budget=10**4, jobs=2))
        assert parallel.pop("jobs") == 2
        assert parallel == serial


def test_parallel_exhaustive_of_planned_sums_matches_serial(s3_std):
    """s3 and s4 are planned word sums: --jobs 2 gives the serial verdict
    JSON, the holding s4 (Amitsur-Levitzki in degree 2) and the failing s3
    with its witness."""
    for k, status in ((3, "fails"), (4, "holds")):
        doc = idf.standard_identity(k)
        serial = _verdict_json(vf.holds_exhaustive(doc, s3_std, budget=10**4))
        parallel = _verdict_json(vf.holds_exhaustive(doc, s3_std, budget=10**4, jobs=2))
        assert doc.expr._plan is not None
        assert serial["status"] == status
        assert parallel.pop("jobs") == 2
        assert parallel == serial


def test_parallel_exhaustive_separator_heavy_matches_serial(s3_std):
    """Each worker walks its own window of the serial order and skips what
    vanishes there: x^3 on H3:theta1 (two separators around one value)
    holds over all 27^3 assignments, and a^2 on S3:std, where a sorts
    before the separators, fails at its first 3-cycle, the first assignment
    of the second window."""
    theta1 = catalog.heisenberg(3).rep("theta1")
    cube = idf.disjunctive_identity([power(var("x"), 3)])
    serial = _verdict_json(vf.holds_exhaustive(cube, theta1))
    assert serial == {"status": "holds", "evidence": "exhaustive", "assignments": 19683}
    parallel = _verdict_json(vf.holds_exhaustive(cube, theta1, jobs=2))
    assert parallel.pop("jobs") == 2
    assert parallel == serial
    square = idf.disjunctive_identity([power(var("a"), 2)])
    serial = _verdict_json(vf.holds_exhaustive(square, s3_std))
    assert serial["status"] == "fails" and serial["witness"] == {"a": 3, "u0": 0, "u1": 0}
    assert 3 * 6 ** 2 == 6 ** 3 // 2  # the witness's index starts the second window
    parallel = _verdict_json(vf.holds_exhaustive(square, s3_std, jobs=2))
    assert parallel.pop("jobs") == 2
    assert parallel == serial


def _separators(doc) -> list[str]:
    """The separators of doc in root order, read off the root product by
    their definition: a variable, not a guard, that is a root factor
    exactly once and that no other root factor reads."""
    roots = doc.expr.children if doc.expr.kind == "prod" else [doc.expr]
    bare = [f.value for f in roots if f.kind == "var"]
    read = set().union(*[f.free_vars() for f in roots if f.kind != "var"])
    guards = {v for names in doc.guards.values() for v in names}
    return [v for v in bare if bare.count(v) == 1 and v not in read | guards]


def _enumerated_exhaustive(doc, rep) -> dict:
    """The exhaustive verdict JSON (timing aside) by brute force on
    `freeexpr.reference_eval` over all m^n assignments: the document fails
    at the first read tuple (values of the variables other than the
    separators, last name fastest) under which some separator values make
    it nonzero.  The witness gives each separator, in root order, the first
    value under which some values of the later ones keep it nonzero, as the
    separator decision does; its keys are sorted."""
    m, names, slots = rep.group.order, sorted(doc.expr.free_vars()), _separators(doc)
    images = [rep.image(g) for g in range(m)]

    def nonzero(assignment, free) -> bool:
        """Some values of the names in free keep the value nonzero."""
        for values in itertools.product(range(m), repeat=len(free)):
            full = {**assignment, **dict(zip(free, values))}
            value = reference_eval(doc.expr, {v: images[g] for v, g in full.items()}, rep.dim)
            if not value.is_zero():
                return True
        return False

    verdict = {"status": "holds", "evidence": "exhaustive", "assignments": m ** len(names)}
    read = [name for name in names if name not in slots]
    for values in itertools.product(range(m), repeat=len(read)):
        assignment = dict(zip(read, values))
        if nonzero(assignment, slots):
            for i, slot in enumerate(slots):
                assignment[slot] = next(u for u in range(m)
                                        if nonzero({**assignment, slot: u}, slots[i + 1:]))
            return {**verdict, "status": "fails", "witness": dict(sorted(assignment.items()))}
    return verdict


def _d4_dim2():
    """The 2-dim rep of the order-8 dihedral group: the reflections in
    perpendicular mirrors make (s - 1)(t - 1) vanish, while (s - 1) u (t - 1)
    does not for u a quarter turn, so a separator decides a product."""
    from repident.matrices import Mat
    from repident.replab import Rep

    quarter = Mat(tuple(tuple(Cyc.from_rational(v) for v in row) for row in ((0, -1), (1, 0))))
    mirror = Mat(tuple(tuple(Cyc.from_rational(v) for v in row) for row in ((1, 0), (0, -1))))
    group, images = catalog.matrix_group([quarter, mirror], 1, "D4")
    return Rep(group, images, name="D4:dim2")


_SOURCE_REPS = {
    "D4:dim2": _d4_dim2,
    "S3:std": lambda: catalog.symmetric(3).rep("std"),
    "S3:sign": lambda: catalog.symmetric(3).rep("sign"),
    "Q8:dim2": lambda: catalog.quaternion().rep("dim2"),
    "Z3^2:reducible": lambda: catalog.abelian_rep(3, 2, 2, [[1, 0], [0, 1]]),
}

# value variables that sort before the separators u0, u1, u2 ("a"),
# between them ("u0a", "u1a") and after them ("z")
_letters = st.sampled_from(["a", "u0a", "u1a", "z"])
_words = st.lists(st.tuples(_letters, st.sampled_from([-1, 1, 2, 3, 4, 6])),
                  min_size=1, max_size=2)


@settings(max_examples=60, deadline=None)
@given(clauses=st.lists(_words, min_size=1, max_size=2),
       rep_name=st.sampled_from(sorted(_SOURCE_REPS)))
def test_exhaustive_source_matches_enumeration(clauses, rep_name):
    """The exhaustive source walks the read tuples and decides the
    separators: on disjunctive documents, with value variables on every
    side of the separators, the verdict JSON (timing aside) is that of the
    brute-force enumeration, witness included."""
    rep = _SOURCE_REPS[rep_name]()
    words = [prod([power(var(n), e) for n, e in word]) for word in clauses]
    doc = idf.disjunctive_identity(words)
    assume(rep.group.order ** len(doc.expr.free_vars()) <= 5000)
    expected = _enumerated_exhaustive(doc, rep)
    event(expected["status"])
    assert _verdict_json(vf.holds_exhaustive(doc, rep)) == expected


def _separator_decided_doc():
    """On D4, a^2 + 1 vanishes at the quarter turns and a - 1, a + 1 at the
    two central elements, so no root factor vanishes at a reflection s;
    there (s - 1)(s + 1) = 0 with v2 the identity, but not with v2 a
    quarter turn, so only a later separator value fails the document."""
    return idf.IdentityDoc(
        "test", prod([sum_([power(var("a"), 2), const(1)]), var("v1"), sub(var("a"), const(1)),
                      var("v2"), sum_([var("a"), const(1)])]),
        {}, {}, "separator-decided product")


def test_exhaustive_source_matches_enumeration_on_fixed_documents():
    """Holds and fails, minimal polynomials of both variants, a reducible
    rep and a product that only a later separator value fails: the verdict
    JSON (timing aside) is the brute-force enumeration's.  Undecided
    streamed products, with and without a separator, count m ** (number of
    separators) undecided assignments per undecided read tuple."""
    s3, tau = catalog.symmetric(3).rep("std"), catalog.alternating(4).rep("tau")
    rho4, z2 = catalog.symmetric(4).rep("rho4"), catalog.cyclic(2).rep("chi1")
    reducible, d4 = _SOURCE_REPS["Z3^2:reducible"](), _d4_dim2()
    x = var("x")
    cases = [
        (idf.disjunctive_identity([power(x, 6)]), s3, "holds"),
        (idf.disjunctive_identity([power(x, 3)]), s3, "fails"),
        (idf.disjunctive_identity([power(x, 3), power(var("a"), 2)]), reducible, "holds"),
        (idf.minimal_poly_identity(tau, "maximal"), tau, "holds"),
        (idf.minimal_poly_identity(tau, "union"), tau, "holds"),
        (idf.minimal_poly_identity(tau, "maximal"), rho4, "fails"),
        (_separator_decided_doc(), d4, "fails"),
    ]
    for doc, rep, status in cases:
        expected = _enumerated_exhaustive(doc, rep)
        assert expected["status"] == status
        assert _verdict_json(vf.holds_exhaustive(doc, rep)) == expected, doc
    stream = _undecided_stream(sub(x, const(1)))
    undecided = idf.IdentityDoc("test", stream, {}, {}, "undecided")
    separated = idf.IdentityDoc("test", prod([var("u"), stream]), {}, {},
                                "undecided and separated")
    # x = 1 is undecided, alone and under each of u = 0, 1
    for doc, undecided_count in ((undecided, 1), (separated, 2)):
        assert _verdict_json(vf.holds_exhaustive(doc, z2)) == {
            "status": "holds", "evidence": "exhaustive",
            "assignments": 2 ** len(doc.expr.free_vars()), "undecided": undecided_count}


def _brute_force_cases():
    """(label, document, rep) with separators, on Z2, Z3, S3:std and
    D4:dim2 wherever the brute force costs at most 2,500 assignments, and
    a reducible rep with its own document."""
    s3, d4 = catalog.symmetric(3).rep("std"), _d4_dim2()
    reps = {"Z2": catalog.cyclic(2).rep("chi1"), "Z3": catalog.cyclic(3).rep("chi1"),
            "S3:std": s3, "D4:dim2": d4}
    x, a, y = var("x"), var("a"), var("y")
    comm = prod([inv(x), inv(y), x, y])
    docs = {
        "guard_C(3)": idf.guard_C(3),
        "x^2": idf.disjunctive_identity([power(x, 2)]),
        "x^3": idf.disjunctive_identity([power(x, 3)]),
        "x^2 | a^3": idf.disjunctive_identity([power(x, 2), power(a, 3)]),
        "[x, y]": idf.disjunctive_identity([comm]),
        "min-poly S3 maximal": idf.minimal_poly_identity(s3, "maximal"),
        "min-poly S3 union": idf.minimal_poly_identity(s3, "union"),
        "min-poly D4 maximal": idf.minimal_poly_identity(d4, "maximal"),
        "separator-decided": _separator_decided_doc(),
    }
    cases = [(f"{doc_name} on {rep_name}", doc, rep)
             for doc_name, doc in docs.items() for rep_name, rep in reps.items()
             if rep.group.order ** len(doc.expr.free_vars()) <= 2500]
    # on diag(zeta^a, zeta^b) over Z3^2, (x - 1) v (z - 1) vanishes for
    # every v where x - 1 and z - 1 have no nonzero coordinate in common
    one = const(1)
    cases.append(("(x - 1) v (z - 1) on Z3^2:reducible",
                  idf.IdentityDoc("test", prod([sub(x, one), var("v"), sub(var("z"), one)]),
                                  {}, {}, "reducible"),
                  _SOURCE_REPS["Z3^2:reducible"]()))
    return cases


def test_exhaustive_source_matches_brute_force():
    """On documents with separators, the exhaustive verdict walks only the
    read tuples and decides the separators, yet its status is that of a
    `reference_eval` enumeration of all m^n assignments, every fails
    witness re-evaluates nonzero, and serial and --jobs 2 agree."""
    statuses = set()
    for label, doc, rep in _brute_force_cases():
        serial = _verdict_json(vf.holds_exhaustive(doc, rep))
        assert serial["status"] == _enumerated_exhaustive(doc, rep)["status"], label
        statuses.add(serial["status"])
        if serial["status"] == "fails":
            witness = {v: rep.image(g) for v, g in serial["witness"].items()}
            assert not reference_eval(doc.expr, witness, rep.dim).is_zero(), label
        parallel = _verdict_json(vf.holds_exhaustive(doc, rep, jobs=2))
        assert parallel.pop("jobs") == 2
        assert parallel == serial, label
    assert statuses == {"holds", "fails"}


def test_exhaustive_source_windows_match_enumeration(s3_std):
    """Each window [start, stop) of the serial order of read tuples, as a
    worker walks it, yields exactly those tuples of the window on which the
    root factor scan finds no vanishing factor, in order, each with every
    separator at the identity, whether the value variable sorts before,
    between or after the separators."""
    for name in ("a", "u0a", "z"):
        doc = idf.disjunctive_identity([power(var(name), 2)])
        names = sorted(doc.expr.free_vars())
        reference = vf._Session(doc, s3_std)
        survivors = [(x, {n: x if n == name else 0 for n in names}) for x in range(6)]
        survivors = [(x, a) for x, a in survivors
                     if reference.scan_factors(a, reference.tables.value_factors) != vf.VANISHES]
        assert [x for x, _ in survivors] == [3, 4]  # the two 3-cycles
        for start in range(6):
            for stop in range(start + 1, 7):
                session = vf._Session(doc, s3_std)
                walked = [a for a, _ in vf._exhaustive_decisions(session, names, start, stop)]
                assert walked == [a for x, a in survivors if start <= x < stop], \
                    (name, start, stop)
                assert list(walked[0]) == names if walked else True


def test_exhaustive_source_raises_where_the_enumeration_does(monkeypatch):
    """A value part whose scan raises is never skipped: the walk raises the
    brute-force enumeration's exception, at the first assignment where
    `reference_eval` raises.  On Z3, (a - 1)(a - w) vanishes for a = 0, 1,
    and inv(a - w^2) has no inverse at a = 2."""
    from repident.freeexpr import NonGroupSubtermError

    rep = catalog.cyclic(3).rep("chi1")
    w, a = cyc_root_of_unity(3, 1), var("a")
    vanishes_below_2 = sum_([power(a, 2), prod([const(-(Cyc.one() + w)), a]), const(w)])
    expr = prod([var("u0"), vanishes_below_2, var("u1"), inv(sub(a, const(w * w)))])
    doc = idf.IdentityDoc("test", expr, {}, {}, "raises at a = 2")

    def evaluate(assignment):
        return reference_eval(expr, {v: rep.image(g) for v, g in assignment.items()}, 1)

    first = {"a": 2, "u0": 0, "u1": 0}
    assert all(evaluate(assignment).is_zero()
               for assignment in vf._all_assignments(["a", "u0", "u1"], 3, 27)
               if assignment["a"] < 2)
    with pytest.raises(NonGroupSubtermError):
        evaluate(first)
    with pytest.raises(NonGroupSubtermError):
        _enumerated_exhaustive(doc, rep)
    scanned = []
    scan = vf._Session.scan_factors

    def recording_scan(self, assignment, factors, keys=None):
        scanned.append(dict(assignment))
        return scan(self, assignment, factors, keys)

    monkeypatch.setattr(vf._Session, "scan_factors", recording_scan)
    with pytest.raises(NonGroupSubtermError):
        vf.holds_exhaustive(doc, rep)
    assert scanned[-1] == first


def test_exhaustive_source_skips_vanishing_separator_subtrees(monkeypatch):
    """The walk never descends into a separator's subtree: it scans each
    read tuple once, with every separator at the identity, and hands its
    scan to the decision.  x^3 on H3:theta1 has 27^3 assignments but one
    read name: 27 scans, and no assignment goes on to a decision past the
    scan.  An undecided streamed factor after a separator is evaluated once
    per read tuple."""
    theta1, z2 = catalog.heisenberg(3).rep("theta1"), catalog.cyclic(2).rep("chi1")
    cube = idf.disjunctive_identity([power(var("x"), 3)])
    stream = _undecided_stream(sub(var("x"), const(1)))
    separated = idf.IdentityDoc("test", prod([var("u"), stream]), {}, {},
                                "undecided and separated")
    scanned, settled = [], []
    scan, settle = vf._Session.scan_factors, vf._Session.settle

    def counting_scan(self, assignment, factors, keys=None):
        scanned.append(dict(assignment))
        return scan(self, assignment, factors, keys)

    def counting_settle(self, assignment, outcome, weight=1):
        settled.append(assignment)
        return settle(self, assignment, outcome, weight)

    monkeypatch.setattr(vf._Session, "scan_factors", counting_scan)
    monkeypatch.setattr(vf._Session, "settle", counting_settle)
    assert _verdict_json(vf.holds_exhaustive(cube, theta1)) == {
        "status": "holds", "evidence": "exhaustive", "assignments": 19683}
    assert scanned == [{"u0": 0, "u1": 0, "x": x} for x in range(27)] and not settled
    scanned.clear()
    assert vf.holds_exhaustive(separated, z2).holds
    assert scanned == [{"u": 0, "x": 0}, {"u": 0, "x": 1}]


def test_exhaustive_source_scans_each_assignment_once(monkeypatch):
    """With no separator (s4 on S3:std) every name is read, so the walk
    scans every assignment exactly once, as the plain enumeration does."""
    s3 = catalog.symmetric(3).rep("std")
    four = idf.standard_identity(4)
    scanned = []
    scan = vf._Session.scan_factors

    def counting_scan(self, assignment, factors, keys=None):
        scanned.append(dict(assignment))
        return scan(self, assignment, factors, keys)

    monkeypatch.setattr(vf._Session, "scan_factors", counting_scan)
    assert vf.holds_exhaustive(four, s3).holds
    assert scanned == list(vf._all_assignments(["y1", "y2", "y3", "y4"], 6, 6 ** 4))


def test_sampled_mode_draws_only_what_the_factors_read(monkeypatch):
    """guard_C(28) on H3:theta1 has 407 variables, and its root value
    factors read the 28 guards: 150 samples draw 4,200 values, not 61,050.
    s6 has no separator, so it draws every variable as before, and its
    witness on A5:dim4 at seed 3 is the one drawing every variable gave."""
    theta1, dim4 = catalog.heisenberg(3).rep("theta1"), catalog.alternating(5).rep("dim4")
    draws = []
    randrange = random.Random.randrange

    def counting_randrange(self, *args, **kwargs):
        draws.append(args)
        return randrange(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "randrange", counting_randrange)
    guard28 = idf.guard_C(28)
    assert len(guard28.expr.free_vars()) == 407
    assert vf.holds_sampled(guard28, theta1, n=150, seed=1).holds
    assert draws == [(27,)] * 4200
    verdict = vf.holds_sampled(idf.standard_identity(6), dim4, n=10, seed=3)
    assert verdict.counterexample == {"y1": 15, "y2": 37, "y3": 34, "y4": 8, "y5": 23,
                                      "y6": 58}


def _no_root_factor_vanishes(doc, rep, witness) -> bool:
    """A no-vanishing-factor witness re-validates: under it, a fresh
    evaluator finds every root factor nonzero, a streamed one by certifying
    it nonvanishing."""
    from repident.freeexpr import StreamNonvanishing

    for f in doc.expr.children if doc.expr.kind == "prod" else [doc.expr]:
        ev = Evaluator(rep)
        try:
            if ev._is_zero(ev.evaluate_value(f, witness)):
                return False
        except StreamNonvanishing:
            pass
    return True


def test_streamed_product_witness_is_labelled_alike_in_every_mode(s3_std):
    """A streamed product certified nonvanishing fails with a
    no-vanishing-factor witness whether the assignments are enumerated
    (serially or over workers) or sampled: no mode reports its unevaluable
    value as a plain witness."""
    expr = prod([stream_subsets([sub(var("x"), const(1))], 1, "s"), var("u")])
    doc = idf.IdentityDoc("test", expr, {}, {}, "streamed product")
    kind = ("no-vanishing-factor (streamed product; nonzero by simplicity "
            "with fresh separators)")
    exhaustive = _verdict_json(vf.holds_exhaustive(doc, s3_std))
    assert exhaustive == {"status": "fails", "evidence": "structured", "assignments": 36,
                          "witness_kind": kind, "witness": {"u": 0, "x": 1}}
    parallel = _verdict_json(vf.holds_exhaustive(doc, s3_std, jobs=2))
    assert parallel.pop("jobs") == 2
    assert parallel == exhaustive
    sampled = _verdict_json(vf.holds_sampled(doc, s3_std, seed=0))
    assert (sampled["evidence"], sampled["witness_kind"]) == ("structured", kind)
    for verdict in (exhaustive, sampled):
        assert _no_root_factor_vanishes(doc, s3_std, verdict["witness"])


def test_structured_samples_only_when_the_family_does_not_fit(s3_std, monkeypatch):
    """A family that fits the group is the whole evidence of a structured
    verdict. On a group it does not fit the family is empty, and the verdict
    is holds_sampled at seed + 1 with extra_samples (check's n) samples."""
    q8 = catalog.get_rep("Q8", "dim2")
    h3 = catalog.heisenberg(3).rep("theta1")
    rho4 = catalog.symmetric(4).rep("rho4")
    cls, series = idf.class_identity(q8), idf.central_series_gassmann_identity(q8, 1, 1)
    # about one sample in a thousand of the Q8 class identity on H3 has no
    # vanishing factor: 200 samples at seed 1 miss it, 1000 find it
    assert _verdict_json(vf.holds_structured(cls, h3, seed=0)) == {
        "status": "holds", "evidence": "sampled", "n": 200, "seed": 1, "undecided": 22}
    for doc, rep, n in ((cls, h3, 1000), (series, rho4, 200)):
        verdict = _verdict_json(vf.holds_structured(doc, rep, seed=0, extra_samples=n))
        assert verdict == _verdict_json(vf.holds_sampled(doc, rep, n=n, seed=1))
        assert verdict["status"] == "fails"
        assert verdict["witness_kind"].startswith("no-vanishing-factor")
        assert _no_root_factor_vanishes(doc, rep, verdict["witness"])
    assert _verdict_json(vf.holds_structured(cls, rho4, seed=0)) == {
        "status": "holds", "evidence": "sampled", "n": 200, "seed": 1, "undecided": 37}
    assert _verdict_json(vf.check(cls, rho4, mode="structured", seed=0, n=20)) == \
        _verdict_json(vf.holds_sampled(cls, rho4, n=20, seed=1))

    def no_sampling(*args, **kwargs):
        raise AssertionError("a fitting family was sampled")

    decided = []
    decide = vf._Session.decide

    def recorded_decide(session, assignment):
        decided.append(assignment)
        return decide(session, assignment)

    monkeypatch.setattr(vf, "holds_sampled", no_sampling)
    monkeypatch.setattr(vf._Session, "decide", recorded_decide)
    for doc, rep, source in ((cls, q8, vf._class_assignments),
                             (series, q8, vf._series_assignments),
                             (idf.class_identity(s3_std), s3_std, vf._class_assignments)):
        decided.clear()
        assert _verdict_json(vf.holds_structured(doc, rep, seed=0)) == {
            "status": "holds", "evidence": "structured", "seed": 0, "orderings": 3}
        # every assignment of the family is decided, the first one included
        assert decided == list(source(doc, vf._Session(doc, rep, 0), 3))


def test_witness_search_falls_back_to_exact_on_a_false_modular_zero(s3_std, monkeypatch):
    """A factor p (1 - x) is nonzero but vanishes mod p, the prime of the
    witness search: every candidate from it on is zero mod p, so the search
    decides it exactly and returns the witness exact arithmetic chooses."""
    from repident.matrices import Mat

    p = s3_std.images_mod_p[0].p
    x = var("x")
    plus, minus = sum_([const(1), x]), sub(const(p), smul(p, x))
    # (1 + x) rho(u) p (1 - x) rho(w) (1 + x): u = 0 gives p (1 - x^2) = 0
    expr = prod([plus, var("u"), minus, var("w"), plus])
    doc = idf.IdentityDoc("test", expr, {}, {}, "false modular zero")
    t = next(g for g in range(6) if s3_std.group.element_order(g) == 2)
    session = vf._Session(doc, s3_std, seed=0)
    tested = []
    is_zero = Mat.is_zero

    def spy(mat):
        tested.append(is_zero(mat))
        return tested[-1]

    monkeypatch.setattr(Mat, "is_zero", spy)
    witness = session.witness_value({"x": t, "u": 0, "w": 0})
    monkeypatch.undo()
    # the greedy choice in exact arithmetic
    a, b = (session.ev.evaluate(f, {"x": t}) for f in (plus, minus))
    u = next(g for g in range(6) if not (a * s3_std.image(g) * b).is_zero())
    prefix = a * s3_std.image(u) * b
    w = next(g for g in range(6) if not (prefix * s3_std.image(g) * a).is_zero())
    assert u > 0
    assert witness == {"x": t, "u": u, "w": w}
    # every candidate from u = 0 on was tested exactly; the prefix stayed exact
    assert tested == [True] * u + [False] + [True] * w + [False]


def test_s4_separation_witness_is_decided_modulo_p(monkeypatch):
    """s4-sep of rho5 fails on S4:rho4 (guarded, four orderings).  Every
    slot of its witness search takes a candidate whose image mod p is
    nonzero: no exact matrix product is made and no recorded factor is
    multiplied out, and the witness, with x of order 4, is the one of exact
    arithmetic alone."""
    s4 = catalog.symmetric(4)
    rep, doc = s4.rep("rho4"), idf.s4_separating_identity(s4.rep("rho5"))
    calls = []
    mul, catch_up = Mat.__mul__, vf._Prefix._catch_up
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(vf._Prefix, "_catch_up",
                        lambda prefix: calls.append("catch-up") or catch_up(prefix))
    verdict = vf.holds_guarded(doc, rep, seed=0, orderings=4)
    monkeypatch.undo()
    assert verdict.status == "fails" and not calls
    witness = verdict.counterexample
    assert _exact_greedy(vf._Session(doc, rep), witness) == witness
    assert rep.group.element_order(witness["x"]) == 4
    images = {name: rep.image(g) for name, g in witness.items()}
    assert not reference_eval(doc.expr, images, rep.dim).is_zero()


def _zero_modular_pass(monkeypatch):
    """Make every candidate image mod p of one slot of each witness search
    read zero, as false zeros would: the k-th slot that tests images, k
    the entry of the returned list.  The second list records (slot number,
    zeroed) per slot that tests images."""
    extend, mat_mul_mod = vf._Prefix.extend, vf.mat_mul_mod
    slot, passes, zeroing = [0], [], [False]

    def spy_extend(prefix, f):
        if prefix.pending is None or prefix.mod is None:
            return extend(prefix, f)
        prefix.passes = getattr(prefix, "passes", 0) + 1
        passes.append((prefix.passes, prefix.passes == slot[0]))
        zeroing[0] = passes[-1][1]
        try:
            return extend(prefix, f)
        finally:
            zeroing[0] = False

    def spy_mul(a, b, p):
        product = mat_mul_mod(a, b, p)
        return tuple((0,) * len(row) for row in product) if zeroing[0] else product

    monkeypatch.setattr(vf._Prefix, "extend", spy_extend)
    monkeypatch.setattr(vf, "mat_mul_mod", spy_mul)
    return slot, passes


@pytest.mark.parametrize("name", ["s4-separation of rho5 on rho4",
                                  "s4-separation of rho4 on rho5", "S3 dimension n=3"])
def test_a_slot_without_a_nonzero_image_is_decided_exactly(name, monkeypatch):
    """When every candidate of one slot has a zero image mod p, that slot
    is decided in exact arithmetic: the recorded factors are multiplied
    out, the slot takes the first u whose exact product is nonzero, and
    the product is carried exactly until a factor of rank 1 resets it.
    The witness is then still the one of exact arithmetic alone."""
    doc, rep, args, combos = _nonvanishing_arguments(name)
    assignment = {v: i for vars_ in doc.guards.values() for i, v in enumerate(vars_)}
    assignment.update(zip(args, combos[-1]))
    session = vf._Session(doc, rep)
    greedy = _exact_greedy(session, assignment)
    assert greedy is not None
    slot, passes = _zero_modular_pass(monkeypatch)
    assert session.witness_value(assignment) == greedy  # no pass zeroed
    count = len(passes)
    assert count > 1
    catch_up, caught = vf._Prefix._catch_up, []
    monkeypatch.setattr(vf._Prefix, "_catch_up",
                        lambda prefix: caught.append(1) or catch_up(prefix))
    for k in sorted({1, 2, count // 2, count}):
        slot[0], passes[:], caught[:] = k, [], []
        assert session.witness_value(assignment) == greedy
        assert (k, True) in passes and caught


def test_a_slot_decided_exactly_on_a_reducible_rep_matches_brute_force(monkeypatch):
    """On the S3 permutation rep, random separated products of word sums
    with the candidates of one slot zeroed mod p reach the separator
    decision of brute force (`_assert_brute_force_decision`)."""
    rep = _decision_rep("S3:perm")
    slot, passes = _zero_modular_pass(monkeypatch)

    @settings(max_examples=120, deadline=None)
    @given(expr=_separated_products(split=True), x=st.integers(0, 5), z=st.integers(0, 5),
           data=st.data())
    def decide(expr, x, z, data):
        doc = idf.IdentityDoc("test", expr, {}, {}, "separated product")
        session = vf._Session(doc, rep)
        values = {"x": x, "z": z}
        assignment = {name: values.get(name, 0) for name in expr.free_vars()}
        assert len(session.tables.blocks) > 1
        assume(session.scan_factors(assignment, session.tables.value_factors) != vf.VANISHES)
        k = data.draw(st.integers(1, len(session.tables.blocks) - 1))
        slot[0], passes[:] = k, []
        outcome = session.witness_value(assignment)
        event("a slot decided exactly" if (k, True) in passes else "no pass zeroed")
        _assert_brute_force_decision(doc, rep, assignment, outcome)

    decide()


def test_fixed_point_free_guard_costs_no_product(monkeypatch):
    """Every guard difference of gamma(7,9,2):pi(1,2) is invertible, so the
    witness search of the gamma-sep fails verdict multiplies nothing through
    its 1,953 differences: the three factors after them form one block,
    whose factor becomes the prefix, so no product mod p is made at all."""
    gam = catalog.gamma_d(7, 9, 2)
    rep = gam.rep("pi(1,2)")
    assert rep.is_fixed_point_free()
    products = []
    mat_mul_mod = vf.mat_mul_mod

    def spy(a, b, p):
        products.append(1)
        return mat_mul_mod(a, b, p)

    monkeypatch.setattr(vf, "mat_mul_mod", spy)
    verdict = vf.holds_guarded(idf.gamma_separating_identity(gam, 1), rep, seed=1, orderings=1)
    assert verdict.status == "fails" and not products


def test_prefix_keeps_one_row_of_a_rank_one_product_only():
    """Rule 3 of `_Prefix`, on the image mod p: the image of a product of
    exact rank 1 keeps its first nonzero row, the image of that row of the
    exact product, and zeros elsewhere, so it keeps its row space; the
    image of a product of larger rank is kept whole.  Products (rho(g) -
    I)(rho(h) - I) on W3's 3-dimensional rho_w have every rank from 1 to
    3."""
    from repident.freeexpr import _M
    from repident.matrices import Mat, rref

    rep = catalog.get_rep("W3", "rho_w")
    ev, identity = Evaluator(rep), Mat.identity(rep.dim)
    p = rep.images_mod_p[0].p
    ranks = set()
    for g, h in itertools.product(range(0, rep.group.order, 5), repeat=2):
        product = (rep.image(g) - identity) * (rep.image(h) - identity)
        pivots = rref([list(row) for row in product.rows])[1]
        if not pivots:
            continue
        ranks.add(len(pivots))
        mod = ev._mod_p((_M, product))
        kept = vf._one_row(mod, p)
        if len(pivots) > 1:
            assert kept is mod
            continue
        nonzero = [i for i, row in enumerate(product.rows) if any(not v.is_zero() for v in row)]
        i = nonzero[0]
        assert kept == tuple(row if k == i else (0,) * rep.dim for k, row in enumerate(mod))
        assert any(kept[i]) and vf._one_row(kept, p) is kept
    assert ranks == {1, 2, 3}


def _exact_greedy(session, assignment: dict) -> dict | None:
    """Greedy separator search in exact arithmetic alone: every factor
    evaluated and every candidate product an exact Mat product, with no
    reduction mod p and no row space; each slot takes the first u keeping
    the product nonzero, and the search gives up (None) at a factor that
    no u keeps nonzero."""
    rep, tables = session.rep, session.tables
    assign = {**assignment, **dict.fromkeys(tables.sep_list, 0)}
    prefix = None
    for child, slot in zip(tables.value_factors, tables.slots):
        f = session.ev.evaluate(child, assign)
        if prefix is None or slot is None:
            prefix = f if prefix is None else prefix * f
            if prefix.is_zero():
                return None
            continue
        for u in range(rep.group.order):
            cand = prefix * rep.image(u) * f
            if not cand.is_zero():
                break
        else:
            return None
        prefix, assign[slot] = cand, u
    return assign


def _first_nonzero_separators(doc, rep, assignment: dict) -> dict | None:
    """Brute force over every value of every separator, in the order of the
    root product: the values, first in lexicographic order, that keep the
    product nonzero, or None when every choice makes it vanish.  Each value
    factor is evaluated once with `reference_eval`; a partial product at a
    position where the same product already had no nonzero completion is
    not extended again."""
    seps = vf._doc_tables(doc).separators
    images = {name: rep.image(g) for name, g in assignment.items() if name not in seps}
    roots = doc.expr.children if doc.expr.kind == "prod" else (doc.expr,)
    steps = [f.value if f.kind == "var" and f.value in seps
             else reference_eval(f, images, rep.dim) for f in roots]
    dead: set = set()

    def search(i: int, product):
        if product.is_zero():
            return None
        if i == len(steps):
            return {}
        key = (i, json.dumps(product.to_json()))
        if key not in dead:
            step = steps[i]
            if isinstance(step, str):
                for u in range(rep.group.order):
                    found = search(i + 1, product * rep.image(u))
                    if found is not None:
                        return {step: u, **found}
            else:
                found = search(i + 1, product * step)
                if found is not None:
                    return found
            dead.add(key)
        return None

    return search(0, Mat.identity(rep.dim))


def _assert_brute_force_decision(doc, rep, assignment: dict, outcome) -> None:
    """outcome, the separator decision, is None exactly when brute force
    finds no separators keeping the product nonzero, and otherwise takes
    brute force's first such separators and re-evaluates to nonzero."""
    first = _first_nonzero_separators(doc, rep, assignment)
    if first is None:
        assert outcome is None
        return
    seps = vf._doc_tables(doc).separators
    assert outcome is not None and {s: outcome[s] for s in seps} == first
    images = {name: rep.image(g) for name, g in outcome.items()}
    assert not reference_eval(doc.expr, images, rep.dim).is_zero()


def _witness_cases():
    """Documents with guard differences of every exact rank, on reps where
    the row-space prefix skips (fixed-point free), resets (rank-one
    differences) and shrinks (rank-one products) the witness product; each
    built on first use."""
    s3 = lambda: catalog.symmetric(3).rep("std")  # noqa: E731
    s4 = lambda name: catalog.symmetric(4).rep(name)  # noqa: E731
    gam = lambda: catalog.gamma_d(7, 9, 2)  # noqa: E731
    three = lambda: catalog.abelian_rep(3, 2, 3, [[1, 0], [0, 1], [1, 1]])  # noqa: E731
    return {
        "gamma-sep on pi(1,2)": lambda: (idf.gamma_separating_identity(gam(), 1),
                                         gam().rep("pi(1,2)")),
        "s4-separation of rho4 on rho5": lambda: (idf.s4_separating_identity(s4("rho4")),
                                                  s4("rho5")),
        "s4-separation of rho5 on rho4": lambda: (idf.s4_separating_identity(s4("rho5")),
                                                  s4("rho4")),
        **{f"S3 dimension n={n}": lambda n=n: (idf.dimension_identity(6, n), s3())
           for n in (1, 3, 4)},
        "guard on a reducible Z3^2": lambda: (
            idf.guard_C(9), catalog.abelian_rep(3, 2, 2, [[1, 0], [0, 1]])),
        "short guard and argument on a reducible Z3^2": lambda: (_short_guard_doc(), three()),
    }


def _short_guard_doc():
    """Three guard variables, psi over them, a separator v and x - 1: on a
    reducible rep the search finds a witness on some assignments and gives
    up on others."""
    x = var("x")
    factors, ys = idf.guard_factors(3)
    expr = prod(factors + [idf.psi_expr(x, ys), var("v"), sub(x, const(1))])
    return idf.IdentityDoc("test", expr, {"Y": idf._names(ys)}, {}, "a short guard")


@functools.cache
def _nonvanishing_arguments(name):
    """(document, rep, argument names, the argument values on which no root
    factor that reads an argument vanishes under the identity bijections)."""
    doc, rep = _witness_cases()[name]()
    session = vf._Session(doc, rep)
    assignment = {v: i for vars_ in doc.guards.values() for i, v in enumerate(vars_)}
    args = sorted(doc.expr.free_vars() - assignment.keys() - session.tables.separators)
    factors = [f for f in session.tables.value_factors if f.free_vars() & set(args)]
    combos = []
    for combo in itertools.product(range(rep.group.order), repeat=len(args)):
        assignment.update(zip(args, combo))
        if session.scan_factors(assignment, factors) != vf.VANISHES:
            combos.append(combo)
    return doc, rep, args, combos


@pytest.mark.parametrize("name", list(_witness_cases()))
def test_witness_search_matches_exact_greedy(name):
    """On random assignments where no root factor vanishes (the guards a
    random injection into the group), the witness search returns the
    witness of the greedy search in exact arithmetic alone wherever that
    finds one.  Where it gives up (on the reducible Z3^2 reps), the
    decision is brute force's: no separators keep the product nonzero, or
    the first that do.  (The exact search takes about 2 s on gamma-sep.)"""
    doc, rep, args, combos = _nonvanishing_arguments(name)
    assert combos

    @settings(max_examples=2 if name.startswith("gamma") else 12, deadline=None)
    @given(data=st.data())
    def search(data):
        assignment = {}
        for vars_ in doc.guards.values():
            assignment.update(zip(vars_, data.draw(st.permutations(range(rep.group.order)))))
        assignment.update(zip(args, data.draw(st.sampled_from(combos))))
        session = vf._Session(doc, rep)
        assume(session.scan_factors(assignment, session.tables.value_factors) != vf.VANISHES)
        outcome = session.witness_value(assignment)
        greedy = _exact_greedy(session, assignment)
        event("greedy gives up" if greedy is None else "greedy witness")
        if greedy is None:
            _assert_brute_force_decision(doc, rep, assignment, outcome)
        else:
            assert outcome == greedy

    search()


def _s3_permutation_rep():
    """The 3-dimensional permutation rep of S3, induced from the trivial rep
    of an order-2 subgroup: reducible and not diagonal."""
    from repident.replab import Rep, induced_rep, subgroup_group

    group = catalog.symmetric(3).group
    t = next(g for g in range(group.order) if group.element_order(g) == 2)
    sub_group, sub_map = subgroup_group(group, [0, t])
    trivial = Rep(sub_group, [Mat.identity(1)] * 2, name="trivial")
    return induced_rep(group, [0, t], trivial, sub_map, name="S3:perm")


_DECISION_REPS = {
    "S3:std": lambda: catalog.symmetric(3).rep("std"),
    "Q8:dim2": lambda: catalog.get_rep("Q8", "dim2"),
    "S4:rho4": lambda: catalog.symmetric(4).rep("rho4"),
    "S3:perm": _s3_permutation_rep,
    "S3:sign": lambda: catalog.symmetric(3).rep("sign"),  # kernel A3
    "S4:rho3": lambda: catalog.symmetric(4).rep("rho3"),  # kernel V4
}


@functools.cache
def _decision_rep(name):
    return _DECISION_REPS[name]()


@st.composite
def _separated_products(draw, split: bool = False):
    """A product of 1-4 sums of 2-3 distinct words in x and z (coefficients
    1 or -1, words of length 0-2), with 0-3 fresh separators s1, s2, s3 put
    anywhere between them.  With split, the product has 2-4 sums and s1 goes
    between two of them, so it has two or more blocks: a later separator put
    next to s1 leaves a slot before the sum after it."""
    word = st.sampled_from(["", "x", "z", "xx", "xz", "zx", "zz"])
    factor = st.lists(word, min_size=2, max_size=3, unique=True).flatmap(
        lambda words: st.lists(st.sampled_from([1, -1]), min_size=len(words),
                               max_size=len(words)).map(
            lambda signs: sum_([smul(c, prod([var(v) for v in w]))
                                for c, w in zip(signs, words)])))
    factors = draw(st.lists(factor, min_size=2 if split else 1, max_size=4))
    for k in range(1, draw(st.integers(1 if split else 0, 3)) + 1):
        if split and k == 1:  # between two sums
            at = draw(st.integers(1, len(factors) - 1))
        else:
            at = draw(st.integers(0, len(factors)))
        factors.insert(at, var(f"s{k}"))
    return prod(factors)


@pytest.mark.parametrize("rep_name", list(_DECISION_REPS))
def test_separator_decision_matches_brute_force(rep_name):
    """On random separated products of word sums, at x and z where no
    factor vanishes, the separator decision is None exactly when no value
    of any separator keeps the product nonzero (brute force over every
    value, `reference_eval`), and otherwise brute force's first separators,
    whose product re-evaluates to nonzero.  S3:perm is reducible, so its
    decisions rest on the suffix spaces."""
    rep = _decision_rep(rep_name)
    assert rep.is_irreducible() == (rep_name != "S3:perm")
    m = rep.group.order

    @settings(max_examples=150, deadline=None)
    @given(expr=_separated_products(), x=st.integers(0, m - 1), z=st.integers(0, m - 1))
    def decide(expr, x, z):
        doc = idf.IdentityDoc("test", expr, {}, {}, "separated product")
        session = vf._Session(doc, rep)
        values = {"x": x, "z": z}
        assignment = {name: values.get(name, 0) for name in expr.free_vars()}
        assume(session.scan_factors(assignment, session.tables.value_factors) != vf.VANISHES)
        outcome = session.witness_value(assignment)
        event("vanishes" if outcome is None else "witness")
        _assert_brute_force_decision(doc, rep, assignment, outcome)

    decide()


def _streamed_repros():
    """Two streamed documents whose expansions hold on S3:std: (x - 1) and
    (1 - x) summed over their one 2-subset, and a permutation body over
    constant pairs 1, -1, 1, -1 whose two permutation sums are 0, times x.
    Neither has a vanishing factor off the identity, yet neither may fail:
    x - 1 is not proved psd, and a constant pair is not."""
    x = var("x")
    subsets = stream_subsets([sub(x, const(1)), sub(const(1), x)], 2, "s")
    body = stream_perm_body([2], [const(1), const(-1), const(1), const(-1)])
    return [idf.IdentityDoc("test", subsets, {}, {}, "cancelling subset sum"),
            idf.IdentityDoc("test", prod([body, x]), {}, {}, "cancelling permutation body")]


def _unseparated_repros():
    """Three documents whose expansions hold on S3:std, each with a streamed
    node certified nonvanishing at every x (x is invertible) in a place
    that does not separate it from the rest of the product, with the
    undecided count of each."""
    x, one = var("x"), const(1)
    s = stream_subsets([x], 1, "s")
    return [
        (sub(s, s), 6),
        (stream_subsets([s, sub(x, x)], 1, "o"), 6),
        (prod([prod([sum_([one, x]), sum_([one, x, power(x, 2)])]),
               stream_subsets([sub(one, x)], 1, "s")]), 3),
    ]


def _argument_doc(expr, citation="streamed"):
    return idf.IdentityDoc("test", expr, {}, {}, citation)


def test_streams_without_separation_are_undecided(s3_std):
    """Premise (c): a streamed node is certified only when it raised the
    certificate itself, as a root factor, and the root product separates
    its value factors.  s - s raises it from s inside a difference, the
    outer stream raises it from its base s, and the stream of 1 - x
    follows (1 + x)(1 + x + x^2) with no separator between them, though
    (1 + x)(1 - x) = 0 on a transposition.  Each holds with its undecided
    count, serially and over two workers, as its expansion holds; the
    relation probability of s - s is not decided."""
    for expr, undecided in _unseparated_repros():
        doc = _argument_doc(expr, "unseparated")
        serial = _verdict_json(vf.holds_exhaustive(doc, s3_std))
        parallel = _verdict_json(vf.holds_exhaustive(doc, s3_std, jobs=2))
        assert serial == {"status": "holds", "evidence": "exhaustive", "assignments": 6,
                          "undecided": undecided}
        assert parallel.pop("jobs") == 2
        assert parallel == serial
        assert vf.holds_exhaustive(idf.expand_doc(doc), s3_std).holds
    with pytest.raises(vf.VerifierError):
        vf.relation_probability(_unseparated_repros()[0][0], s3_std)


def test_streams_with_unproved_premises_are_undecided(s3_std):
    """Checked exhaustively on S3:std, serially and over two workers, each
    document holds with every assignment it cannot settle undecided, as its
    expansion holds."""
    for doc, undecided in zip(_streamed_repros(), (5, 6)):
        serial = _verdict_json(vf.holds_exhaustive(doc, s3_std))
        parallel = _verdict_json(vf.holds_exhaustive(doc, s3_std, jobs=2))
        assert serial == {"status": "holds", "evidence": "exhaustive", "assignments": 6,
                          "undecided": undecided}
        assert parallel.pop("jobs") == 2
        assert parallel == serial
        assert vf.holds_exhaustive(idf.expand_doc(doc), s3_std).holds


_STREAM_REPS = {
    "S3:std": lambda: catalog.symmetric(3).rep("std"),
    "Q8:dim2": lambda: catalog.quaternion().rep("dim2"),
    "Z3:reducible": lambda: catalog.abelian_rep(3, 1, 2, [[1], [2]]),
    "Z3^2:reducible": lambda: catalog.abelian_rep(3, 2, 2, [[1, 0], [0, 1]]),
}
_x = var("x")
_atoms = st.sampled_from([_x, inv(_x), power(_x, 2), const(1)])
_coefficients = st.sampled_from([1, -1, 2, cyc_root_of_unity(3, 1), cyc_root_of_unity(4, 1)])
_diffs = st.builds(lambda c1, a1, c2, a2: sum_([smul(c1, a1), smul(c2, a2)]),
                   _coefficients, _atoms, _coefficients, _atoms)


def _gram(u):
    return prod([u, star(u)])


# psd terms, terms that are psd but not proved so, and terms that are not psd
_stream_terms = st.one_of(
    _diffs.map(_gram),
    st.builds(lambda u, w: sum_([_gram(u), _gram(w)]), _diffs, _diffs),
    st.builds(lambda q, u: smul(q, _gram(u)), st.sampled_from([Fraction(1, 2), 3, -1]), _diffs),
    # u star(u) of a scaled word: a scalar
    st.builds(lambda c, k: _gram(smul(c, power(_x, k))), _coefficients, st.sampled_from([1, 2])),
    _diffs,
    st.sampled_from([const(1), const(-1), const(0)]),
)


@st.composite
def _streamed_docs(draw):
    """A subset stream or a permutation body over drawn terms, alone, times
    x, or in a shape that does not separate it: minus itself, a base of a
    stream, or after a drawn term; some cancel as the repros do, so that
    their expansions hold."""
    cancel = draw(st.booleans())
    if draw(st.booleans()):
        bases = draw(st.lists(_stream_terms, min_size=1 if cancel else 2, max_size=2))
        if cancel:
            bases.append(smul(-1, bases[0]))
        node = stream_subsets(bases, draw(st.integers(1, len(bases))), "s")
    elif cancel:
        # pairs a, -a, a, -a: both permutation sums of the group vanish
        a = draw(_stream_terms)
        node = stream_perm_body([2], [a, smul(-1, a), a, smul(-1, a)])
    else:
        sizes = draw(st.sampled_from([[2], [1, 2], [1, 1]]))
        count = sum(k * k for k in sizes)
        pairs = draw(st.lists(_stream_terms, min_size=count, max_size=count))
        node = stream_perm_body(sizes, pairs)
    shape = draw(st.sampled_from(["alone", "times x", "difference", "base", "after"]))
    expr = {
        "alone": lambda: node,
        "times x": lambda: prod([node, _x]),
        "difference": lambda: sub(node, node),
        "base": lambda: stream_subsets([node, sub(_x, _x)], 1, "o"),
        "after": lambda: prod([draw(_stream_terms), node]),
    }[shape]()
    return _argument_doc(expr)


@settings(max_examples=200, deadline=None)
@given(doc=_streamed_docs(), rep_name=st.sampled_from(sorted(_STREAM_REPS)))
@example(doc=_argument_doc(_unseparated_repros()[0][0]), rep_name="S3:std")
@example(doc=_argument_doc(_unseparated_repros()[1][0]), rep_name="S3:std")
@example(doc=_argument_doc(_unseparated_repros()[2][0]), rep_name="S3:std")
def test_streamed_verdicts_never_contradict_their_expansion(doc, rep_name):
    """A streamed document never fails where its expansion holds, and never
    holds with nothing undecided where its expansion fails: its premises
    (every factor nonzero, an irreducible rep, a root product that
    separates its factors) are proved, not assumed."""
    rep = _STREAM_REPS[rep_name]()
    streamed = vf.holds_exhaustive(doc, rep).to_json()
    expanded = vf.holds_exhaustive(idf.expand_doc(doc), rep).to_json()
    event(f"{streamed['status']} / {expanded['status']}")
    if expanded["status"] == "holds":
        assert streamed["status"] == "holds"
    else:
        assert streamed["status"] == "fails" or streamed.get("undecided")


def test_relation_probability_counts_certified_nonvanishing_streams(s3_std):
    # vanishes exactly when x = 1; otherwise certified nonvanishing
    expr = stream_subsets([sub(var("x"), const(1))], 1, "s")
    assert vf.relation_probability(expr, s3_std) == Fraction(1, 6)


def test_conditional_probability_counts_certified_nonvanishing_streams(s3_std):
    u = stream_subsets([sub(var("x"), const(1))], 1, "s")
    v = sub(power(var("x"), 2), const(1))
    assert vf.conditional_relation_probability(u, v, s3_std) == Fraction(1, 4)


def test_relation_probability_rejects_undecided_streams(s3_std):
    expr = _undecided_stream(sub(var("x"), const(1)))
    with pytest.raises(vf.VerifierError):
        vf.relation_probability(expr, s3_std)
    with pytest.raises(vf.VerifierError):
        vf.conditional_relation_probability(expr, var("x"), s3_std)


def test_expectation_rejects_streamed_values(s3_std):
    base = sub(var("x"), const(1))
    for expr in (stream_subsets([base], 1, "s"), _undecided_stream(base)):
        with pytest.raises(vf.VerifierError):
            vf.expectation(expr, s3_std)


def test_separator_decision_is_exact_where_greedy_gives_up(s3_std):
    """The greedy search fixes v at the first u keeping (z - 1) nonzero and
    then has no separator before (w - 1), where it would give up.  The
    block (z - 1)(w - 1) after the slot of v is decided whole: v = 2 keeps
    the product nonzero, and nothing is undecided."""
    gf, ys = idf.guard_factors(6)
    one = const(1)
    expr = prod(gf + [sub(var("x"), one), var("v"), sub(var("z"), one), sub(var("w"), one)])
    doc = idf.IdentityDoc("test", expr, {"Y": idf._names(ys)}, {}, "greedy search gives up")
    session = vf._Session(doc, s3_std, seed=0)
    assignment = {f"y{i + 1}": i for i in range(6)}
    assignment.update(dict.fromkeys(session.tables.sep_list, 0))
    assignment.update(x=1, z=3, w=5)
    assert _exact_greedy(session, assignment) is None
    outcome = session.decide(assignment)
    assert outcome == {**assignment, "v": 2} and session.undecided_count == 0
    _assert_brute_force_decision(doc, s3_std, assignment, outcome)
    # on a reducible rep, x = 1 and z = 3 act as diag(1, zeta) and
    # diag(zeta, 1), so (x - 1) v (z - 1) vanishes for every v
    rep = catalog.abelian_rep(3, 2, 2, [[1, 0], [0, 1]])
    expr = prod([sub(var("x"), one), var("v"), sub(var("z"), one)])
    doc = idf.IdentityDoc("test", expr, {}, {}, "no u fits")
    session = vf._Session(doc, rep, seed=0)
    assignment = {"x": 1, "z": 3, "v": 0}
    assert session.decide(assignment) is None and session.undecided_count == 0
    _assert_brute_force_decision(doc, rep, assignment, None)


def test_a_vanishing_block_decides_before_any_search(s3_std, monkeypatch):
    """After the guards, the block (x - 1) v (v^-1 sum_{k<6} x^k + 0)
    multiplies out to x^6 - 1 = 0 (v is read by a value factor, so it is no
    separator).  Every assignment on which no factor vanishes is decided
    None from that block alone: the verdict holds, nothing is undecided,
    and the running product is never extended."""
    x, v = var("x"), var("v")
    read = sum_([prod([inv(v), sum_([power(x, k) for k in range(6)])]), const(0)])
    doc = _guarded_repro([sub(x, const(1)), v, read])
    extended = []
    extend = vf._Prefix.extend

    def spy(prefix, f, u=0):
        extended.append(u)
        return extend(prefix, f, u)

    monkeypatch.setattr(vf._Prefix, "extend", spy)
    verdict = vf.check(doc, s3_std)
    assert verdict.status == "holds" and "undecided" not in verdict.detail
    assert not extended


def test_no_vanishing_factor_on_a_reducible_rep_is_undecided():
    """The no-vanishing-factor certificate rests on Burnside's theorem, which
    needs an irreducible rep.  On diag(zeta^a, zeta^2a) over Z3, no base of
    the streamed product of x - zeta_3 vanishes at a != 0, yet the product
    vanishes for every separator choice (its expansion holds on every
    assignment): every mode holds with undecided assignments and none
    fails."""
    rep = catalog.abelian_rep(3, 1, 2, [[1], [2]])
    assert not rep.is_irreducible()
    doc = idf.probability_identity(sub(var("x"), const(cyc_root_of_unity(3, 1))), 1, 3)
    verdicts = {
        "auto": vf.check(doc, rep),
        "exhaustive": vf.check(doc, rep, mode="exhaustive"),
        "sampled": vf.check(doc, rep, mode="sampled", n=50),
    }
    for mode, verdict in verdicts.items():
        assert verdict.holds and verdict.detail["undecided"] > 0, (mode, verdict.to_json())
    assert verdicts["auto"].evidence == "guarded"
    expanded = vf.holds_exhaustive(idf.expand_doc(doc), rep)
    assert expanded.holds and expanded.detail == {"assignments": 3 ** 10}


def _factor_expr(rng, names, depth=1):
    """A random root factor: words, differences, powers minus one and
    commutators, and sums and products of them."""
    if depth == 0 or rng.random() < 0.5:
        kind = rng.choice(["word", "diff", "pow", "commutator"])
        a, b = (var(n) for n in rng.sample(names, 2))
        if kind == "word":
            return prod([a, inv(b)])
        if kind == "diff":
            return sub(a, b)
        if kind == "pow":
            return sub(power(a, rng.randint(2, 3)), const(1))
        return sub(prod([a, b]), prod([b, a]))
    children = [_factor_expr(rng, names, depth - 1) for _ in range(2)]
    return sum_(children) if rng.random() < 0.5 else prod(children)


def _is_separator(f) -> bool:
    return f.kind == "var" and f.value.startswith("v")


@pytest.mark.parametrize("rep_name", ["S3:std", "Q8:dim2", "Z6:chi1", "Z3^2:reducible"])
def test_scan_matches_fresh_evaluation(rep_name):
    """Over assignments that repeat values, the session's scan returns what
    a fresh Evaluator gives factor by factor,
    streamed factors included; a stream is certified only in a product
    that separates its factors (premise (c))."""
    from repident.freeexpr import StreamNonvanishing, StreamUndecided

    rep = {
        "S3:std": lambda: catalog.symmetric(3).rep("std"),
        "Q8:dim2": lambda: catalog.quaternion().rep("dim2"),
        "Z6:chi1": lambda: catalog.cyclic(6).rep("chi1"),
        "Z3^2:reducible": lambda: catalog.abelian_rep(3, 2, 2, [[1, 0], [1, 1]]),
    }[rep_name]()
    rng = random.Random(rep_name)
    names = ["a", "b", "c"]

    def fresh_scan(factors, assignment, separated):
        """The scan by a fresh Evaluator per factor: a stream is certified
        only when it raised the certificate itself and the product
        separates its factors (premise (c))."""
        outcome = vf.NONE
        for f in factors:
            if _is_separator(f):
                continue
            ev = Evaluator(rep)
            try:
                val = ev.evaluate_value(f, assignment)
            except StreamNonvanishing as exc:
                certified = exc.node is f and separated
                refused.append(not certified)
                outcome = max(outcome, vf.CERTIFIED if certified else vf.UNDECIDED)
                continue
            except StreamUndecided:
                outcome = vf.UNDECIDED
                continue
            if ev._is_zero(val):
                return vf.VANISHES
        return outcome

    seen, refused = set(), []
    for trial in range(24):
        factors = [_factor_expr(rng, names) for _ in range(3)]
        for certified in (True, False):
            if rng.random() < 0.5:
                base = sub(var(rng.choice(names)), const(1))
                stream = stream_subsets([base], 1, "s") if certified else _undecided_stream(base)
                factors.insert(rng.randrange(len(factors) + 1), stream)
        # a product factor joins the root product
        factors = list(prod(factors).children)
        if trial % 2:  # a fresh separator between the root factors
            for i in range(len(factors) - 1, 0, -1):
                factors.insert(i, var(f"v{i}"))
        doc = idf.IdentityDoc("test", prod(factors), {}, {}, "random factors")
        # premise (c): each value factor after the first follows a separator
        # or a stream
        separated = all(a.kind == "stream_subsets" or _is_separator(a)
                        for a, b in zip(factors, factors[1:]) if not _is_separator(b))
        session = vf._Session(doc, rep, seed=0)
        # sweeps of the last variable under values of the others drawn from
        # a few elements, so that whole assignments repeat too
        pool = rng.sample(range(rep.group.order), 3)
        for _ in range(6):
            assignment = {n: rng.choice(pool) for n in names}
            for c in pool:
                assignment["c"] = c
                expected = fresh_scan(factors, assignment, separated)
                assert session.scan(assignment, session.tables.scanned) == expected
                seen.add((expected, separated))
    # every outcome, a certified stream only in a separated product, and
    # none on the reducible rep (Burnside's theorem, on which the
    # certificate rests, needs an irreducible rep)
    reducible = rep_name == "Z3^2:reducible"
    outcomes = {vf.NONE, vf.CERTIFIED, vf.UNDECIDED, vf.VANISHES}
    assert {scan for scan, _ in seen} == outcomes - ({vf.CERTIFIED} if reducible else set())
    assert {separated for scan, separated in seen if scan == vf.CERTIFIED} == (
        set() if reducible else {True})
    assert {separated for _, separated in seen} == {True, False}
    # an unseparated product's certificate is refused: its stream is undecided
    assert any(refused) != reducible
    # guard_C(k) is one full guard, tested as a whole, on values drawn
    # from two elements, which repeat, or distinct
    guard_seen = set()
    for k in range(2, 6):
        doc = idf.guard_C(k)
        session = vf._Session(doc, rep, seed=0)
        names = tuple(doc.guards["Y"])
        assert session.tables.full_guards == [names] and session.tables.scanned == []
        pool = rng.sample(range(rep.group.order), 2)
        for _ in range(8):
            values = (rng.sample(range(rep.group.order), k) if rng.random() < 0.5
                      else [rng.choice(pool) for _ in names])
            assignment = {**dict.fromkeys(doc.expr.free_vars(), 0), **dict(zip(names, values))}
            expected = fresh_scan(list(doc.expr.children), assignment, True)
            assert session.scan(assignment, session.tables.scanned) == expected
            guard_seen.add(expected)
    assert guard_seen == {vf.NONE, vf.VANISHES}


def test_a_partial_guard_is_scanned_pair_by_pair():
    """On Z4:chi2 (kernel {0, 2}) the guard differences y1 - y2 and y3 - y4
    cover two of the six pairs of their group, so they form no full guard:
    the canonical ordering (0, 1, 2, 3) separates both pairs, though its
    four values share two cosets, and the guarded verdict fails there.
    guard_C(4), which covers every pair, is one full guard and holds, as
    chi2 is not faithful."""
    rep = catalog.cyclic(4).rep("chi2")
    ys = [var(f"y{i}") for i in range(1, 5)]
    doc = idf.IdentityDoc("test", prod([var("u0"), sub(ys[0], ys[1]), var("u1"),
                                        sub(ys[2], ys[3])]),
                          {"Y": idf._names(ys)}, {}, "two of the six guard pairs")
    tables = vf._doc_tables(doc)
    assert tables.full_guards == [] and tables.scanned == tables.value_factors
    canonical = {"u0": 0, "u1": 0, "y1": 0, "y2": 1, "y3": 2, "y4": 3}
    assert vf._Session(doc, rep).scan(canonical, tables.scanned) == vf.NONE
    verdict = _verdict_json(vf.holds_guarded(doc, rep, orderings=0))
    assert verdict == {"status": "fails", "evidence": "guarded", "orderings": 0, "seed": 0,
                       "checked": 1, "args_exhaustive": True, "witness": canonical}
    full = idf.guard_C(4)
    assert vf._doc_tables(full).full_guards == [("y1", "y2", "y3", "y4")]
    assert vf.holds_guarded(full, rep, orderings=0).holds


# name -> (rep, order of its kernel)
_DIFFERENCE_REPS = {
    "S3:std": (lambda: catalog.symmetric(3).rep("std"), 1),
    "Q8:dim2": (lambda: catalog.get_rep("Q8", "dim2"), 1),
    "S4:rho1": (lambda: catalog.symmetric(4).rep("rho1"), 24),  # kernel S4
    "S4:rho2": (lambda: catalog.symmetric(4).rep("rho2"), 12),  # kernel A4
    "S4:rho3": (lambda: catalog.symmetric(4).rep("rho3"), 4),  # kernel V4
    "S3:sign": (lambda: catalog.symmetric(3).rep("sign"), 3),  # kernel A3
    "S3:perm": (_s3_permutation_rep, 1),  # reducible
    "Z3^2:reducible": (lambda: catalog.abelian_rep(3, 2, 2, [[1, 0], [1, 0]]), 3),
    "gamma:pi(1,1)": (lambda: catalog.gamma_d(7, 9, 2).rep("pi(1,1)"), 1),
}

# name -> the words (w1, w2) in a and b of a difference w1 - w2
_a, _b = var("a"), var("b")
_WORD_PAIRS = {
    "a - b": (_a, _b),
    "[a, b] - 1": (prod([inv(_a), inv(_b), _a, _b]), const(1)),
    "ab - ba": (prod([_a, _b]), prod([_b, _a])),
    "a^2 - b^-1": (power(_a, 2), inv(_b)),
    "bab^-1 - a^-1": (prod([_b, _a, inv(_b)]), power(_a, -1)),
    "(ab)^-1 - b": (inv(prod([_a, _b])), prod([_b, const(1)])),
}


@pytest.mark.parametrize("rep_name, words", [
    *(pytest.param(rep_name, "a - b", id=rep_name)
      for rep_name in ["S3:std", "S4:rho2", "S4:rho1", "Z3^2:reducible", "gamma:pi(1,1)"]),
    *(pytest.param(rep_name, words, id=f"{rep_name}-{words}")
      for rep_name in ["S3:std", "S4:rho3", "S3:sign", "S3:perm"]
      for words in list(_WORD_PAIRS)[1:]),
])
def test_differences_are_decided_from_kernel_cosets(rep_name, words, monkeypatch):
    """A root factor w1 - w2 of two group words, in either child order, is
    decided without evaluation: on every assignment of a and b the session's decision is an exact zero test of
    the evaluated difference.  The witness search reads its exact rank
    from `Rep.difference_ranks` and raises on a vanishing one.  It skips
    an invertible difference; on an irreducible rep it takes any other as
    its two group elements, building no factor, with the rank of the
    matrix `reference_eval` finds and the difference of their images mod
    p; on a reducible rep, whose blocks are projected, it builds the
    factor from the two elements, with the evaluator's value and image."""
    from repident.freeexpr import _M
    from repident.matrices import rref

    make_rep, kernel_order = _DIFFERENCE_REPS[rep_name]
    rep = make_rep()
    w1, w2 = _WORD_PAIRS[words]
    forward, backward = sub(w1, w2), sum_([prod([const(-1), w1]), w2])  # w1 - w2, -w1 + w2
    doc = idf.IdentityDoc("test", prod([forward, var("v"), backward]), {}, {},
                          "two differences")
    session = vf._Session(doc, rep, seed=0)
    differences = session.tables.differences
    assert differences.keys() == {forward, backward}
    assert differences[backward] == differences[forward][::-1]
    if words == "a - b":
        assert differences[forward] == ((("a", False),), (("b", False),))
    ev = Evaluator(rep)
    session.ev._eval = None  # a scan that evaluates would raise
    kernel = set(rep.kernel)
    group = rep.group
    assignments = [{"a": x, "b": y, "v": 0}
                   for x, y in itertools.product(range(group.order), repeat=2)]
    for assignment in assignments:
        want = ev._is_zero(ev._eval(forward, assignment, {}))
        if words == "a - b":
            x, y = assignment["a"], assignment["b"]
            assert want == (group.table[group.inverse[x]][y] in kernel)
        for f in (forward, backward):
            assert session.scan_factors(assignment, [f]) == (
                vf.VANISHES if want else vf.NONE)
    assert len(kernel) == kernel_order
    del session.ev._eval
    built, states = [], []
    factor, extend = vf._Factor, vf._Prefix.extend

    def record_factor(*args):
        built.append(factor(*args))
        return built[-1]

    def record_extend(prefix, f):
        u = extend(prefix, f)
        states.append((f, prefix.pending and list(prefix.pending), prefix.mod))
        return u

    monkeypatch.setattr(vf, "_Factor", record_factor)
    monkeypatch.setattr(vf._Prefix, "extend", record_extend)
    p = rep.images_mod_p[0].p
    nonzero = None
    for assignment in assignments[:576]:
        val = ev._eval(forward, assignment, {})
        mat = reference_eval(forward, {v: rep.image(g) for v, g in assignment.items()},
                             rep.dim)
        rank = len(rref([list(row) for row in mat.rows])[1])
        built.clear()
        states.clear()
        if rank == 0:
            assert ev._is_zero(val)
            with pytest.raises(vf.VerifierError, match="vanishing factor"):
                session.witness_value(assignment)
            continue
        nonzero = nonzero or assignment
        assert session.witness_value(assignment) == assignment
        if rank == rep.dim:
            assert not built and not states  # the product stays invertible
        elif rep.is_irreducible():
            # no factor is built: the forward difference enters the prefix
            # as its two group elements, and its image is the difference of
            # their images, kept to one row when it has rank 1
            assert not built
            f, pending, mod = states[0]
            g_a, g_b = f[:2]
            assert f[2] == rank and pending == [(None, (g_a, g_b))]
            assert mat == rep.image(g_a) - rep.image(g_b)
            assert mod == vf._one_row(ev._mod_p((_M, mat)), p)
        else:
            # blocks are built right to left on a reducible rep: the forward
            # difference after the backward one, from its two group elements
            f = built[1]
            assert f.val == val and f.mod == ev._mod_p(val)
            assert f.rank == rank and f.mat() == mat
    if nonzero:
        assert session.decide(nonzero) == nonzero


# group words in a, b and c: vars and const 1, inverses, products, powers
_group_words = st.recursive(
    st.sampled_from(["a", "b", "c", ""]).map(lambda name: var(name) if name else const(1)),
    lambda inner: st.one_of(
        inner.map(inv),
        st.lists(inner, min_size=2, max_size=3).map(prod),
        st.tuples(inner, st.integers(-3, 3)).map(lambda wk: power(*wk))),
    max_leaves=6)


@pytest.mark.parametrize("rep_name", ["S3:std", "Q8:dim2", "S4:rho3", "S3:sign", "S3:perm"])
def test_word_differences_decide_as_reference_eval(rep_name):
    """A root factor w1 - w2 of two group words, in either child order, is
    a word difference (`_DocTables.differences`, unless its words are
    equal), and its scan, which evaluates nothing, vanishes exactly where `reference_eval` finds it zero: on every
    assignment of a, b and c, or on 64 drawn ones on S4."""
    rep = _DIFFERENCE_REPS[rep_name][0]()
    m = rep.group.order
    images = [rep.image(g) for g in range(m)]
    every = list(itertools.product(range(m), repeat=3))

    @settings(max_examples=40, deadline=None)
    @given(w1=_group_words, w2=_group_words, flipped=st.booleans(), seed=st.integers(0, 99))
    # (ab)^-1 = b^-1 a^-1: an inverse reverses its product
    @example(w1=inv(prod([_a, _b])), w2=prod([inv(_b), inv(_a)]), flipped=True, seed=0)
    def decide(w1, w2, flipped, seed):
        # w1 - w2 as `sub` builds it, or with its children in the other order
        f = sum_([prod([const(-1), w2]), w1]) if flipped else sub(w1, w2)
        a, b = vf._difference(f)
        doc = idf.IdentityDoc("test", f, {}, {}, "a word difference")
        session = vf._Session(doc, rep)
        assert (f in session.tables.differences) == (a != b)
        if a != b:
            session.ev._eval = None  # a scan that evaluates would raise
        zeros = 0
        for values in every if m ** 3 <= 512 else random.Random(seed).sample(every, 64):
            assignment = dict(zip("abc", values))
            want = reference_eval(f, {v: images[g] for v, g in assignment.items()},
                                  rep.dim).is_zero()
            zeros += want
            assert session.scan_factors(assignment, [f]) == (
                vf.VANISHES if want else vf.NONE), assignment
        event(f"vanishes: {'never' if not zeros else 'somewhere'}")

    decide()


def test_word_differences_cover_the_benchmark_documents():
    """Every word difference of the gamma separating identity, the S4
    separating identity and the class identity is one: all their value
    factors but the determinant sums, the psi sum and the streamed body."""
    rho4 = catalog.symmetric(4).rep("rho4")
    docs = {
        "gamma-sep": (idf.gamma_separating_identity(catalog.gamma_d(7, 9, 2), 1), 1954, 1956),
        "s4-separation": (idf.s4_separating_identity(rho4), 277, 278),
        "class": (idf.class_identity(rho4), 126, 127),
    }
    for name, (doc, words, factors) in docs.items():
        tables = vf._doc_tables(doc)
        assert (len(tables.differences), len(tables.value_factors)) == (words, factors), name


def test_document_tables_are_built_once_per_document(s3_std):
    """Sessions on one document share its tables, and a pickled copy of
    the document gets its own, naming its own unpickled factors, so its
    verdicts are the original's."""
    import pickle

    doc = idf.character_identity(s3_std)
    first = vf._Session(doc, s3_std)
    assert vf._Session(doc, s3_std).tables is first.tables
    verdict = _verdict_json(vf.holds_guarded(doc, s3_std, seed=2, orderings=2))
    copy = pickle.loads(pickle.dumps(doc))
    tables = vf._doc_tables(copy)
    roots = {id(f) for f in copy.expr.children}
    assert tables is not first.tables
    assert tables.differences and all(id(f) in roots for f in tables.differences)
    assert len(tables.differences) == len(first.tables.differences)
    assert _verdict_json(vf.holds_guarded(copy, s3_std, seed=2, orderings=2)) == verdict


def test_guarded_argument_factors_are_decided_once_per_key(s3_std):
    """(y1 x + x y1 - 2) vanishes, on a rep similar to a unitary one, where
    both words map to 1, at x = y1^-1, which moves with the guard
    ordering: in every ordering the guarded source yields exactly the x a
    fresh evaluation finds nonvanishing.  Each factor, the moving one and
    the guard-free (x^2 + x^-2 - 2), zero where x^2 is, is evaluated at
    most once per ordering and x.  The word differences y1 x - 1 and
    x x - 1, which have the same zero sets and are decided from kernel
    cosets, yield the same x."""
    m = s3_std.group.order
    arg, y1, two = var("x"), var("y1"), const(-2)
    moving = sum_([prod([y1, arg]), prod([arg, y1]), two])
    fixed = sum_([power(arg, 2), power(arg, -2), two])
    names = [f"y{i}" for i in range(1, m + 1)]
    guards = prod([var(name) for name in names[1:]])

    def guard_doc(moving, fixed):
        return idf.IdentityDoc("test", prod([moving, var("u"), fixed, var("w"), guards]),
                               {"g": names}, {}, "a zero set that moves with the ordering")

    doc = guard_doc(moving, fixed)
    session = vf._Session(doc, s3_std, seed=4)
    assert not vf._guards_symmetric(session, doc.guards)
    orderings, evaluations = [], []  # static scans; (factor, ordering, x) scan evaluations
    scan, evaluate = session.scan_factors, session.ev._eval
    depth = [None]  # evaluation depth within a scan; None outside scans

    def recording(assignment, factors, *keys):
        if not any(f is moving for f in factors):  # the static scan of an ordering
            orderings.append(dict(assignment))
        depth[0] = 0
        try:
            return scan(assignment, factors, *keys)
        finally:
            depth[0] = None

    def evaluating(e, assignment, memo):
        if depth[0] is None:  # the witness search
            return evaluate(e, assignment, memo)
        if depth[0] == 0 and (e is moving or e is fixed):
            evaluations.append((e, len(orderings) - 1, assignment["x"]))
        depth[0] += 1
        try:
            return evaluate(e, assignment, memo)
        finally:
            depth[0] -= 1

    session.scan_factors, session.ev._eval = recording, evaluating
    yielded = [a for a, _ in vf._guarded_decisions(session, doc.guards, ["x"], 5, True,
                                                   {"checked": 0})]
    ev = Evaluator(s3_std)
    expected = [(guard["y1"], x) for guard in orderings for x in range(m)
                if not any(ev._is_zero(ev.evaluate_value(f, dict(guard, x=x)))
                           for f in (moving, fixed))]
    assert len(orderings) == 6 and len({guard["y1"] for guard in orderings}) > 2
    assert [(a["y1"], a["x"]) for a in yielded] == expected
    fixed_zero = {x for x in range(m) if ev._is_zero(ev.evaluate_value(fixed, {"x": x}))}
    assert 0 < len(fixed_zero) < m
    for factor in (moving, fixed):
        scanned = [(k, x) for f, k, x in evaluations if f is factor]
        assert scanned and len(scanned) == len(set(scanned))
    words = vf._Session(guard_doc(sub(prod([y1, arg]), const(1)),
                                  sub(prod([arg, arg]), const(1))), s3_std, seed=4)
    assert [(a["y1"], a["x"]) for a, _ in vf._guarded_decisions(
        words, doc.guards, ["x"], 5, True, {"checked": 0})] == expected


def _naive_guarded(doc, rep, seed: int, orderings: int, samples: int | None = None) -> dict:
    """The status, checked count and witness of the guarded verdict from a
    lexicographic scan of every argument tuple of every ordering, or, with
    samples set, of that many argument tuples drawn per ordering, each root
    value factor evaluated with a fresh `Evaluator`; the separator decision
    is the session's.  The draws are guarded mode's: a shuffle per guard
    group in each ordering past the first, then, unless a factor free of
    arguments vanishes, one value per argument per sample, in
    `_var_sort_key` order."""
    m, rng = rep.group.order, random.Random(seed)
    tables, args = vf._doc_tables(doc), _arguments(doc)
    static = [f for f in tables.value_factors if f.free_vars().isdisjoint(args)]

    def vanishes(f, assignment):
        ev = Evaluator(rep)
        return ev._is_zero(ev.evaluate_value(f, assignment))

    checked = 0
    for rnd in range(orderings + 1):
        assignment = dict.fromkeys(tables.sep_list, 0)
        for names in doc.guards.values():
            order = list(range(m))
            if rnd:
                rng.shuffle(order)
            assignment.update(zip(names, order))
        if any(vanishes(f, assignment) for f in static):
            checked += 1
            continue
        if samples is None:
            combos = itertools.product(range(m), repeat=len(args))
        else:
            combos = ([rng.randrange(m) for _ in args] for _ in range(samples))
        for combo in combos:
            assignment.update(zip(args, combo))
            checked += 1
            if not any(vanishes(f, assignment) for f in tables.value_factors):
                witness = vf._Session(doc, rep).witness_value(dict(assignment))
                if witness is not None:
                    return {"status": "fails", "checked": checked,
                            "witness": list(witness.items())}
    return {"status": "holds", "checked": checked}


def _naive_outcome(verdict) -> dict:
    """The status, checked count and witness of a guarded verdict, as
    `_naive_guarded` gives them."""
    out = _verdict_json(verdict)
    got = {"status": out["status"], "checked": out["checked"]}
    if "witness" in out:
        got["witness"] = list(out["witness"].items())
    return got


@st.composite
def _argument_factor_docs(draw, rep):
    """A guarded document over x, z and one guard group Y, its root value
    factors drawn from: a sum of signed powers of z (read outside psi,
    decided per value), psi_Y(z^k) less its value at a drawn element (keyed
    per class), psi_Y(x z) and psi_Y(z y1) less a drawn value (a middle
    that reads another variable), the psi over y1 and y2 alone of z less
    2 y2 (part of a guard group), y1 x + x y1 - 2 (a guard outside psi,
    so that every ordering is scanned) and x^e - 1 (a word difference that
    prunes the x where it vanishes), after the guard differences, with
    fresh separators before some of them; with the kind of each factor.
    Now and then one guard difference is dropped, with the separator after
    it (a partial guard, scanned pair by pair), or repeated at the end of
    the guard, in either order."""
    group, m, d = rep.group, rep.group.order, rep.dim
    ys = [var(f"y{i}") for i in range(1, m + 1)]
    x, z = var("x"), var("z")
    chi, scale = rep.character.values, Cyc.from_rational(Fraction(m, d))

    def psi_less(middle, word):
        """psi_Y(middle) less its value, (m / d) chi, at the element word."""
        g = 0
        for h in word:
            g = group.table[g][h]
        return sum_([idf.psi_expr(middle, ys), const(-(scale * chi[g]))])

    def element():
        return draw(st.integers(0, m - 1))

    k = draw(st.integers(1, 3))
    menu = {
        "z outside psi": lambda: sum_([smul(draw(st.sampled_from([1, -1])), power(z, e))
                                       for e in draw(st.lists(st.integers(-1, 3), min_size=2,
                                                              max_size=3, unique=True))]),
        "psi of z": lambda: psi_less(power(z, k), [element()] * k),
        "psi of x z": lambda: psi_less(prod([x, z]), [element()]),
        "psi of z y1": lambda: psi_less(prod([z, ys[0]]), [element()]),
        "part of a guard group": lambda: sum_([prod([ys[0], z, inv(ys[0])]),
                                               prod([ys[1], z, inv(ys[1])]),
                                               smul(-2, ys[1])]),
        "guard outside psi": lambda: sum_([prod([ys[0], x]), prod([x, ys[0]]), const(-2)]),
        "x gate": lambda: sub(power(x, draw(st.sampled_from([2, 3]))), const(1)),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(menu)), min_size=1, max_size=4))
    factors, kinds = idf.guard_factors(m)[0], {}
    edit = draw(st.sampled_from(["none", "drop", "repeat"]))
    if edit != "none":
        a, b = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                                    unique=True)))
        at = factors.index(sub(ys[a], ys[b]))
        if edit == "drop":
            del factors[at:at + 2]
        else:
            factors.append(draw(st.sampled_from([sub(ys[a], ys[b]), sub(ys[b], ys[a])])))
    for i, name in enumerate(chosen + ["x gate", "z outside psi"]):
        if draw(st.booleans()):
            factors.append(var(f"s{i}"))
        factors.append(menu[name]())
        kinds[factors[-1]] = name
    doc = idf.IdentityDoc("test", prod(factors), {"Y": idf._names(ys)}, {},
                          "argument factors of every kind")
    return doc, kinds


@pytest.mark.parametrize("rep_name, examples", [("S3:std", 40), ("Q8:dim2", 30),
                                                ("S4:rho4", 10), ("S3:sign", 30),
                                                ("S4:rho3", 10)])
def test_guarded_walk_matches_a_naive_scan(rep_name, examples):
    """The level walk's verdict (status, checked count and witness, in its
    key order) is that of a naive lexicographic scan of every factor with a
    fresh evaluator, over documents with argument factors of every kind:
    read per value, per class, through a psi middle that reads x and z or
    a guard, and through a psi over part of a guard group; the last three
    are not keyed by class.  Its guard is full, or lacks or repeats a pair;
    on the non-faithful S3:sign and S4:rho3 a full guard vanishes in every
    ordering."""
    rep = _decision_rep(rep_name)

    @settings(max_examples=examples, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 99), orderings=st.integers(0, 1))
    def compare(data, seed, orderings):
        doc, kinds = data.draw(_argument_factor_docs(rep))
        tables = vf._doc_tables(doc)
        full = tables.full_guards == [tuple(doc.guards["Y"])]
        event(f"full guard: {full}")
        assert full == (len(tables.scanned) < len(tables.value_factors))
        plan = tables.guarded_plan(doc.guards, _arguments(doc))
        # psi_Y(z^k) less a value alone is keyed by the class of z
        assert all(name == ("z" if kinds[f] == "psi of z" else None) for f, name in plan.dynamic)
        verdict = vf.holds_guarded(doc, rep, seed=seed, orderings=orderings)
        assert _naive_outcome(verdict) == _naive_guarded(doc, rep, seed, orderings)

    compare()


@pytest.mark.parametrize("rep_name, examples", [("S3:std", 30), ("Q8:dim2", 20)])
def test_sampled_guarded_arguments_match_a_naive_scan(rep_name, examples, monkeypatch):
    """With the argument budget at 1, guarded mode samples its arguments,
    and its verdict (status, checked count and witness) is that of a naive
    scan of the same draws with a fresh evaluator per factor, over the
    documents of the level walk's reference test: the factor keyed by
    class keeps its outcomes across the samples of an ordering."""
    rep = _decision_rep(rep_name)
    samples = 12
    monkeypatch.setattr(vf, "GUARDED_ARG_BUDGET", 1)
    monkeypatch.setattr(vf, "GUARDED_ARG_SAMPLES", samples)

    @settings(max_examples=examples, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 99), orderings=st.integers(0, 2))
    def compare(data, seed, orderings):
        doc, _ = data.draw(_argument_factor_docs(rep))
        verdict = vf.holds_guarded(doc, rep, seed=seed, orderings=orderings)
        assert verdict.detail["args_exhaustive"] is False
        assert _naive_outcome(verdict) == _naive_guarded(doc, rep, seed, orderings, samples)

    compare()


def _guard_doc(rep, extra):
    """guard_factors over the group order followed by extra(yvars)."""
    factors, yvars = idf.guard_factors(rep.group.order)
    return idf.IdentityDoc("test", prod(factors + extra(yvars)), {"Y": idf._names(yvars)}, {},
                           "a guarded test document")


def _undecided_doc(rep):
    """Guards, psi_Y(x) (zero exactly on the transpositions of S3:std) and a
    streamed product of (x - 1) not proved psd, undecided wherever x is not
    the identity: every assignment that no factor settles is undecided, so
    the verdict runs through every ordering."""
    return _guard_doc(rep, lambda ys: [idf.psi_expr(var("x"), ys), var("v"),
                                       _undecided_stream(sub(var("x"), const(1)))])


def _certified_cases():
    """(document, rep) pairs the guard-symmetry certificate accepts."""
    s3 = catalog.symmetric(3).rep("std")
    s4 = catalog.symmetric(4)
    rho4, rho5 = s4.rep("rho4"), s4.rep("rho5")
    gam = catalog.gamma_d(7, 9, 2)
    h3 = catalog.heisenberg(3).rep("theta1")
    z3 = catalog.cyclic(3).rep("chi1")
    return {
        "character": (idf.character_identity(rho4), rho4),
        "character-unseparated": (unseparated_character_doc(rho4), rho4),
        "s4-separation": (idf.s4_separating_identity(rho4), rho5),
        "gamma-separation": (idf.gamma_separating_identity(gam, 1), gam.rep("pi(1,2)")),
        "spectrum": (idf.spectrum_identity(h3), h3),
        "theta": (idf.theta(6), s3),
        "guard": (idf.guard_C(6), s3),
        "undecided stream": (_undecided_doc(s3), s3),
        # a full guard vanishes on a bijection exactly when the rep is not
        # faithful, however often it covers each pair
        "a pair covered twice": (_pair_covered_twice(z3), z3),
    }


def _pair_covered_twice(rep):
    """guard_factors over the group order, then y1 - y2 once more."""
    return _guard_doc(rep, lambda ys: [sub(ys[0], ys[1])])


def _refused_cases():
    s3 = catalog.symmetric(3).rep("std")
    h3 = catalog.heisenberg(3).rep("theta1")
    z4 = catalog.cyclic(4).rep("chi1")
    comm = sub(prod([inv(var("a")), inv(var("b")), var("a"), var("b")]), const(1))
    xi = s3.character.range_values(s3.key_conductor)[0]
    guard4 = idf.guard_C(4)
    missing = [f for f in guard4.expr.children if f.free_vars() != {"y2", "y4"}]
    assert len(missing) == len(guard4.expr.children) - 1
    return {
        # X guard variables appear outside psi (as middles, or bare)
        "dimension": (idf.dimension_identity(6, 1), s3),
        "range": (idf.range_identity(s3, xi), s3),
        "level-set": (idf.level_set_identity(s3, 1), s3),
        "gassmann": (idf.gassmann_identity(h3, 1), h3),
        # conjugation by single guard variables
        "class": (idf.class_identity(s3), s3),
        # guard variables inside a streamed node
        "probability": (idf.probability_identity(comm, 19, 6), s3),
        "guard minus one difference": (idf.IdentityDoc(
            "guard", prod(missing), guard4.guards, {}, "pair (2, 4) uncovered"), z4),
        "psi over all but one": (_guard_doc(s3, lambda ys: [idf.psi_expr(var("x"), ys[:-1])]),
                                 s3),
        "psi repeating y1 for y6": (_guard_doc(s3, lambda ys: [
            idf.psi_expr(var("x"), ys[:-1] + ys[:1])]), s3),
        "psi with an extra y1": (_guard_doc(s3, lambda ys: [
            idf.psi_expr(var("x"), ys + ys[:1])]), s3),
        "psi middle mentions y1": (_guard_doc(s3, lambda ys: [
            idf.psi_expr(prod([var("x"), ys[0]]), ys)]), s3),
        "bare guard variable": (_guard_doc(s3, lambda ys: [sub(prod([ys[0], var("x")]),
                                                               const(1))]), s3),
        "psi inside a streamed node": (_guard_doc(s3, lambda ys: [
            _undecided_stream(idf.psi_expr(var("x"), ys))]), s3),
    }


@pytest.mark.parametrize("name", list(_certified_cases()))
def test_guard_certificate_accepts(name):
    doc, rep = _certified_cases()[name]
    assert vf._guards_symmetric(vf._Session(doc, rep, seed=0), doc.guards)
    assert vf._doc_tables(doc).symmetric is True


@pytest.mark.parametrize("name", list(_refused_cases()))
def test_guard_certificate_refuses(name):
    doc, rep = _refused_cases()[name]
    assert not vf._guards_symmetric(vf._Session(doc, rep, seed=0), doc.guards)
    assert vf._doc_tables(doc).symmetric is False


def _same_verdict_cases():
    s4 = catalog.symmetric(4)
    rho4, rho5 = s4.rep("rho4"), s4.rep("rho5")
    two_t = catalog.get_rep("2T", "nat")
    h3 = catalog.heisenberg(3).rep("theta1")
    gam = catalog.gamma_d(7, 9, 2)
    s3 = catalog.symmetric(3).rep("std")
    z3 = catalog.cyclic(3).rep("chi1")
    sep = idf.s4_separating_identity(rho4)
    return {
        "S4 character": (idf.character_identity(rho4), rho4, "holds"),
        "S4 separation holds": (sep, rho4, "holds"),
        "S4 separation fails": (sep, rho5, "fails"),
        "2T character": (idf.character_identity(two_t), two_t, "holds"),
        "H3 spectrum": (idf.spectrum_identity(h3), h3, "holds"),
        "gamma-sep on pi(1,2)": (idf.gamma_separating_identity(gam, 1), gam.rep("pi(1,2)"),
                                 "fails"),
        # not faithful: some guard difference vanishes in every ordering
        "guard on S3:sign": (idf.guard_C(6), catalog.symmetric(3).rep("sign"), "holds"),
        "undecided stream": (_undecided_doc(s3), s3, "holds"),
        "a pair covered twice": (_pair_covered_twice(z3), z3, "fails"),
    }


def _arguments(doc):
    """The arguments of guarded mode: the variables that are neither guards
    nor separators, in `_var_sort_key` order."""
    guards = {v for vars_ in doc.guards.values() for v in vars_}
    return sorted(doc.expr.free_vars() - guards - vf._doc_tables(doc).separators,
                  key=idf._var_sort_key)


@pytest.mark.parametrize("name", list(_same_verdict_cases()))
def test_certified_guarded_verdicts_match_the_reference(name, monkeypatch):
    """A certified document decides orderings past the first from the first's
    scans; with the certificate refused (the reference path, which scans
    every ordering) the verdict JSON, the yielded assignments, their guard
    values, their scans and the rng draws are the same for 0 to 4 extra
    orderings, and sampled arguments (every ordering draws its own) keep
    the reference path."""
    doc, rep, status = _same_verdict_cases()[name]
    groups = doc.guards
    args = _arguments(doc)
    certified = vf._guards_symmetric
    monkeypatch.setattr(vf, "GUARDED_ARG_SAMPLES", 20)

    settle = vf._Session.settle

    def run(orderings):
        out = [_verdict_json(vf.holds_guarded(doc, rep, seed=orderings, orderings=orderings))]
        # the sources yield their scans in place of decisions: a failing
        # document would make a witness search per assignment
        monkeypatch.setattr(vf._Session, "settle", lambda self, assignment, scan: scan)
        for exhaustive in (True, False):
            detail = {"checked": 0}
            session = vf._Session(doc, rep, seed=orderings)
            out.append(list(vf._guarded_decisions(session, groups, args, orderings,
                                                  exhaustive, detail)))
            out += [detail, session.rng.random()]
        monkeypatch.setattr(vf._Session, "settle", settle)
        return out

    for orderings in range(5):
        monkeypatch.setattr(vf, "_guards_symmetric", certified)
        got = run(orderings)
        monkeypatch.setattr(vf, "_guards_symmetric", lambda *_: False)
        assert got == run(orderings), orderings
        assert got[0]["status"] == status
    assert vf._doc_tables(doc).symmetric is True
    if name == "undecided stream":
        # the two 3-cycles are undecided in every ordering
        assert got[0]["undecided"] == 2 * 5
        assert len({tuple(a[y] for y in groups["Y"]) for a, _ in got[1]}) == 5


def test_certified_orderings_scan_once(monkeypatch):
    """On a certified document only the first ordering is scanned: the
    source's scans do not grow with the ordering count."""
    rep = catalog.symmetric(4).rep("rho4")
    doc = idf.character_identity(rep)
    scans = []
    scan = vf._Session.scan_factors
    monkeypatch.setattr(vf._Session, "scan_factors",
                        lambda self, *a: scans.append(1) or scan(self, *a))
    counts = []
    for orderings in (0, 1, 4):
        scans.clear()
        assert vf.holds_guarded(doc, rep, seed=1, orderings=orderings).holds
        counts.append(len(scans))
    assert counts == [1 + 24] * 3


def _vanishing_pattern(doc, rep, guard_values, ev):
    """Per argument tuple, whether some root value factor of doc vanishes
    when the guards take guard_values, each factor evaluated afresh."""
    separators = vf._doc_tables(doc).separators
    factors = [f for f in (doc.expr.children if doc.expr.kind == "prod" else [doc.expr])
               if not (f.kind == "var" and f.value in separators)]
    args = _arguments(doc)
    static = [f for f in factors if f.free_vars().isdisjoint(args)]
    dynamic = [f for f in factors if not f.free_vars().isdisjoint(args)]
    base = dict(guard_values, **{s: 0 for s in separators})

    def vanishes(f, assignment):
        return ev._is_zero(ev.evaluate_value(f, assignment))

    static_zero = any(vanishes(f, base) for f in static)
    pattern = []
    for combo in itertools.product(range(rep.group.order), repeat=len(args)):
        assignment = dict(base, **dict(zip(args, combo)))
        pattern.append(static_zero or any(vanishes(f, assignment) for f in dynamic))
    return tuple(pattern)


def _ordering_patterns(doc, rep, k, seed):
    rng = random.Random(seed)
    ev = Evaluator(rep)
    patterns = []
    for rnd in range(k + 1):
        values = {}
        for vars_ in doc.guards.values():
            order = list(range(rep.group.order))
            if rnd:
                rng.shuffle(order)
            values.update(zip(vars_, order))
        patterns.append(_vanishing_pattern(doc, rep, values, ev))
    return patterns


@pytest.mark.parametrize("name", ["character", "s4-separation", "spectrum", "theta",
                                  "guard", "a pair covered twice"])
def test_certified_vanishing_pattern_is_ordering_independent(name):
    """The fact the certificate rests on: under random guard orderings a
    certified document vanishes on exactly the arguments it vanishes on
    under the canonical one."""
    doc, rep = _certified_cases()[name]
    assert vf._guards_symmetric(vf._Session(doc, rep, seed=0), doc.guards)
    patterns = _ordering_patterns(doc, rep, 3, seed=name)
    assert all(p == patterns[0] for p in patterns)
    if name == "s4-separation":  # the rho4 document fails on rho5
        assert not all(patterns[0]) and any(patterns[0])


def test_uncertified_vanishing_pattern_moves_with_the_ordering():
    """The pattern comparison above can fail: on a refused document the
    vanishing arguments move with the guard ordering."""
    doc, rep = _refused_cases()["bare guard variable"]
    patterns = _ordering_patterns(doc, rep, 3, seed=1)
    assert len(set(patterns)) > 1


def test_each_yielded_assignment_is_scanned_once(s3_std, monkeypatch):
    """Every mode decides an assignment from one root factor scan: no
    assignment is scanned twice, each one a source yields was scanned once
    (an ordering that reuses the first's scans scans none), and the parent
    of a --jobs 2 run, which takes its workers' decisions, scans nothing."""
    import collections

    scans = collections.Counter()
    yielded = []
    scan, verify = vf._Session.scan_factors, vf._verify

    def key(assignment):
        return tuple(sorted(assignment.items()))

    def counting_scan(self, assignment, factors, keys=None):
        scans[key(assignment)] += 1
        return scan(self, assignment, factors, keys)

    def recording_verify(session, evidence, decisions, *args, **kwargs):
        def tee():
            for assignment, outcome in decisions:
                yielded.append(key(assignment))
                yield assignment, outcome
        return verify(session, evidence, tee(), *args, **kwargs)

    def run(verdict):
        scans.clear()
        yielded.clear()
        return _verdict_json(verdict())

    monkeypatch.setattr(vf._Session, "scan_factors", counting_scan)
    monkeypatch.setattr(vf, "_verify", recording_verify)
    # undecided wherever x is not the identity, so sources yield those
    stream = _undecided_stream(sub(var("x"), const(1)))
    undecided = idf.IdentityDoc("test", prod([var("u"), stream]), {}, {}, "undecided")
    # five values of x, each with u at the identity, stand for 30 assignments
    assert run(lambda: vf.holds_exhaustive(undecided, s3_std))["undecided"] == 30
    assert len(yielded) == 5 and all(scans[k] == 1 for k in yielded)
    assert max(scans.values()) == 1
    assert run(lambda: vf.holds_sampled(undecided, s3_std, n=40, seed=1))["undecided"] > 0
    assert len(yielded) == 40 and scans == collections.Counter(yielded)
    assert run(lambda: vf.holds_structured(idf.class_identity(s3_std), s3_std))["status"] \
        == "holds"
    assert yielded and scans == collections.Counter(yielded)
    # guarded: the two 3-cycles are undecided in each of four orderings;
    # the document is symmetric in its guards, so three reuse the first's
    # scans, or scan afresh when the certificate is refused
    guarded = _undecided_doc(s3_std)
    assert run(lambda: vf.holds_guarded(guarded, s3_std, orderings=3))["undecided"] == 8
    assert [scans[k] for k in yielded] == [1] * 2 + [0] * 6
    assert max(scans.values()) == 1
    monkeypatch.setattr(vf, "_guards_symmetric", lambda *_: False)
    assert run(lambda: vf.holds_guarded(guarded, s3_std, orderings=3))["undecided"] == 8
    assert [scans[k] for k in yielded] == [1] * 8
    assert max(scans.values()) == 1
    # --jobs 2: each window of read tuples, walked in process as a worker
    # walks it, scans its assignments once; the parent scans none
    failing, z3 = idf.guard_C(3), catalog.cyclic(3).rep("chi1")
    names = sorted(failing.expr.free_vars())
    total = 3 ** len(vf._doc_tables(failing).read_names)
    monkeypatch.setitem(vf._WORKER_STATE, "args", (failing, z3, names))
    for bounds in ((0, (total + 1) // 2), ((total + 1) // 2, total)):
        scans.clear()
        _, found = vf._window_failure(bounds)
        assert max(scans.values()) == 1
        assert found is None or scans[key(found[0])] == 1
    assert run(lambda: vf.holds_exhaustive(failing, z3, jobs=2))["status"] == "fails"
    assert not scans and len(yielded) == 1


# -- separators are read from the root product ----------------------------------------


def _product_doc(factors, guards=None) -> idf.IdentityDoc:
    return idf.IdentityDoc("test", prod(factors), guards or {}, {}, "separator test")


def _guarded_repro(extra):
    """guard_factors(6) followed by extra."""
    factors, ys = idf.guard_factors(6)
    return _product_doc(factors + extra, {"Y": idf._names(ys)})


def _witness_nonzero(doc, rep, verdict) -> bool:
    images = {name: rep.images[g] for name, g in verdict.counterexample.items()}
    return not reference_eval(doc.expr, images, rep.dim).is_zero()


def test_a_separator_read_by_a_value_factor_is_an_argument(s3_std):
    """v is a root factor once, but the factor after it, v^-1 sum_{k<6}
    x^k + 0, reads v, and the product holds: (x - 1) sum x^k = x^6 - 1 = 0.
    Choosing v as a separator would change that factor's value after it
    was evaluated, and fail the identity with a witness that re-evaluates
    to zero.  v is an argument, and on the assignments on which no factor
    vanishes the block (x - 1) v (v^-1 sum x^k) multiplies out to zero:
    nothing is undecided."""
    x, v = var("x"), var("v")
    read = sum_([prod([inv(v), sum_([power(x, k) for k in range(6)])]), const(0)])
    doc = _guarded_repro([sub(x, const(1)), v, read])
    verdict = vf.check(doc, s3_std)
    assert verdict.status == "holds" and "undecided" not in verdict.detail
    assert vf._doc_tables(doc).separators == set(vf._doc_tables(idf.guard_C(6)).separators)


def test_a_separator_inside_a_value_factor_gets_no_slot(s3_std):
    """prod([x - 1, v, v - 1]): v is read by v - 1, so it is no separator,
    and x - 1, v and v - 1 are adjacent value factors.  The search keeps
    the sampled v, so the fails witness re-evaluates nonzero."""
    x, v = var("x"), var("v")
    doc = _product_doc([sub(x, const(1)), v, sub(v, const(1))])
    verdict = vf.check(doc, s3_std, mode="sampled", n=50)
    assert verdict.status == "fails" and _witness_nonzero(doc, s3_std, verdict)
    assert vf._doc_tables(doc).slots == [None, None, None]


def test_guarded_mode_enumerates_a_separator_read_by_a_factor(s3_std):
    """prod(guards + [v - 1]): v is read by v - 1, so guarded mode enumerates it as an argument and fails at v = 1,
    as sampled mode does."""
    doc = _guarded_repro([sub(var("v"), const(1))])
    verdict = vf.check(doc, s3_std)
    assert verdict.evidence == "guarded" and verdict.status == "fails"
    assert verdict.counterexample["v"] == 1 and _witness_nonzero(doc, s3_std, verdict)
    sampled = vf.check(doc, s3_std, mode="sampled")
    assert sampled.status == "fails" and _witness_nonzero(doc, s3_std, sampled)


def test_guarded_arguments_are_every_other_variable(s3_std):
    """A variable that is neither a guard nor a separator is an argument of
    guarded mode, and the verdict is decided."""
    doc = _guarded_repro([sub(var("x"), const(1))])
    verdict = vf.check(doc, s3_std)
    assert verdict.status == "fails" and _witness_nonzero(doc, s3_std, verdict)


def test_a_lone_separator_fails_at_the_identity(s3_std):
    """A root product of separators alone is a group element: it fails with
    every separator at the identity (the first sample draws u = 3), not an
    undecided search."""
    doc = idf.IdentityDoc("test", var("u"), {}, {}, "a lone separator")
    assert vf._doc_tables(doc).separators == {"u"}
    verdict = vf.holds_sampled(doc, s3_std, seed=0)
    assert verdict.status == "fails" and verdict.counterexample["u"] == 0
    assert "undecided" not in verdict.detail and _witness_nonzero(doc, s3_std, verdict)


def test_a_guard_is_never_a_separator():
    """Guards y1..y6 that are fresh root factors, as u is, stay guards: u
    alone is a separator, and guarded mode enumerates no argument."""
    names = [f"y{i}" for i in range(1, 7)]
    doc = _product_doc([var("u")] + [var(name) for name in names], {"Y": names})
    tables = vf._doc_tables(doc)
    assert tables.separators == {"u"} and tables.slots == ["u"] + [None] * 5
    assert _arguments(doc) == []


def test_a_relation_has_no_separators():
    """The relation (1 + 2x + 2x^2 + x^3) v stream_subsets([1 - x], 1) is
    decided at given values of x and v: v is no separator, so the stream,
    not separated from the cubic, is undecided where x is not the
    identity.  Read as a separator, v would let the certificate count the
    stream nonvanishing and the probability would read 1/2, not 2/3 (24 of
    the 36 pairs vanish)."""
    s3 = catalog.symmetric(3).rep("std")
    x = var("x")
    cubic = sum_([const(1), smul(2, x), smul(2, power(x, 2)), power(x, 3)])
    expr = prod([cubic, var("v"), stream_subsets([sub(const(1), x)], 1, "s")])
    assert vf._relation_session(expr, s3).tables.separators == set()
    with pytest.raises(vf.VerifierError, match="relation undecided"):
        vf.relation_probability(expr, s3)


def test_central_laurent_separators_are_guarded_arguments(s3_std):
    """central_laurent's declared separators sit inside its psi sum, not in
    the root product: they are arguments, too many to enumerate."""
    doc = idf.central_laurent(6)
    assert vf._doc_tables(doc).separators == set()
    verdict = vf.holds_guarded(doc, s3_std)
    assert verdict.status == "fails" and verdict.detail["args_exhaustive"] is False
    assert _witness_nonzero(doc, s3_std, verdict)


@pytest.mark.parametrize("first", [True, False])
def test_structured_family_must_assign_every_variable(first):
    """The class family assigns no q, so the check is refused whether q - 1
    comes first or last, where an earlier vanishing factor would hide it."""
    rho4 = catalog.symmetric(4).rep("rho4")
    doc = idf.class_identity(rho4)
    extra = [sub(var("q"), const(1))]
    children = list(doc.expr.children)
    bad = idf.IdentityDoc(doc.family, prod(extra + children if first else children + extra),
                          doc.guards, doc.params, doc.citation)
    with pytest.raises(vf.VerifierError, match="q"):
        vf.holds_structured(bad, rho4)
