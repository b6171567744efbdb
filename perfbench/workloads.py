"""The three workloads: set-up and the fixed list of operations of each.

A workload builds its groups, representations and identity documents in
``setup()`` and returns the operations of one round from ``ops()``. Every
operation is one verdict: a ``verifier`` holds_*/sl2 call or one
``equivalence.compare_all`` call. Each carries the status it must return
and a check of its output that runs outside the timed phase (see
``checks.py``).

All inputs come from the ``--seed`` argument: it draws the seeds handed to
the verifier and, on compare-pairs, which representations are paired. The
same seed gives the same operations in the same order, in every round.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from repident import catalog, equivalence as eq, idfactory as idf, verifier as vf
from repident.freeexpr import const, inv, power, prod, sub, sum_, var

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    expect: str  # "holds", "fails" or "compare"
    check: Callable[[object], list[str]]
    quick: bool = False  # part of the cut-down list the self-test runs


def clear_program_caches():
    """Forget every memoized catalog entry so that set-up builds again.

    The automorphism cache in equivalence is keyed by id(group); it is
    cleared too, because the groups it refers to are about to be freed and
    their ids may be reused.
    """
    for obj in vars(catalog).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    eq._AUTO_CACHE.clear()


def _draw_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 1_000_000) for _ in range(count)]


def _verdict_check(doc, rep, extra=None):
    """Re-evaluate a fails witness; then run any extra check."""

    def check(verdict):
        problems = []
        if verdict.status == "fails":
            problems += checks.witness_problems(doc, rep, verdict.counterexample)
        if extra is not None:
            problems += extra(verdict)
        return problems

    return check


def _witness_order(rep, var_name: str, order: int):
    def check(verdict):
        g = verdict.counterexample[var_name]
        got = checks.table_order(rep.group.table, g)
        return [] if got == order else [f"witness {var_name} has order {got}, not {order}"]

    return check


# -- conjugation-averages ------------------------------------------------------------


class ConjugationAverages:
    """Guarded and structured verdicts over sums of conjugated words.

    Besides the three large verdicts (A5 and the metacyclic group), most
    verdicts cost about 0.15-0.2 s here: their guard orderings (the
    canonical one plus seeded shuffles) and sample counts are chosen so, and
    the median and the tail then read from that group in every run.
    """

    charid_seeds = 6

    def __init__(self, seed: int, quick: bool = False):
        self.quick = quick
        self.seeds = _draw_seeds(seed, 9)

    def setup(self) -> dict:
        ctx: dict = {}
        ctx["std"] = catalog.symmetric(3).rep("std")
        s4 = catalog.symmetric(4)
        ctx["rho4"], ctx["rho5"] = s4.rep("rho4"), s4.rep("rho5")
        ctx["s4doc4"] = idf.s4_separating_identity(ctx["rho4"])
        ctx["s4doc5"] = idf.s4_separating_identity(ctx["rho5"])
        ctx["dim"] = {n: idf.dimension_identity(6, n) for n in (2, 1, 3, 4)}
        comm = sub(prod([inv(var("a")), inv(var("b")), var("a"), var("b")]), const(1))
        ctx["prob"] = {t: idf.probability_identity(comm, t, 6) for t in (18, 19)}
        ctx["class"] = idf.class_identity(ctx["rho4"])
        # (representation, guard orderings) of each character identity
        charid_reps = [(ctx["rho4"], 2), (catalog.binary_tetrahedral().rep("nat"), 3),
                       (catalog.heisenberg(3).rep("theta1"), 1)]
        if not self.quick:
            charid_reps.append((catalog.alternating(5).rep("dim3a"), 1))
            gam = catalog.gamma_d(7, 9, 2)
            ctx["gamma"] = gam
            ctx["p11"], ctx["p12"] = gam.rep("pi(1,1)"), gam.rep("pi(1,2)")
            ctx["gsep"] = idf.gamma_separating_identity(gam, 1)
        ctx["charids"] = [(rep, o, idf.character_identity(rep)) for rep, o in charid_reps]
        return ctx

    def ops(self, ctx: dict) -> list[Op]:
        s = self.seeds
        ops: list[Op] = []

        def guarded(name, doc, rep, expect, seed, orderings, extra=None, quick=False):
            ops.append(Op(name, lambda: vf.holds_guarded(doc, rep, seed=seed,
                                                         orderings=orderings),
                          expect, _verdict_check(doc, rep, extra), quick))

        for rep, o, doc in ctx["charids"]:
            big = rep.group.order == 60
            for k in range(1 if big else self.charid_seeds):
                guarded(f"guarded character identity on {rep.name} seed#{k}", doc, rep,
                        "holds", s[k], o,
                        lambda _v, doc=doc, rep=rep: checks.character_constants_problems(
                            doc, rep), quick=k == 0 and not big)
        if not self.quick:
            gam, gsep = ctx["gamma"], ctx["gsep"]

            def pure_power(v):
                a, b = gam.elements[v.counterexample["z"]]
                return [] if a == 0 and b % 3 else ["gamma witness z is not a power "
                                                    "of the order-9 generator"]

            guarded("guarded gamma-sep on pi(1,1)", gsep, ctx["p11"], "holds", s[1], 1)
            guarded("guarded gamma-sep on pi(1,2)", gsep, ctx["p12"], "fails", s[1], 1,
                    pure_power)
        rho4, rho5 = ctx["rho4"], ctx["rho5"]
        for k in range(2):
            for doc_name, rep, expect in (("s4doc4", rho4, "holds"), ("s4doc5", rho5, "holds"),
                                          ("s4doc4", rho5, "fails"), ("s4doc5", rho4, "fails")):
                extra = _witness_order(rep, "x", 4) if expect == "fails" else None
                guarded(f"guarded S4 {doc_name} on {rep.name} seed#{k}", ctx[doc_name], rep,
                        expect, s[6 + k], 4, extra, quick=k == 0)
        std = ctx["std"]

        def is_dim(n):
            def check(_v):
                return [] if std.images[0].n == n else [f"S3:std is not {n}-dimensional"]
            return check

        for n, doc in ctx["dim"].items():
            guarded(f"guarded S3 dimension n={n}", doc, std, "holds" if n == 2 else "fails",
                    s[8], 1, is_dim(2) if n == 2 else None, quick=True)
        pairs = checks.commuting_pairs(std.group.table)

        def commuting(_v):
            # the relation holds on `pairs` of the 36 pairs, and the streamed
            # product has a vanishing t-subset exactly when pairs >= t
            return [] if pairs == 18 else [f"{pairs}/36 commuting pairs, not 18/36"]

        for t, doc in ctx["prob"].items():
            # the t=19 witness is a streamed nonvanishing certificate, so the
            # table count stands in for re-evaluation
            ops.append(Op(f"guarded S3 commutator probability t={t}",
                          lambda doc=doc: vf.holds_guarded(doc, std, seed=s[8], orderings=1),
                          "holds" if t <= 18 else "fails", commuting, quick=True))
        cls = ctx["class"]

        def class_sizes(_v):
            want = checks.table_class_sizes(rho4.group.table)
            return [] if sorted(cls.params["sizes"]) == want else [
                "class identity sizes differ from the table's classes"]

        for k in range(2):
            ops.append(Op(f"structured S4 class identity on rho4 seed#{k}",
                          lambda seed=s[6 + k]: vf.holds_structured(cls, rho4, seed=seed,
                                                                    extra_samples=50),
                          "holds", class_sizes, quick=k == 0))
        return ops


# -- word-products ---------------------------------------------------------------------


class WordProducts:
    """Sampled and exhaustive verdicts over products of words, no averages.

    A sample of s6 costs 15-60 ms depending on the representation, so each
    representation gets the sample count that makes its verdicts cost about
    the same; the median and the tail then read from that group.
    """

    # (group, representation, samples per s6 verdict)
    s6_reps = (("H3", "theta1", 29), ("gamma(7,9,2)", "pi(1,1)", 18), ("S4", "rho4", 19),
               ("W3", "rho_w", 22), ("2T", "nat", 32), ("A5", "dim3a", 8))

    def __init__(self, seed: int, quick: bool = False):
        self.quick = quick
        self.seeds = _draw_seeds(seed, 8)

    def setup(self) -> dict:
        ctx: dict = {}
        names = self.s6_reps[:1] if self.quick else self.s6_reps
        ctx["s6_reps"] = [(catalog.get_entry(g).rep(r), n) for g, r, n in names]
        ctx["theta1"] = catalog.heisenberg(3).rep("theta1")
        ctx["rho4"] = catalog.symmetric(4).rep("rho4")
        ctx["tau"] = catalog.alternating(4).rep("tau")
        ctx["s6"] = idf.standard_identity(6)
        ctx["guard28"] = idf.guard_C(28)
        ctx["cube"] = idf.disjunctive_identity([power(var("x"), 3)])
        ctx["minpoly"] = idf.minimal_poly_identity(ctx["tau"], "maximal")
        x, y = var("x"), var("y")
        tr_y = sum_([y, inv(y)])
        ctx["sl2"] = sub(prod([tr_y, x]), prod([x, tr_y]))
        if not self.quick:
            ctx["dim4"] = catalog.alternating(5).rep("dim4")
            ctx["s8"] = idf.standard_identity(8)
        return ctx

    def ops(self, ctx: dict) -> list[Op]:
        s = self.seeds
        ops: list[Op] = []
        s6 = ctx["s6"]

        def amitsur_levitzki(rep, k):
            def check(_v):
                n = rep.images[0].n
                return [] if k >= 2 * n else [f"s{k} need not hold in dimension {n}"]
            return check

        for k in range(3):
            for rep, n in ctx["s6_reps"]:
                ops.append(Op(f"sampled s6 on {rep.name} seed#{k}",
                              lambda rep=rep, n=n, seed=s[k]: vf.holds_sampled(
                                  s6, rep, n=n, seed=seed),
                              "holds", amitsur_levitzki(rep, 6), quick=k == 0))
        if not self.quick:
            dim4 = ctx["dim4"]

            def burnside(v):
                # images spanning all of M4 make s6 fail; the witness is the
                # signed sum of its 720 products, summed directly
                problems = [] if checks.span_dimension(dim4) == 16 else [
                    "A5:dim4 images do not span M4"]
                elements = [v.counterexample[f"y{i}"] for i in range(1, 7)]
                if checks.standard_sum(dim4, elements).is_zero():
                    problems.append("s6 witness sums to zero")
                return problems

            ops.append(Op("sampled s6 on A5:dim4", lambda: vf.holds_sampled(
                s6, dim4, n=10, seed=s[3]), "fails", burnside))
            s8 = ctx["s8"]
            ops.append(Op("sampled s8 on A5:dim4", lambda: vf.holds_sampled(
                s8, dim4, n=2, seed=s[4]), "holds", amitsur_levitzki(dim4, 8)))
        theta1 = ctx["theta1"]
        guard28 = ctx["guard28"]
        ops.append(Op("sampled guard_C(28) on H3:theta1", lambda: vf.holds_sampled(
            guard28, theta1, n=150, seed=s[5]), "holds",
            lambda _v: [] if len(theta1.group.table) < 28 else ["H3 has 28 or more elements"],
            quick=True))
        cube = ctx["cube"]
        ops.append(Op("exhaustive x^3 on H3:theta1", lambda: vf.holds_exhaustive(
            cube, theta1, budget=10**6), "holds",
            lambda _v: [] if checks.table_exponent(theta1.group.table) == 3 else [
                "H3 does not have exponent 3"], quick=True))
        mp, tau, rho4 = ctx["minpoly"], ctx["tau"], ctx["rho4"]

        def all_assignments(rep):
            def check(v):
                total = rep.group.order ** len(mp.expr.free_vars())
                return [] if v.detail["assignments"] == total else [
                    "exhaustive assignment count is not m^k"]
            return check

        ops.append(Op("exhaustive min-poly on A4:tau", lambda: vf.holds_exhaustive(
            mp, tau, budget=10**5), "holds", all_assignments(tau), quick=True))
        ops.append(Op("exhaustive min-poly on S4:rho4", lambda: vf.holds_exhaustive(
            mp, rho4, budget=10**5), "fails",
            _verdict_check(mp, rho4, _witness_order(rho4, "x", 4)), quick=True))
        s2 = ctx["sl2"]
        ops.append(Op("sl2 sampled [tr(y), x]", lambda: vf.sl2_sample_check(
            s2, trials=300, seed=s[6]), "holds",
            lambda _v: checks.sl2_problems(random.Random(s[6]), 20), quick=True))
        ops.append(Op("sl2 Cayley-Hamilton trace identity", lambda: vf.sl2_trace_identity_check(
            trials=300, seed=s[7]), "holds",
            lambda _v: checks.sl2_problems(random.Random(s[7]), 20), quick=True))
        return ops


# -- compare-pairs ------------------------------------------------------------------


def _invertible_mod3() -> list[list[list[int]]]:
    out = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3:
            out.append([[a, b], [c, d]])
    return out


class ComparePairs:
    """compare_all on pairs whose relations are known; no freeexpr or verifier.

    Every pair of six fixed pi(k,l) of the metacyclic group is compared
    (0.4-0.6 s each), so the median and the tail read from those pairs. The
    seed draws the pairs of the order-9 abelian group's representations.
    """

    gamma_reps = ("pi(1,1)", "pi(1,2)", "pi(1,4)", "pi(2,1)", "pi(3,1)", "pi(2,2)")
    abelian_pairs = 3

    def __init__(self, seed: int, quick: bool = False):
        self.quick = quick
        rng = random.Random(seed)
        forms = _invertible_mod3()
        count = 2 if quick else self.abelian_pairs
        self.abelian_picks = [(rng.randrange(len(forms)), rng.randrange(len(forms)))
                              for _ in range(count)]
        self.forms = forms

    def setup(self) -> dict:
        ctx: dict = {"pairs": []}
        pairs = ctx["pairs"]
        s4 = catalog.symmetric(4)
        pairs.append(("S4 rho4/rho5", s4.rep("rho4"), s4.rep("rho5")))
        h3 = catalog.heisenberg(3)
        pairs.append(("H3 theta1/theta2", h3.rep("theta1"), h3.rep("theta2")))
        for i, j in self.abelian_picks:
            a = catalog.abelian_rep(3, 2, 2, self.forms[i])
            b = catalog.abelian_rep(3, 2, 2, self.forms[j])
            pairs.append((f"Z3^2 V{i}/V{j}", a, b))
        if self.quick:
            return ctx
        w3 = catalog.wreath(3)
        pairs.append(("W3 rho_w/rho_hw", w3.rep("rho_w"), w3.rep("rho_hw")))
        a5 = catalog.alternating(5)
        pairs.append(("A5 dim3a/dim3b", a5.rep("dim3a"), a5.rep("dim3b")))
        gam = catalog.gamma_d(7, 9, 2)
        reps = [gam.rep(name) for name in self.gamma_reps]
        for (a, rep_a), (b, rep_b) in itertools.combinations(zip(self.gamma_reps, reps), 2):
            pairs.append((f"gamma {a}/{b}", rep_a, rep_b))
        return ctx

    # relations known from the paper and the acceptance suite
    known = {
        "gamma pi(1,1)/pi(1,2)": {"gassmann": True, "similar": False},
        "W3 rho_w/rho_hw": {"similar": True, "galois": False, "uniform_gassmann": False},
        "S4 rho4/rho5": {"strong_table_equiv": True, "gassmann": False},
        "Z3^2": {"similar": True},
    }

    def ops(self, ctx: dict) -> list[Op]:
        ops = []
        for name, rep1, rep2 in ctx["pairs"]:
            known = self.known.get(name) or self.known.get(name.split(" ")[0], {})

            def check(out, rep1=rep1, rep2=rep2, known=known):
                problems = [f"{k} is {out.get(k)}, expected {v}" for k, v in known.items()
                            if out.get(k) != v]
                similar = eq.similar_reps(rep1, rep2) if "similar" in out else None
                galois = eq.galois_conjugate_reps(rep1, rep2) if "galois" in out else None
                return problems + checks.compare_problems(out, rep1, rep2, similar, galois)

            ops.append(Op(f"compare {name}", lambda rep1=rep1, rep2=rep2: eq.compare_all(
                rep1, rep2), "compare", check, quick=True))
        return ops


WORKLOADS = {
    "conjugation-averages": ConjugationAverages,
    "word-products": WordProducts,
    "compare-pairs": ComparePairs,
}
