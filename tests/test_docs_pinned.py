"""Every public builder's output is pinned in tests/data/docs_pinned.json:
the sha256 of its JSON and its count of distinct DAG nodes (the evaluator
memoises per node, so the sharing a builder produces is part of what it
promises), or the BuildError message of a bad argument.  Nodes are
interned when they are built, so sharing is structural: the count is that
of distinct subterms, and a document loaded from its JSON is the DAG its
builder made.

It needs no pytest; to check on an interpreter without it, run

    PYTHONPATH=src python tests/test_docs_pinned.py
"""

import hashlib
import json
from pathlib import Path

from repident import catalog, idfactory as idf
from repident.exactnum import Cyc
from repident.freeexpr import Expr, const, inv, power, prod, stream_subsets, sub, var

PINNED = Path(__file__).parent / "data" / "docs_pinned.json"


def _nodes(roots) -> list:
    """The distinct nodes of the DAGs under roots."""
    seen: dict = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.children)
    return list(seen.values())


def _node_count(roots) -> int:
    return len(_nodes(roots))


def _pin(build) -> dict:
    try:
        out = build()
    except idf.BuildError as exc:
        return {"error": str(exc)}
    if isinstance(out, idf.IdentityDoc):
        blob, roots = out.to_json(), [out.expr]
    elif isinstance(out, Expr):
        blob, roots = out.to_json(), [out]
    else:  # guard_factors: (factors, guard variables)
        factors, gvars = out
        blob = {"factors": [f.to_json() for f in factors], "vars": [g.to_json() for g in gvars]}
        roots = factors + gvars
    text = json.dumps(blob)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "nodes": _node_count(roots)}


def _cases() -> dict:
    reps = {
        "S3:std": catalog.symmetric(3).rep("std"),
        "Q8:dim2": catalog.quaternion().rep("dim2"),
        "S4:rho4": catalog.symmetric(4).rep("rho4"),
        "H3:theta1": catalog.heisenberg(3).rep("theta1"),
    }
    x = var("x")
    comm = sub(prod([inv(var("a")), inv(var("b")), var("a"), var("b")]), const(1))
    cases = {
        "guard_factors(3)": lambda: idf.guard_factors(3),
        "guard_factors(4, x, s)": lambda: idf.guard_factors(4, "x", "s"),
        "guard_C(1)": lambda: idf.guard_C(1),
        "psi(0)": lambda: idf.psi(0),
        "standard(0)": lambda: idf.standard_identity(0),
        "central_laurent(1)": lambda: idf.central_laurent(1),
        "disjunctive(x^6)": lambda: idf.disjunctive_identity([power(x, 6)]),
        "disjunctive(x^2, comm)": lambda: idf.disjunctive_identity(
            [power(x, 2), prod([inv(var("a")), var("b"), var("a")])]),
        "disjunctive()": lambda: idf.disjunctive_identity([]),
        "substitute(comm)": lambda: idf.substitute(comm, {"a": power(x, 2), "b": inv(x)}),
        "substitute(stream)": lambda: idf.substitute(stream_subsets([x], 1, "v"), {}),
        "probability(0, 2)": lambda: idf.probability_identity(comm, 0, 2),
        "probability(5, 2)": lambda: idf.probability_identity(comm, 5, 2),
        "gamma_separating(S3)": lambda: idf.gamma_separating_identity(catalog.symmetric(3), 1),
        "s4_separating(S3:std)": lambda: idf.s4_separating_identity(reps["S3:std"]),
        "s4_separating(S4:rho5)": lambda: idf.s4_separating_identity(
            catalog.symmetric(4).rep("rho5")),
    }
    for k in range(1, 7):
        cases[f"standard({k})"] = lambda k=k: idf.standard_identity(k)
    for t, m in ((1, 2), (3, 2), (19, 6)):
        cases[f"probability({t}, {m})"] = lambda t=t, m=m: idf.probability_identity(comm, t, m)
    cases["gamma_separating(1)"] = (
        lambda: idf.gamma_separating_identity(catalog.gamma_d(7, 9, 2), 1))
    for i in range(1, 4):
        cases[f"sigma_hat_expr({i})"] = (
            lambda i=i: idf.sigma_hat_expr(i, x, [var("y1"), var("y2")], 2, 3))

    for label, rep in reps.items():
        m, n = rep.group.order, rep.dim
        small = m <= 8

        def add(name, build, label=label):
            cases[f"{label} {name}"] = build

        def indices(count, small=small):
            """0..count+1 on a small group; 0, 1 and count+1 on a large one,
            where each document is big."""
            return range(count + 2) if small else sorted({0, 1, count + 1})

        add("guard_C", lambda m=m: idf.guard_C(m))
        add("psi", lambda m=m: idf.psi(m))
        add("theta", lambda m=m: idf.theta(m))
        add("dimension", lambda m=m, n=n: idf.dimension_identity(m, n))
        add("dimension_alt", lambda m=m, n=n: idf.dimension_identity_alt(m, n))
        add("cayley_hamilton", lambda m=m, n=n: idf.cayley_hamilton_identity(m, n))
        add("su_membership", lambda m=m, n=n: idf.su_membership_identity(m, n))
        add("central_laurent", lambda m=m: idf.central_laurent(m))
        add("psi_expr", lambda m=m: idf.psi_expr(
            power(x, 2), [var(f"y{j}") for j in range(1, m + 1)]))
        add("character", lambda rep=rep: idf.character_identity(rep))
        values = rep.character.range_values(rep.key_conductor)
        for j in range(1, len(values) + 1 if small else 2):
            add(f"range({j})",
                lambda rep=rep, xi=values[j - 1]: idf.range_identity(rep, xi))
        add("range(outside)", lambda rep=rep: idf.range_identity(rep, Cyc.from_rational(7)))
        for i in indices(len(values)):
            add(f"level_set({i})", lambda rep=rep, i=i: idf.level_set_identity(rep, i))
        for variant in ("character", "adams", "bogus"):
            add(f"class({variant})",
                lambda rep=rep, variant=variant: idf.class_identity(rep, variant))
        for i in indices(n):
            add(f"sigma({i})", lambda rep=rep, i=i: idf.sigma_identity(rep, i))
        add("spectrum", lambda rep=rep: idf.spectrum_identity(rep))
        blocks = len(rep.adams_partition)
        yvars = [var(f"y{j}") for j in range(1, m + 1)]
        for i in indices(blocks):
            add(f"adams_block_expr({i})",
                lambda rep=rep, i=i, yvars=yvars: idf.adams_block_expr(rep, i, x, yvars))
            add(f"spectrum_level({i})",
                lambda rep=rep, i=i: idf.spectrum_level_identity(rep, i))
            add(f"gassmann({i})", lambda rep=rep, i=i: idf.gassmann_identity(rep, i))
        add("central_series_gassmann(0, 1)",
            lambda rep=rep: idf.central_series_gassmann_identity(rep, 0, 1))
        for t in (1, 2):
            for i in indices(blocks):
                add(f"central_series_gassmann({t}, {i})",
                    lambda rep=rep, t=t, i=i: idf.central_series_gassmann_identity(rep, t, i))
        for variant in ("maximal", "union", "bogus"):
            add(f"minimal_poly({variant})",
                lambda rep=rep, variant=variant: idf.minimal_poly_identity(rep, variant))
        cc = rep.group.conjugacy_classes
        classes = [sorted(c) for c in cc.classes]
        add("central_partition(classes)",
            lambda rep=rep, classes=classes: idf.central_partition_identity(rep, classes))
        noncentral = next(g for g in range(m) if len(cc.classes[cc.index_of(g)]) > 1)
        rest = [g for g in range(m) if g != noncentral]
        add("central_partition(nonscalar)",
            lambda rep=rep, g=noncentral, rest=rest:
            idf.central_partition_identity(rep, [[g], rest]))
        add("central_partition(overlap)",
            lambda rep=rep, m=m: idf.central_partition_identity(rep, [[0], list(range(m))]))
        for i in indices(len(rep.group.order_statistics())):
            add(f"fixed_point({i})", lambda rep=rep, i=i: idf.fixed_point_identity(rep, i))
        # streamed products small enough to unroll
        if label in ("S3:std", "Q8:dim2"):
            add("expand(level_set(1))",
                lambda rep=rep: idf.expand_doc(idf.level_set_identity(rep, 1)))
            add("expand(gassmann(1))",
                lambda rep=rep: idf.expand_doc(idf.gassmann_identity(rep, 1)))
        if label != "H3:theta1":
            for variant in ("character", "adams"):
                add(f"expand(class({variant}))", lambda rep=rep, variant=variant:
                    idf.expand_doc(idf.class_identity(rep, variant)))
    cases["S3:std expand(central_partition)"] = lambda: idf.expand_doc(
        idf.central_partition_identity(reps["S3:std"], [[0], [1, 2, 3, 4, 5]]))
    cases["S4:rho4 s4_separating"] = lambda: idf.s4_separating_identity(reps["S4:rho4"])
    cases["S3:std expand(probability(3, 2))"] = (
        lambda: idf.expand_doc(idf.probability_identity(comm, 3, 2)))
    return cases


def _mismatches() -> list[str]:
    pinned = json.loads(PINNED.read_text())
    cases = _cases()
    out = []
    if list(cases) != list(pinned):
        out.append("case names differ from the pinned file")
    for name, build in cases.items():
        if _pin(build) != pinned.get(name):
            out.append(name)
    return out


def _not_loaded_as_built() -> list[str]:
    """The cases whose expression, written to JSON and loaded back, is not
    the built node itself."""
    out = []
    for name, build in _cases().items():
        try:
            built = build()
        except idf.BuildError:
            continue
        if isinstance(built, idf.IdentityDoc):
            loaded = idf.IdentityDoc.from_json(json.loads(json.dumps(built.to_json())))
            if loaded.expr is not built.expr:
                out.append(name)
        elif isinstance(built, Expr):
            if Expr.from_json(json.loads(json.dumps(built.to_json()))) is not built:
                out.append(name)
    return out


def test_streamed_builder_documents_separate_their_factors():
    """Premise (c) of the no-vanishing-factor certificate holds on every
    builder document with a streamed node: each root value factor after the
    first follows a fresh separator or a subset or partition stream, so a
    streamed root factor with no vanishing factor is certified where
    premises (a) and (b) hold."""
    from repident import verifier

    streamed = []
    for name, build in _cases().items():
        try:
            doc = build()
        except idf.BuildError:
            continue
        if isinstance(doc, idf.IdentityDoc) and any(
                n.kind.startswith("stream") for n in _nodes([doc.expr])):
            streamed.append(name)
            assert verifier._doc_tables(doc).separated, name
    assert len(streamed) > 20


def test_builder_documents_pinned():
    assert _mismatches() == []


def test_loaded_documents_are_their_builders_dags():
    assert _not_loaded_as_built() == []


if __name__ == "__main__":
    bad = _mismatches() + [f"{name} (loaded)" for name in _not_loaded_as_built()]
    for name in bad:
        print("MISMATCH", name)
    print(f"{len(_cases())} cases, {len(bad)} mismatches")
    raise SystemExit(1 if bad else 0)
