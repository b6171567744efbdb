"""Command-line front end: build identity documents, check them against
representations, compare representations, and run the experiment sweeps.

All outputs are UTF-8 JSON with insertion-ordered keys.  Exit codes:
0 for holds/true, 1 for fails/false, 2 for usage errors.  Every random
decision is seeded and the seed is echoed in the output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import catalog, equivalence, idfactory, verifier
from .exactnum import Cyc, cyc_root_of_unity
from .freeexpr import (Expr, NonGroupSubtermError, StreamUndecided, const, inv, power, prod,
                       sub, var)
from .idfactory import IdentityDoc
from .replab import Rep


class UsageError(ValueError):
    pass


def _resolve_rep(ref: str) -> Rep:
    if ref.startswith("catalog:"):
        rest = ref[len("catalog:"):]
        group_name, sep, rep_name = rest.rpartition(":")
        if not sep:
            raise UsageError(f"rep ref {ref!r} needs catalog:<group>:<rep>")
        return catalog.get_rep(group_name, rep_name)
    if ref.startswith("file:"):
        return _load(ref[len("file:"):], "a representation", Rep.from_json)
    raise UsageError(f"unknown rep ref {ref!r} (use catalog:... or file:...)")


def _load(path: str, what: str, parse):
    """parse(the JSON in path); a UsageError when the file is not JSON or
    parse rejects it.  The cyclic collector is off meanwhile: everything
    json.load and parse allocate stays alive, so the full collections a
    large document would set off free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                return parse(json.load(fh))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise UsageError(f"{path} is not {what}: {exc!r}") from exc
    finally:
        if enabled:
            gc.enable()


def _resolve_entry(ref: str):
    name = ref[len("catalog:"):] if ref.startswith("catalog:") else ref
    return catalog.get_entry(name)


def parse_word(text: str) -> Expr:
    """Tiny word grammar: names, ^k powers, * products, comm(a,b)."""
    text = text.strip()

    def parse_product(s: str) -> Expr:
        parts = _split_top(s, "*")
        return prod([parse_atom(p) for p in parts])

    def parse_atom(s: str) -> Expr:
        s = s.strip()
        if s.startswith("comm(") and s.endswith(")"):
            args = _split_top(s[5:-1], ",")
            if len(args) != 2:
                raise UsageError("comm(a,b) takes two words")
            a, b = parse_product(args[0]), parse_product(args[1])
            return prod([inv(a), inv(b), a, b])
        if s.startswith("(") and s.endswith(")"):
            return parse_product(s[1:-1])
        if "^" in s:
            head, _, exp = s.rpartition("^")
            try:
                k = int(exp)
            except ValueError:
                raise UsageError(f"cannot parse exponent {exp!r} in word atom {s!r}") from None
            return power(parse_atom(head), k)
        if not s.isidentifier():
            raise UsageError(f"cannot parse word atom {s!r}")
        return var(s)

    def _split_top(s: str, ch: str) -> list[str]:
        out, depth, cur = [], 0, []
        for c in s:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            if c == ch and depth == 0:
                out.append("".join(cur))
                cur = []
            else:
                cur.append(c)
        out.append("".join(cur))
        return out

    return parse_product(text)


def _parse_scalar(text: str) -> Cyc:
    """Scalars: 'p/q' rationals or 'zeta:N:k' roots of unity."""
    try:
        if text.startswith("zeta:"):
            _, n, k = text.split(":")
            return cyc_root_of_unity(int(n), int(k))
        return Cyc.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse scalar {text!r} (use p/q or zeta:N:k)") from None


def build_document(args) -> IdentityDoc:
    fam = args.family
    rep = _resolve_rep(args.rep) if args.rep else None

    def need_rep():
        if rep is None:
            raise UsageError(f"family {fam!r} needs --rep")
        return rep

    if fam == "guard":
        return idfactory.guard_C(args.m)
    if fam == "psi":
        return idfactory.psi(args.m)
    if fam == "theta":
        return idfactory.theta(args.m)
    if fam == "character":
        return idfactory.character_identity(need_rep())
    if fam == "dimension":
        return idfactory.dimension_identity(args.m, args.n)
    if fam == "dimension-alt":
        return idfactory.dimension_identity_alt(args.m, args.n)
    if fam == "range":
        if args.xi is None:
            raise UsageError("range needs --xi")
        return idfactory.range_identity(need_rep(), _parse_scalar(args.xi))
    if fam == "level-set":
        return idfactory.level_set_identity(need_rep(), args.index)
    if fam == "class":
        return idfactory.class_identity(need_rep(), args.variant or "character")
    if fam == "s4-sep":
        return idfactory.s4_separating_identity(need_rep())
    if fam == "cayley-hamilton":
        return idfactory.cayley_hamilton_identity(args.m, args.n)
    if fam == "sigma":
        return idfactory.sigma_identity(need_rep(), args.index)
    if fam == "su":
        return idfactory.su_membership_identity(args.m, args.n)
    if fam == "spectrum":
        return idfactory.spectrum_identity(need_rep())
    if fam == "spectrum-level":
        return idfactory.spectrum_level_identity(need_rep(), args.index)
    if fam == "gassmann":
        return idfactory.gassmann_identity(need_rep(), args.index)
    if fam == "central-series-gassmann":
        return idfactory.central_series_gassmann_identity(need_rep(), args.t, args.index)
    if fam == "minimal-poly":
        return idfactory.minimal_poly_identity(need_rep(), args.variant or "maximal")
    if fam == "central-partition":
        if not args.blocks:
            raise UsageError("central-partition needs --blocks like '0,1|2,3,...'")
        try:
            blocks = [[int(x) for x in b.split(",")] for b in args.blocks.split("|")]
        except ValueError:
            raise UsageError(f"cannot parse --blocks {args.blocks!r}") from None
        return idfactory.central_partition_identity(need_rep(), blocks)
    if fam == "probability":
        if not args.word:
            raise UsageError("probability needs --word")
        u = sub(parse_word(args.word), const(1)) if args.minus_one else parse_word(args.word)
        return idfactory.probability_identity(u, args.t, args.m)
    if fam == "central-laurent":
        return idfactory.central_laurent(args.m)
    if fam == "gamma-sep":
        if not args.group:
            raise UsageError("gamma-sep needs --group gamma(m,n,r)")
        return idfactory.gamma_separating_identity(_resolve_entry(args.group), args.l)
    if fam == "disjunctive":
        if not args.words:
            raise UsageError("disjunctive needs --words w1;w2;...")
        return idfactory.disjunctive_identity([parse_word(w) for w in args.words.split(";")])
    if fam == "fixed-point":
        return idfactory.fixed_point_identity(need_rep(), args.index)
    if fam == "standard":
        return idfactory.standard_identity(args.m)
    raise UsageError(f"unknown family {fam!r}")


def _emit(obj: dict, path: str | None) -> str:
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return hashlib.sha256(text.encode()).hexdigest()


def cmd_build(args) -> int:
    doc = build_document(args)
    if args.emit == "expanded":
        doc = idfactory.expand_doc(doc, limit=args.expand_limit)
    payload = doc.to_json()
    digest = _emit(payload, args.output)
    if args.output:
        print(json.dumps({
            "command": "build",
            "family": args.family,
            "output": args.output,
            "artifact_sha256": digest,
        }, indent=2))
    return 0


def cmd_check(args) -> int:
    t0 = time.time()
    for flag, value, least in (("--n", args.n, 1), ("--trials", args.trials, 1),
                               ("--jobs", args.jobs, 1), ("--orderings", args.orderings, 0)):
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    if args.identity.startswith("file:") or args.identity.endswith(".json"):
        path = args.identity[len("file:"):] if args.identity.startswith("file:") else args.identity
        doc = _load(path, "an identity document", IdentityDoc.from_json)
    else:
        raise UsageError("check expects an identity file (file:path or path.json)")
    if not args.sl2:
        if not args.rep:
            raise UsageError("check needs --rep (or --sl2)")
        rep = _resolve_rep(args.rep)
    # the document and rep live until the process exits: frozen, they are
    # no longer traversed by every full collection the verification makes
    gc.freeze()
    if args.sl2:
        verdict = verifier.sl2_sample_check(doc.expr, trials=args.trials, seed=args.seed)
    else:
        verdict = verifier.check(doc, rep, mode=args.mode, seed=args.seed,
                                 budget=args.budget, n=args.n,
                                 orderings=args.orderings, jobs=args.jobs)
    out = {
        "command": "check",
        "identity_family": doc.family,
        "rep": args.rep,
        "mode": args.mode,
        "seed": args.seed,
    }
    detail = verdict.to_json()
    # a structured verdict whose family does not fit samples at its own seed
    sample_seed = detail.pop("seed", args.seed)
    if sample_seed != args.seed:
        detail["sample_seed"] = sample_seed
    out.update(detail)
    out["timing_ms"] = round((time.time() - t0) * 1000, 3)
    _emit(out, args.output)
    return 0 if verdict.holds else 1


def cmd_compare(args) -> int:
    t0 = time.time()
    rep_a = _resolve_rep(args.rep_a)
    rep_b = _resolve_rep(args.rep_b)
    result = equivalence.compare_all(rep_a, rep_b)
    out = {
        "command": "compare",
        "rep_a": args.rep_a,
        "rep_b": args.rep_b,
        "seed": args.seed,
    }
    out.update(result)
    out["timing_ms"] = round((time.time() - t0) * 1000, 3)
    _emit(out, args.output)
    key_order = ["similar", "galois", "gassmann"]
    overall = all(result.get(k, False) for k in key_order if k in result)
    return 0 if overall else 1


DEFAULT_SWEEP = ["Z5", "Z6", "S3", "S4", "A4", "Q8", "2T", "H3"]


def _sweep_reps(group_names):
    for name in group_names:
        entry = catalog.get_entry(name)
        for rep_name in entry.rep_names():
            rep = entry.rep(rep_name)
            if rep.is_irreducible():
                yield f"{name}:{rep_name}", rep


def cmd_experiment(args) -> int:
    t0 = time.time()
    groups = args.groups.split(",") if args.groups else DEFAULT_SWEEP
    reps = list(_sweep_reps(groups))
    findings = []
    if args.name == "range-ratio":
        # does range(chi1) = r * range(chi2) force r = 1?
        for (na, ra), (nb, rb) in _pairs(reps):
            hits = _range_ratios(ra, rb)
            for r in hits:
                if r != 1:
                    findings.append({"pair": [na, nb], "ratio": str(r)})
    elif args.name == "table-equivalence":
        # table equivalent but not strongly table equivalent?
        for (na, ra), (nb, rb) in _pairs(reps):
            if ra.group.table != rb.group.table:
                continue
            if equivalence.table_equivalent(ra.character, rb.character) and \
               not equivalence.strongly_table_equivalent(ra.character, rb.character):
                findings.append({"pair": [na, nb]})
    elif args.name == "strong-gassmann":
        # same-group Gassmann-equivalent irreps that are not strongly so?
        for (na, ra), (nb, rb) in _pairs(reps):
            if ra.group.table != rb.group.table:
                continue
            if equivalence.gassmann_equivalent(ra, rb) and \
               not equivalence.strong_gassmann(ra, rb):
                findings.append({"pair": [na, nb]})
    elif args.name == "signature-vs-table":
        # equal range signatures without table equivalence?
        for (na, ra), (nb, rb) in _pairs(reps):
            if ra.group.table != rb.group.table:
                continue
            if equivalence.range_signatures_equal(ra.character, rb.character) and \
               not equivalence.table_equivalent(ra.character, rb.character):
                findings.append({"pair": [na, nb]})
    else:
        raise UsageError(f"unknown experiment {args.name!r}; known: range-ratio, "
                         "table-equivalence, strong-gassmann, signature-vs-table")
    out = {
        "command": "experiment",
        "name": args.name,
        "groups": groups,
        "reps_swept": len(reps),
        "seed": args.seed,
        "findings": findings,
        "note": "an empty findings list reports no counterexample in the sweep; "
                "it asserts nothing beyond the sweep",
        "timing_ms": round((time.time() - t0) * 1000, 3),
    }
    _emit(out, args.output)
    return 0


def _pairs(items):
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            yield items[i], items[j]


def _range_ratios(ra: Rep, rb: Rep):
    from math import lcm

    kc = lcm(ra.key_conductor, rb.key_conductor)
    range_a = ra.character.range_values(kc)
    range_b = rb.character.range_values(kc)
    if len(range_a) != len(range_b):
        return []
    keys_a = {v.key(kc) for v in range_a}
    hits = []
    for r_num in (Fraction(ra.dim, rb.dim), Fraction(1)):
        scaled = {(v * Cyc.from_rational(r_num)).key(kc) for v in range_b}
        if scaled == keys_a:
            hits.append(r_num)
    return hits


def cmd_catalog(args) -> int:
    if args.action == "list":
        out = {"command": "catalog", "known": catalog.list_known(),
               "default_sweep": DEFAULT_SWEEP}
        _emit(out, args.output)
        return 0
    if args.action == "show":
        if not args.name:
            raise UsageError("catalog show needs a group name, for example S3")
        entry = catalog.get_entry(args.name)
        out = {
            "command": "catalog",
            "name": entry.name,
            "order": entry.group.order,
            "class_sizes": entry.group.conjugacy_classes.sizes,
            "order_statistics": list(entry.group.order_statistics()),
            "representations": entry.rep_names(),
        }
        if args.json_group:
            out["group"] = entry.group.to_json()
        _emit(out, args.output)
        return 0
    raise UsageError("catalog action must be list or show")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repident",
        description="exact identities of finite group representations: "
                    "builders, verifiers, equivalence tests",
    )
    p.add_argument("--strict", action="store_true",
                   help="refuse to run with the default seed")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an identity document")
    b.add_argument("family")
    b.add_argument("--rep", help="catalog:<group>:<rep> or file:<path>")
    b.add_argument("--group", help="group ref for group-parametrized families")
    b.add_argument("--m", type=int, default=2)
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--t", type=int, default=1)
    b.add_argument("--l", type=int, default=1)
    b.add_argument("--index", "--i", dest="index", type=int, default=1)
    b.add_argument("--xi")
    b.add_argument("--variant")
    b.add_argument("--blocks")
    b.add_argument("--word")
    b.add_argument("--minus-one", action="store_true",
                   help="use word - 1 as the relation")
    b.add_argument("--words")
    b.add_argument("--emit", choices=["streamed", "expanded"], default="streamed")
    b.add_argument("--expand-limit", type=int, default=10_000)
    b.add_argument("-o", "--output")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="check an identity document against a rep")
    c.add_argument("identity", help="identity JSON path")
    c.add_argument("--rep")
    c.add_argument("--mode", default="auto",
                   choices=["auto", "exhaustive", "guarded", "sampled", "structured"])
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=300_000)
    c.add_argument("--n", type=int, default=500,
                   help="sampled mode, and structured mode on a group its "
                        "family does not fit: uniform samples drawn")
    c.add_argument("--orderings", type=int, default=5,
                   help="guarded mode: random guard orderings after the canonical "
                        "one; on a document symmetric in its guards, orderings past "
                        "the first are decided from the first")
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--sl2", action="store_true",
                   help="evaluate over exact random determinant-one matrices")
    c.add_argument("--trials", type=int, default=1000)
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_check)

    q = sub.add_parser("compare", help="full equivalence predicate matrix")
    q.add_argument("--rep-a", required=True)
    q.add_argument("--rep-b", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_compare)

    e = sub.add_parser("experiment", help="sweep the catalog for counterexamples")
    e.add_argument("name")
    e.add_argument("--groups", help="comma-separated catalog group names")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_experiment)

    k = sub.add_parser("catalog", help="list or show catalog entries")
    k.add_argument("action", choices=["list", "show"])
    k.add_argument("name", nargs="?")
    k.add_argument("--json-group", action="store_true")
    k.add_argument("-o", "--output")
    k.set_defaults(func=cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.strict and getattr(args, "seed", None) == 0:
            raise UsageError("--strict refuses the default seed; pass --seed")
        return args.func(args)
    except (UsageError, catalog.CatalogError, idfactory.BuildError,
            verifier.VerifierError, StreamUndecided, NonGroupSubtermError,
            FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
