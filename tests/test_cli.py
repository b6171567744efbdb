import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repident
from repident import catalog, idfactory
from repident.cli import UsageError, _load
from repident.exactnum import Cyc, cyc_root_of_unity
from repident.freeexpr import const, inv, prod, sub, var

# the CLI subprocess imports the same package as the tests
_SRC = str(Path(repident.__file__).resolve().parents[1])


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repident.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_catalog_list_and_show():
    proc = run_cli("catalog", "list")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "gamma(m,n,r)" in payload["known"]
    proc = run_cli("catalog", "show", "S4")
    payload = json.loads(proc.stdout)
    assert payload["order"] == 24
    assert payload["representations"] == ["rho1", "rho2", "rho3", "rho4", "rho5"]


def test_build_check_round_trip(tmp_path):
    out = tmp_path / "id.json"
    proc = run_cli("build", "s4-sep", "--rep", "catalog:S4:rho4", "-o", str(out))
    assert proc.returncode == 0
    blob = json.loads(out.read_text())
    assert blob["family"] == "s4-separation"
    ok = run_cli("check", str(out), "--rep", "catalog:S4:rho4", "--seed", "5")
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["status"] == "holds" and payload["seed"] == 5
    bad = run_cli("check", str(out), "--rep", "catalog:S4:rho5", "--seed", "5")
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert payload["status"] == "fails" and "witness" in payload


def test_check_keeps_its_seed_beside_the_fallback_seed(tmp_path):
    """The Q8 class family does not fit H3, so the structured verdict samples
    at seed + 1; the command's own seed stays under "seed"."""
    out = tmp_path / "q8class.json"
    assert run_cli("build", "class", "--rep", "catalog:Q8:dim2", "-o", str(out)).returncode == 0
    proc = run_cli("check", str(out), "--rep", "catalog:H3:theta1", "--mode", "structured")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["status"] == "fails"
    assert payload["seed"] == 0 and payload["sample_seed"] == 1


def test_build_gamma_sep(tmp_path):
    out = tmp_path / "gamma.json"
    proc = run_cli("build", "gamma-sep", "--group", "gamma(7,9,2)", "--l", "1",
                   "-o", str(out))
    assert proc.returncode == 0
    blob = json.loads(out.read_text())
    assert blob["family"] == "gamma-separation"
    assert blob["params"]["l"] == 1


def test_build_guard_and_character(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("build", "guard", "--m", "3", "-o", str(out)).returncode == 0
    assert json.loads(out.read_text())["params"]["m"] == 3
    out2 = tmp_path / "c.json"
    assert run_cli("build", "character", "--rep", "catalog:S3:std",
                   "-o", str(out2)).returncode == 0


def test_full_guard_is_one_kernel_coset_test(tmp_path):
    """The S4:rho4 character identity, checked guarded over three orderings:
    rho4 is faithful, so its full guard never vanishes on a bijection and
    all 24 arguments of each ordering are checked; rho3 (kernel V4) and
    rho2 (kernel A4) are not, so the guard settles each ordering at once."""
    doc = tmp_path / "character.json"
    assert run_cli("build", "character", "--rep", "catalog:S4:rho4",
                   "-o", str(doc)).returncode == 0
    for rep, checked in (("rho4", 72), ("rho3", 3), ("rho2", 3)):
        proc = run_cli("check", str(doc), "--rep", f"catalog:S4:{rep}", "--mode", "guarded",
                       "--orderings", "2")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert (payload["status"], payload["checked"]) == ("holds", checked), rep


def test_compare_cli():
    proc = run_cli("compare", "--rep-a", "catalog:S4:rho4", "--rep-b", "catalog:S4:rho5")
    assert proc.returncode == 1  # not similar
    payload = json.loads(proc.stdout)
    assert payload["strong_table_equiv"] is True
    assert payload["gassmann"] is False


def test_usage_errors():
    cases = [
        ("build", "not-a-family"),
        ("check", "missing.json", "--rep", "catalog:S3:std"),
        ("--strict", "compare", "--rep-a", "catalog:S3:std", "--rep-b", "catalog:S3:std"),
        # text the word, scalar and block parsers cannot read
        ("build", "disjunctive", "--words", "x^a"),
        ("build", "range", "--rep", "catalog:S3:std", "--xi", "abc"),
        ("build", "range", "--rep", "catalog:S3:std", "--xi", "zeta:5"),
        ("build", "central-partition", "--rep", "catalog:S3:std", "--blocks", "0,a"),
        # sizes below 1
        ("build", "theta", "--m", "0"),
        ("build", "theta", "--m", "-1"),
        ("build", "dimension", "--m", "2", "--n", "0"),
        ("build", "dimension-alt", "--m", "2", "--n", "0"),
        ("build", "cayley-hamilton", "--m", "0", "--n", "2"),
        ("build", "su", "--m", "0", "--n", "1"),
        ("build", "su", "--m", "2", "--n", "0"),
        # catalog references that name no valid group
        ("catalog", "show"),
        ("catalog", "show", "gamma(a,b,c)"),
        ("catalog", "show", "Z0"),
        ("catalog", "show", "H0"),
        # Heisenberg and wreath groups need an odd prime p
        ("catalog", "show", "H1"),
        ("catalog", "show", "H2"),
        ("catalog", "show", "H4"),
        ("catalog", "show", "W4"),
        ("catalog", "show", "H4000000000000000000000000001"),
        ("build", "character", "--rep", "catalog:gamma(a,b,c):pi(1,1)"),
    ]
    for args in cases:
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert json.loads(proc.stderr)["error"], args
        assert "Traceback" not in proc.stderr, args


def test_experiment_sweep():
    proc = run_cli("experiment", "table-equivalence", "--groups", "S3,S4", "--seed", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert "asserts nothing" in payload["note"]
    proc = run_cli("experiment", "range-ratio", "--groups", "S3,Z6", "--seed", "1")
    assert proc.returncode == 0


def test_sl2_check(tmp_path):
    """s2 is the commutator y1 y2 - y2 y1: it fails on 2x2 matrices, with a
    witness whose commutator is nonzero in Fraction arithmetic.  s4 holds
    on 2x2 matrices (Amitsur-Levitzki)."""
    s2, s4 = tmp_path / "s2.json", tmp_path / "s4.json"
    for m, out in ((2, s2), (4, s4)):
        assert run_cli("build", "standard", "--m", str(m), "-o", str(out)).returncode == 0
    proc = run_cli("check", str(s2), "--sl2", "--trials", "10", "--seed", "1")
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["status"], payload["evidence"]) == ("fails", "sampled")
    a, b = ([[Fraction(v) for v in row] for row in payload["witness"][name]]
            for name in ("y1", "y2"))

    def mul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    assert mul(a, b) != mul(b, a)
    proc = run_cli("check", str(s4), "--sl2", "--trials", "10", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["status"], payload["evidence"]) == ("holds", "sampled")


def test_expansion_over_the_limit_is_a_usage_error():
    # the class identity's permutation body has 241,920 factors
    proc = run_cli("build", "class", "--rep", "catalog:H3:theta1", "--emit", "expanded")
    assert proc.returncode == 2
    assert "exceed the limit" in json.loads(proc.stderr)["error"]
    assert "Traceback" not in proc.stderr


def test_check_bad_input_is_a_usage_error(tmp_path):
    psi = tmp_path / "psi.json"
    assert run_cli("build", "psi", "--m", "3", "-o", str(psi)).returncode == 0
    char = tmp_path / "char.json"
    assert run_cli("build", "character", "--rep", "catalog:S3:std",
                   "-o", str(char)).returncode == 0
    no_group = tmp_path / "no_group.json"
    no_group.write_text('{"group": 3}')
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json")
    x3 = tmp_path / "x3.json"
    assert run_cli("build", "disjunctive", "--words", "x^3", "-o", str(x3)).returncode == 0
    # S3:std with one entry of one image changed: not a homomorphism
    bad_rep = catalog.symmetric(3).rep("std").to_json()
    bad_rep["images"][1][0] = Cyc.from_rational(5).to_json()
    not_hom = tmp_path / "not_hom.json"
    not_hom.write_text(json.dumps(bad_rep))
    # a streamed product: no representation to certify it on 2x2 matrices
    streamed = tmp_path / "streamed.json"
    streamed.write_text(json.dumps(
        idfactory.probability_identity(sub(var("x"), const(1)), 1, 2).to_json()))
    # the inverse of x - x: singular for every value of x
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps(idfactory.IdentityDoc(
        "test", inv(sub(var("x"), var("x"))), {}, {}, "singular inverse").to_json()))
    # guards that are not an object of lists of names, a name in two groups,
    # a guard that is not a variable of the expression, and the older role
    # map in place of guards
    bad_guards = []
    for k, guards in enumerate((["x"], {"X": "x"}, {"X": [1]}, {"A": ["x"], "B": ["x"]},
                                {"X": ["q"]}, None)):
        path = tmp_path / f"bad_guards{k}.json"
        doc = json.loads(x3.read_text())
        if guards is None:
            del doc["guards"]
            doc["var_roles"] = {"x": {"role": "psi-argument"}, "u0": {"role": "separator"},
                                "u1": {"role": "separator"}}
        else:
            doc["guards"] = guards
        path.write_text(json.dumps(doc))
        bad_guards.append((str(path), "--rep", "catalog:S3:std"))
    cases = bad_guards + [
        # a guard group of 3 variables on a group of order 6
        (str(psi), "--rep", "catalog:S3:std", "--mode", "guarded"),
        # the character family has no structured handler
        (str(char), "--rep", "catalog:S3:std", "--mode", "structured"),
        (str(char),),
        (str(char), "--rep", f"file:{no_group}"),
        (str(char), "--rep", f"file:{not_json}"),
        (str(char), "--rep", f"file:{not_hom}"),
        (str(not_json), "--rep", "catalog:S3:std"),
        (str(no_group), "--rep", "catalog:S3:std"),
        # counts out of range, which would check nothing and read as holds
        (str(x3), "--rep", "catalog:S3:std", "--mode", "sampled", "--n", "0"),
        (str(x3), "--rep", "catalog:S3:std", "--mode", "sampled", "--n", "-4"),
        (str(char), "--rep", "catalog:S3:std", "--mode", "guarded", "--orderings", "-1"),
        (str(x3), "--rep", "catalog:S3:std", "--jobs", "0"),
        (str(x3), "--sl2", "--trials", "0"),
        (str(streamed), "--sl2", "--trials", "5"),
        (str(singular), "--sl2", "--trials", "5", "--seed", "1"),
        (str(singular), "--rep", "catalog:S3:std"),
    ]
    for args in cases:
        proc = run_cli("check", *args)
        assert proc.returncode == 2, args
        assert json.loads(proc.stderr)["error"], args
        assert "Traceback" not in proc.stderr, args
    proc = run_cli("check", bad_guards[-1][0], "--rep", "catalog:S3:std")
    assert "var_roles" in json.loads(proc.stderr)["error"]


def test_a_zero_factor_spares_a_singular_inverse_after_it(tmp_path):
    """0 * inv(x - x) holds on 2x2 matrices and on S3:std alike: a product
    stops at its first zero factor.  inv(x - x) * 0 takes the singular
    inverse first, a usage error in both modes."""
    x = var("x")
    singular = inv(sub(x, x))
    for factors, code in (([const(0), singular], 0), ([singular, const(0)], 2)):
        path = tmp_path / f"zero_factor{code}.json"
        path.write_text(json.dumps(idfactory.IdentityDoc(
            "test", prod(factors), {}, {}, "zero factor").to_json()))
        for mode in (("--sl2", "--trials", "5"),
                     ("--rep", "catalog:S3:std", "--mode", "exhaustive")):
            proc = run_cli("check", str(path), *mode)
            assert proc.returncode == code, (factors, mode, proc.stderr)
            if code == 0:
                assert json.loads(proc.stdout)["status"] == "holds"
            else:
                assert json.loads(proc.stderr)["error"]
                assert "Traceback" not in proc.stderr


def test_roles_do_not_make_separators_or_arguments(tmp_path):
    """A guarded document is decided whatever its variables other than
    guards are: x, read by x - 1, is an argument, as every variable but
    guards and separators is.  A class document with q - 1 first, which its
    family never assigns, is a usage error."""
    factors, yvars = idfactory.guard_factors(6)
    other = tmp_path / "undeclared.json"
    other.write_text(json.dumps(idfactory.IdentityDoc(
        "test", prod(factors + [sub(var("x"), const(1))]), {"Y": idfactory._names(yvars)},
        {}, "an undeclared argument").to_json()))
    proc = run_cli("check", str(other), "--rep", "catalog:S3:std")
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["status"] == "fails" and "Traceback" not in proc.stderr
    doc = idfactory.class_identity(catalog.symmetric(4).rep("rho4"))
    unassigned = tmp_path / "unassigned.json"
    unassigned.write_text(json.dumps(idfactory.IdentityDoc(
        doc.family, prod([sub(var("q"), const(1))] + list(doc.expr.children)),
        doc.guards, doc.params, doc.citation).to_json()))
    proc = run_cli("check", str(unassigned), "--rep", "catalog:S4:rho4")
    assert proc.returncode == 2
    assert "q" in json.loads(proc.stderr)["error"] and "Traceback" not in proc.stderr


def _star_doc(child: dict) -> dict:
    """A document whose expression is star(child) * x * y - 1."""
    minus_one = {"kind": "const", "value": Cyc.from_rational(-1).to_json()}
    return {
        "family": "test", "params": {}, "citation": "loaded star node",
        "guards": {},
        "expr": {"kind": "sum", "children": [
            {"kind": "prod", "children": [{"kind": "star", "child": child},
                                          var("x").to_json(), var("y").to_json()]},
            minus_one]},
    }


def test_loaded_star_node_is_its_conjugate(tmp_path):
    """star(x y) x y - 1 = y^-1 x^-1 x y - 1 vanishes on every assignment."""
    path = tmp_path / "star.json"
    xy = {"kind": "prod", "children": [var("x").to_json(), var("y").to_json()]}
    path.write_text(json.dumps(_star_doc(xy)))
    proc = run_cli("check", str(path), "--rep", "catalog:S3:std", "--mode", "exhaustive")
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    payload = json.loads(proc.stdout)
    assert payload["status"] == "holds" and payload["assignments"] == 36, payload


def test_star_over_a_partition_stream_is_a_usage_error(tmp_path):
    path = tmp_path / "star_stream.json"
    stream = {"kind": "stream_partitions", "vars": ["x", "y"], "sizes": [1, 1],
              "targets": [Cyc.from_rational(1).to_json()] * 2, "separator_prefix": "v"}
    path.write_text(json.dumps(_star_doc(stream)))
    proc = run_cli("check", str(path), "--rep", "catalog:S3:std")
    assert proc.returncode == 2
    assert "star unsupported" in json.loads(proc.stderr)["error"]
    assert "Traceback" not in proc.stderr


def test_check_on_a_reducible_file_rep_is_not_certified_nonvanishing(tmp_path):
    """A streamed product with no vanishing base on a reducible `file:` rep
    is undecided, not a no-vanishing-factor failure: exit 0, holds, with an
    undecided count, in auto and exhaustive mode."""
    doc = idfactory.probability_identity(sub(var("x"), const(cyc_root_of_unity(3, 1))), 1, 3)
    doc_path, rep_path = tmp_path / "doc.json", tmp_path / "rep.json"
    doc_path.write_text(json.dumps(doc.to_json()))
    rep_path.write_text(json.dumps(catalog.abelian_rep(3, 1, 2, [[1], [2]]).to_json()))
    for mode in ("auto", "exhaustive"):
        proc = run_cli("check", str(doc_path), "--rep", f"file:{rep_path}", "--mode", mode)
        assert proc.returncode == 0, (mode, proc.stdout, proc.stderr)
        payload = json.loads(proc.stdout)
        assert payload["status"] == "holds" and payload["undecided"] > 0, (mode, payload)


def test_load_pauses_the_collector_and_restores_it(tmp_path):
    """The collector is off while a document loads and parses, and back in
    its prior state after a good file and after one that is not JSON."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": 1}')
    bad.write_text("{not json")
    seen = []

    def parse(obj):
        seen.append(gc.isenabled())
        return obj

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert _load(str(good), "a test file", parse) == {"a": 1}
            assert gc.isenabled() is enabled
            with pytest.raises(UsageError):
                _load(str(bad), "a test file", parse)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
