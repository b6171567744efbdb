"""The `repident` command line, end to end.

Most checks are cases in tests/data/cli_cases.json, grouped by name: the
cases of group g run in order as the tier-1 test test_g.  A case runs one
command through `python -m repident.cli` of the package these tests import
(`run_cli`) and states its exit code and what its output must hold
(`_run_case`).  A name in braces in an argv is a file made once per session
(`_Files`).  Run from outside the checkout with `-o pythonpath=`, this
module checks an installed package instead of `src` (README).
"""

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repident
from repident import catalog, idfactory, verifier
from repident.cli import UsageError, _load, _resolve_rep
from repident.exactnum import Cyc, cyc_root_of_unity
from repident.freeexpr import (const, inv, power, prod, reference_eval, stream_perm_body,
                               stream_subsets, sub, sum_, var)
from repident.matrices import Mat
from repident.replab import Rep, induced_rep, subgroup_group

# the CLI subprocess imports the same package as the tests
_SRC = str(Path(repident.__file__).resolve().parents[1])
_TABLE = json.loads((Path(__file__).parent / "data" / "cli_cases.json").read_text())


def run_cli(*args, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repident.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    return proc


# -- the files cases read ------------------------------------------------------

_x, _y, _v, _one = var("x"), var("y"), var("v"), const(1)
_singular = inv(sub(_x, _x))
_s = stream_subsets([_x], 1, "s")


def _doc(expr, guards=None):
    return idfactory.IdentityDoc("test", expr, guards or {}, {}, "a CLI case").to_json()


def _guarded(*extra):
    """guard_C(6)'s guard factors followed by extra, a document for S3."""
    factors, ys = idfactory.guard_factors(6)
    return _doc(prod(factors + list(extra)), {"Y": idfactory._names(ys)})


def _star_doc(child: dict) -> dict:
    """A document whose expression is star(child) * x * y - 1."""
    minus_one = {"kind": "const", "value": Cyc.from_rational(-1).to_json()}
    return {
        "family": "test", "params": {}, "citation": "loaded star node",
        "guards": {},
        "expr": {"kind": "sum", "children": [
            {"kind": "prod", "children": [{"kind": "star", "child": child},
                                          _x.to_json(), _y.to_json()]},
            minus_one]},
    }


def _bad_rep():
    """S3:std with one entry of one image changed: not a homomorphism."""
    rep = catalog.symmetric(3).rep("std").to_json()
    rep["images"][1][0] = Cyc.from_rational(5).to_json()
    return rep


def _s3_perm_rep():
    """The permutation rep of S3, induced from the trivial rep of an
    order-2 subgroup: reducible."""
    group = catalog.symmetric(3).group
    t = next(g for g in range(group.order) if group.element_order(g) == 2)
    sub_group, sub_map = subgroup_group(group, [0, t])
    trivial = Rep(sub_group, [Mat.identity(1)] * 2, name="trivial")
    return induced_rep(group, [0, t], trivial, sub_map, name="S3:perm").to_json()


def _unassigned():
    """q - 1, which the class family never assigns, before a class identity."""
    doc = idfactory.class_identity(catalog.symmetric(4).rep("rho4"))
    return idfactory.IdentityDoc(doc.family, prod([sub(var("q"), _one)] + list(doc.expr.children)),
                                 doc.guards, doc.params, doc.citation).to_json()


_WRITERS = {
    "not_json": lambda: "not json",
    "no_group": lambda: {"group": 3},
    "s3_rep": lambda: catalog.symmetric(3).rep("std").to_json(),
    "s3_bad_rep": _bad_rep,
    "s3_perm_rep": _s3_perm_rep,
    # diag(zeta^a, zeta^b) on Z3^2, and diag(zeta^a, zeta^2a) on Z3
    "z3sq_rep": lambda: catalog.abelian_rep(3, 2, 2, [[1, 0], [0, 1]]).to_json(),
    "reducible_rep": lambda: catalog.abelian_rep(3, 1, 2, [[1], [2]]).to_json(),
    "reducible_doc": lambda: idfactory.probability_identity(
        sub(_x, const(cyc_root_of_unity(3, 1))), 1, 3).to_json(),
    "streamed": lambda: idfactory.probability_identity(sub(_x, _one), 1, 2).to_json(),
    "singular": lambda: _doc(_singular),
    "zero_first": lambda: _doc(prod([const(0), _singular])),
    "zero_last": lambda: _doc(prod([_singular, const(0)])),
    "inverse": lambda: _doc(prod([inv(sum_([_x, _y])), sub(power(_y, 2), _one)])),
    "read": lambda: _guarded(sub(_x, _one), _v, sum_(
        [prod([inv(_v), sum_([power(_x, k) for k in range(6)])]), const(0)])),
    "bound": lambda: _guarded(sub(_v, _one)),
    "fresh": lambda: _guarded(var("w"), sub(power(_x, 6), _one)),
    "undeclared": lambda: _guarded(sub(_x, _one)),
    "s3_perm_doc": lambda: _guarded(sub(_x, _one), _v, sub(var("z"), _one), sub(var("w"), _one)),
    "unassigned": _unassigned,
    "star": lambda: _star_doc({"kind": "prod", "children": [_x.to_json(), _y.to_json()]}),
    "star_stream": lambda: _star_doc({
        "kind": "stream_partitions", "vars": ["x", "y"], "sizes": [1, 1],
        "targets": [Cyc.from_rational(1).to_json()] * 2, "separator_prefix": "v"}),
    # streamed products that hold on S3:std although no premise certifies
    # them: bases x - 1 and 1 - x, constant pairs, s - s, s and x - x as
    # bases, and 1 - x right after (1 + x)(1 + x + x^2), for s the stream
    # of x over its one 1-subset
    "subsets": lambda: _doc(stream_subsets([sub(_x, _one), sub(_one, _x)], 2, "s")),
    "perm_body": lambda: _doc(prod([stream_perm_body([2], [const(c) for c in (1, -1, 1, -1)]),
                                    _x])),
    "difference": lambda: _doc(sub(_s, _s)),
    "nested": lambda: _doc(stream_subsets([_s, sub(_x, _x)], 1, "o")),
    "adjacent": lambda: _doc(prod([prod([sum_([_one, _x]), sum_([_one, _x, power(_x, 2)])]),
                                   stream_subsets([sub(_one, _x)], 1, "s")])),
}


class _Files(dict):
    """Case files by name, each made on first use: a list in the table's
    "files" is the argv of a build (written with -o), {"patch": f, "with":
    keys} is file f with those keys set (null removes one), and any other
    name is made by its writer in `_WRITERS`."""

    def __init__(self, root: Path):
        super().__init__()
        self.root = root

    def __missing__(self, name):
        path = self.root / f"{name}.json"
        spec = _TABLE["files"].get(name)
        if isinstance(spec, list):
            proc = run_cli(*[arg.format_map(self) for arg in spec], "-o", str(path))
            assert proc.returncode == 0, (name, proc.stderr)
        elif spec is not None:
            blob = json.loads(Path(self[spec["patch"]]).read_text())
            for key, value in spec["with"].items():
                blob[key] = value
                if value is None:
                    del blob[key]
            path.write_text(json.dumps(blob))
        else:
            made = _WRITERS[name]()
            path.write_text(made if isinstance(made, str) else json.dumps(made))
        self[name] = str(path)
        return self[name]


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory):
    return _Files(tmp_path_factory.mktemp("cli_files"))


# -- the case runner -----------------------------------------------------------

def _output(proc, code, name):
    """The JSON a command printed: its error on stderr when it exits 2."""
    assert proc.returncode == code, (name, proc.stdout[-2000:], proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (name, proc.stderr)
    return json.loads(proc.stderr if code == 2 else proc.stdout)


def _witness_images(argv, witness):
    """The witness as matrices, and the rep it was found on (None in sl2)."""
    if "--sl2" in argv:
        return {v: Mat([[Cyc.from_rational(Fraction(e)) for e in row] for row in rows])
                for v, rows in witness.items()}, None
    rep = _resolve_rep(argv[argv.index("--rep") + 1])
    return {v: rep.image(g) for v, g in witness.items()}, rep


def _run_case(name, case, files):
    """Run a case: "argv"; "exit" (0 unless given); for exit 2, a JSON
    error on stderr containing "error" (if given); otherwise the output's
    "expect" fields, compared as parsed values, no "absent" key and,
    optionally, a witness that re-evaluates to nonzero in `reference_eval`
    ("revalidate") and whose variables in "order" are group elements of
    the given orders, and the same output over each of "jobs" workers,
    timing aside.  No case may print a traceback."""
    argv = [arg.format_map(files) for arg in case["argv"]]
    code = case.get("exit", 0)
    out = _output(run_cli(*argv), code, name)
    if code == 2:
        assert out["error"] and case.get("error", "") in out["error"], (name, out)
        return
    expect = case.get("expect", {})
    assert {key: out.get(key, "<absent>") for key in expect} == expect, (name, out)
    assert not set(case.get("absent", ())) & set(out), (name, out)
    if case.get("revalidate"):
        doc = _load(argv[1], "an identity document", idfactory.IdentityDoc.from_json)
        images, rep = _witness_images(argv, out["witness"])
        n = 2 if rep is None else rep.dim
        assert not reference_eval(doc.expr, images, n).is_zero(), (name, out["witness"])
        for v, order in case.get("order", {}).items():
            assert rep.group.element_order(out["witness"][v]) == order, (name, v)
    out.pop("timing_ms", None)
    for jobs in case.get("jobs", ()):
        parallel = _output(run_cli(*argv, "--jobs", str(jobs)), code, name)
        parallel.pop("timing_ms")
        assert parallel.pop("jobs") == jobs and parallel == out, (name, jobs, parallel)


def _group_test(group, cases):
    """test_<group>: the group's cases in order; a failure names the case."""

    def test(cli_files):
        for name, case in cases.items():
            _run_case(f"{group}: {name}", case, cli_files)

    test.__name__ = test.__qualname__ = f"test_{group}"
    return test


for _group, _cases in _TABLE["cases"].items():
    globals()[f"test_{_group}"] = _group_test(_group, _cases)


# -- checks that need the process -------------------------------------------------

def test_a_loaded_document_is_its_builders_dag(cli_files):
    """Expression nodes are interned: the spectrum document read from its
    file is the DAG of an in-process build that is still alive, and the
    check of the file gives the in-process verdict."""
    rep = catalog.get_rep("H3", "theta1")
    built = idfactory.spectrum_identity(rep)
    path = cli_files["spectrum_h3"]
    loaded = _load(path, "an identity document", idfactory.IdentityDoc.from_json)
    assert loaded.expr is built.expr
    cli = _output(run_cli("check", path, "--rep", "catalog:H3:theta1"), 0, path)
    for key in ("command", "identity_family", "rep", "mode", "timing_ms"):
        cli.pop(key)
    detail = verifier.check(built, rep).to_json()
    detail.pop("timing_ms", None)
    assert cli == {"seed": 0, **detail}, (cli, detail)


def test_a_closed_stdout_exits_141_without_a_traceback(cli_files, monkeypatch):
    """check whose stdout is a pipe with no reader left: exit 141 (128 +
    SIGPIPE), not the 0, 1 or 2 of a verdict or a usage error, and nothing
    on stderr; whether the output fails at print (unbuffered) or at the
    flush after the command (buffered)."""
    doc = cli_files["character_s4"]
    for unbuffered in (False, True):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_cli("check", doc, "--rep", "catalog:S4:rho4", "--mode", "guarded",
                           "--orderings", "1", stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, ""), (unbuffered, proc.stderr)


def test_commutators_lie_in_the_sign_kernel():
    """The premise of the comm(x,y) cases: on S3:sign (kernel A3) every
    commutator [x, y] lies in the kernel, and not every one is 1."""
    group = catalog.symmetric(3).group
    table, inverse = group.table, group.inverse
    comms = {table[table[inverse[x]][inverse[y]]][table[x][y]]
             for x in range(6) for y in range(6)}
    assert comms <= set(catalog.symmetric(3).rep("sign").kernel) and comms != {0}, comms


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
