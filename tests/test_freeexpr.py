import random
from fractions import Fraction

import pytest

from repident import catalog
from repident.exactnum import Cyc, cyc_root_of_unity
from repident.freeexpr import (
    Evaluator,
    Expr,
    NonGroupSubtermError,
    StreamNonvanishing,
    StreamUndecided,
    const,
    expand_stream,
    free_vars,
    inv,
    is_psd,
    power,
    prod,
    reference_eval,
    smul,
    star,
    stream_subsets,
    sub,
    sum_,
    var,
)
from repident.matrices import Mat


def naive_eval(e: Expr, assignment: dict, rep) -> Mat:
    """The reference walker on the images of the assigned group elements."""
    return reference_eval(e, {n: rep.images[g] for n, g in assignment.items()}, rep.dim)


def random_expr(rng, names, depth=3) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.6:
            return var(rng.choice(names))
        return const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    kind = rng.choice(["sum", "prod", "inv_word"])
    if kind == "inv_word":
        return inv(var(rng.choice(names)))
    children = [random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    return sum_(children) if kind == "sum" else prod(children)


@pytest.fixture(scope="module")
def s3_std():
    return catalog.symmetric(3).rep("std")


def test_word_times_inverse_is_identity(s3_std):
    e = prod([var("y"), inv(var("y"))])
    ev = Evaluator(s3_std)
    for g in range(6):
        assert ev.evaluate(e, {"y": g}).is_identity()


def test_x_minus_x_vanishes(s3_std):
    e = sum_([var("x"), smul(-1, var("x"))])
    ev = Evaluator(s3_std)
    for g in range(6):
        assert ev.evaluate(e, {"x": g}).is_zero()


def test_conjugation_word(s3_std):
    e = prod([var("y"), var("x"), inv(var("y"))])
    ev = Evaluator(s3_std)
    g, h = 2, 3
    expected = s3_std.images[g] * s3_std.images[h] * s3_std.images[g].inverse()
    assert ev.evaluate(e, {"y": g, "x": h}) == expected


def test_guard_vanishes_on_repeats(s3_std):
    # u0 (y1 - y2) u12 with equal values
    e = prod([var("u0"), sub(var("y1"), var("y2")), var("u12")])
    ev = Evaluator(s3_std)
    assert ev.evaluate(e, {"u0": 1, "u12": 2, "y1": 4, "y2": 4}).is_zero()
    assert not ev.evaluate(e, {"u0": 1, "u12": 2, "y1": 4, "y2": 5}).is_zero()


def test_free_vars():
    assert free_vars(const(5)) == frozenset()
    e = prod([var("a"), sum_([var("b"), inv(var("c"))])])
    assert free_vars(e) == {"a", "b", "c"}


def test_flattening():
    e = sum_([sum_([var("a"), var("b")]), var("c")])
    assert len(e.children) == 3
    p = prod([prod([var("a"), var("b")]), var("c")])
    assert len(p.children) == 3
    assert prod([]).kind == "const"
    assert sum_([]).value.is_zero()


def test_star_structure():
    # star of a scaled word inverts the word and conjugates the coefficient
    i = cyc_root_of_unity(4, 1)
    e = smul(i, prod([var("a"), var("b")]))
    s = star(e)
    # expect (conj i) * b^-1 a^-1 in some product arrangement
    flat = s.children
    assert any(c.kind == "const" and c.value == -i for c in flat)
    assert star(const(i)).value == -i


def test_star_involution_random(s3_std):
    rng = random.Random(7)
    ev = Evaluator(s3_std)
    names = ["a", "b", "c"]
    for _ in range(100):
        e = random_expr(rng, names)
        ss = star(star(e))
        for _ in range(3):
            assignment = {n: rng.randrange(6) for n in names}
            try:
                lhs = ev.evaluate(e, assignment)
            except NonGroupSubtermError:
                continue
            rhs = ev.evaluate(ss, assignment)
            assert lhs == rhs


def test_star_adjoint_on_unitary(s3_std):
    assert s3_std.is_unitary()
    rng = random.Random(11)
    ev = Evaluator(s3_std)
    names = ["a", "b"]
    for _ in range(40):
        e = random_expr(rng, names)
        assignment = {n: rng.randrange(6) for n in names}
        try:
            lhs = ev.evaluate(star(e), assignment)
        except NonGroupSubtermError:
            continue
        rhs = ev.evaluate(e, assignment).conj_transpose()
        assert lhs == rhs


def test_evaluate_matches_naive_oracle(s3_std):
    rng = random.Random(3)
    ev = Evaluator(s3_std)
    names = ["a", "b", "c"]
    for _ in range(60):
        e = random_expr(rng, names)
        assignment = {n: rng.randrange(6) for n in names}
        try:
            fast = ev.evaluate(e, assignment)
        except NonGroupSubtermError:
            continue
        slow = naive_eval(e, assignment, s3_std)
        assert fast == slow


def test_homomorphism_property(s3_std):
    rng = random.Random(5)
    ev = Evaluator(s3_std)
    names = ["a", "b"]
    for _ in range(30):
        e1 = random_expr(rng, names, depth=2)
        e2 = random_expr(rng, names, depth=2)
        assignment = {n: rng.randrange(6) for n in names}
        try:
            p = ev.evaluate(prod([e1, e2]), assignment)
            s = ev.evaluate(sum_([e1, e2]), assignment)
            v1, v2 = ev.evaluate(e1, assignment), ev.evaluate(e2, assignment)
        except NonGroupSubtermError:
            continue
        assert p == v1 * v2
        assert s == v1 + v2


def test_shortcircuit_regression(s3_std):
    rng = random.Random(9)
    names = ["a", "b", "c"]
    ev = Evaluator(s3_std)
    zero_guard = sub(var("a"), var("a"))
    for _ in range(30):
        e = prod([zero_guard, random_expr(rng, names, depth=2)])
        assignment = {n: rng.randrange(6) for n in names}
        try:
            expected = naive_eval(e, assignment, s3_std)
        except NonGroupSubtermError:
            continue
        assert expected.is_zero()
        assert ev.evaluate(e, assignment) == expected


def test_inv_of_noninvertible_signals(s3_std):
    e = inv(sub(var("a"), var("a")))
    ev = Evaluator(s3_std)
    with pytest.raises(NonGroupSubtermError):
        ev.evaluate(e, {"a": 1})


def test_reference_walker_signals_singular_inverses_and_streams():
    """On free 2x2 matrices the reference walker raises NonGroupSubtermError
    on inv(x - x) and StreamUndecided on a streamed node, which it has no
    representation to decide on."""
    x = var("x")
    assignment = {"x": Mat.rational(((1, 1), (0, 1)))}
    with pytest.raises(NonGroupSubtermError):
        reference_eval(inv(sub(x, x)), assignment, 2)
    streamed = stream_subsets([sub(x, const(1))], 1, "s")
    for e in (streamed, sum_([x, streamed])):
        with pytest.raises(StreamUndecided):
            reference_eval(e, assignment, 2)


def test_reference_walker_stops_a_product_at_its_first_zero_factor(s3_std):
    """The walker's zero rule is the Evaluator's: a product is zero at its
    first zero factor, so an inverse of x - x after it is never taken, and
    one before it still raises."""
    x = var("x")
    singular = inv(sub(x, x))
    ev = Evaluator(s3_std)
    assignment = {"x": Mat.rational(((1, 1), (0, 1)))}
    for e in (prod([const(0), singular]), prod([x, sub(x, x), singular])):
        assert reference_eval(e, assignment, 2).is_zero()
        assert ev.evaluate(e, {"x": 1}).is_zero()
    late = prod([singular, const(0)])
    with pytest.raises(NonGroupSubtermError):
        reference_eval(late, assignment, 2)
    with pytest.raises(NonGroupSubtermError):
        ev.evaluate(late, {"x": 1})


def test_reference_walker_evaluates_each_node_once(monkeypatch):
    """tr(y) = y + y^-1 is one node in [tr(y), x], so one call inverts y
    once; its value is the commutator, zero on SL2 by Cayley-Hamilton."""
    inverses = []
    original = Mat.inverse

    def inverse(self):
        inverses.append(self)
        return original(self)

    monkeypatch.setattr(Mat, "inverse", inverse)
    x, y = var("x"), var("y")
    tr_y = sum_([y, inv(y)])
    commutator = sub(prod([tr_y, x]), prod([x, tr_y]))
    assignment = {"x": Mat.rational(((2, 1), (1, 1))), "y": Mat.rational(((1, 3), (0, 1)))}
    assert reference_eval(commutator, assignment, 2).is_zero()
    assert len(inverses) == 1


def test_power_helper(s3_std):
    ev = Evaluator(s3_std)
    g = 2
    assert ev.evaluate(power(var("x"), 0), {"x": g}).is_identity()
    assert ev.evaluate(power(var("x"), 3), {"x": g}) == s3_std.images[g].pow_int(3)
    assert ev.evaluate(power(var("x"), -2), {"x": g}) == s3_std.images[g].pow_int(-2)


def test_stream_subsets_zero_counting(s3_std):
    # bases: (a - a) always zero for two indices, nonzero otherwise
    bases = [sub(var("a"), var("a")), sub(var("a"), var("a")), sub(var("a"), var("b"))]
    node = stream_subsets(bases, 2, "v_S")
    ev = Evaluator(s3_std)
    val = ev.evaluate_value(node, {"a": 1, "b": 2})
    assert ev._is_zero(val)
    # the one 3-subset holds the nonzero a - b, but a - b is not proved psd,
    # so the sum of the three bases is not known to be nonzero
    with pytest.raises(StreamUndecided):
        ev.evaluate_value(stream_subsets(bases, 3, "v_S"), {"a": 1, "b": 2})
    # with psd bases d star(d), a sum holding a nonzero one is nonzero
    grams = [prod([d, star(d)]) for d in bases]
    with pytest.raises(StreamNonvanishing):
        ev.evaluate_value(stream_subsets(grams, 3, "v_S"), {"a": 1, "b": 2})


def test_is_psd_reads_gram_terms_from_structure():
    """A term is psd when it is a positive rational multiple of L star(L),
    with inv(inv(f)) taken as f, and a sum when each of its terms is."""
    x, y = var("x"), var("y")
    u = sub(prod([x, y]), const(cyc_root_of_unity(3, 1)))
    gram = prod([u, star(u)])
    assert is_psd(gram)
    assert is_psd(smul(Fraction(1, 2), gram))
    assert is_psd(sum_([gram, prod([x, inv(x)])]))
    # L = 2x: its star's 2 stands last
    assert is_psd(prod([smul(2, x), star(smul(2, x))]))
    # the hand-built factor y x^-1 y^-1 matches star(y x y^-1), which is
    # inv(inv(y)) x^-1 y^-1
    left = sum_([prod([y, x, inv(y)]), const(-1)])
    right = sum_([prod([y, inv(x), inv(y)]), const(-1)])
    assert star(left) is not right
    assert is_psd(prod([left, right]))
    for term in (sub(x, const(1)), smul(-1, gram), smul(cyc_root_of_unity(4, 1), gram),
                 prod([u, star(u), x]), prod([u, u]), const(1), x):
        assert not is_psd(term), term


def test_builders_prove_their_stream_premises(s3_std):
    """Every builder's streamed node proves its premise from its terms:
    u star(u), the power-trace distance sums and the class terms."""
    from repident import idfactory as idf

    comm = sub(prod([inv(var("a")), inv(var("b")), var("a"), var("b")]), const(1))
    docs = [idf.level_set_identity(s3_std, 1), idf.gassmann_identity(s3_std, 1),
            idf.probability_identity(comm, 3, 2),
            idf.central_series_gassmann_identity(catalog.quaternion().rep("dim2"), 1, 1),
            idf.class_identity(s3_std), idf.class_identity(s3_std, "adams")]
    for doc in docs:
        streams = [e for e in _walk(doc.expr) if e.kind.startswith("stream_")]
        assert streams, doc.family
        for e in streams:
            assert e.extra[-1] is True, doc.family


def _walk(e):
    seen, stack = set(), [e]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(e.children)
            yield e


def test_loaded_stream_derives_its_premise():
    """A stream_subsets node derives its premise from its bases and does
    not write it: bases x - 1 and 1 - x load as a node whose premise fails,
    even from a file whose node says "psd": true.  star derives its own
    premise."""
    x = var("x")
    node = stream_subsets([sub(x, const(1)), sub(const(1), x)], 2, "s")
    blob = node.to_json()
    assert "psd" not in blob and node.extra[2] is False
    assert Expr.from_json(dict(blob, psd=True)) is node
    assert star(node).extra[2] is False
    grams = stream_subsets([prod([b, star(b)]) for b in node.children], 2, "s")
    assert star(grams).extra[2] is True
    # a single base needs no premise
    assert stream_subsets([sub(x, const(1))], 1, "s").extra[2] is True


def test_expand_stream_matches_naming():
    bases = [var("a"), var("b"), var("c")]
    node = stream_subsets(bases, 2, "v_S")
    expanded = expand_stream(node)
    names = sorted(v for v in expanded.free_vars() if v.startswith("v_S"))
    assert names == ["v_S{1,2}", "v_S{1,3}", "v_S{2,3}"]


def test_serialization_round_trip():
    e = prod([var("x"), sum_([const(Fraction(1, 2)), inv(var("y"))])])
    blob = e.to_json()
    e2 = Expr.from_json(blob)
    assert e2.to_json() == blob


# -- group-algebra values ----------------------------------------------------


def _algebra_reps():
    return [
        catalog.symmetric(3).rep("std"),
        catalog.quaternion().rep("dim2"),
        catalog.cyclic(6).rep("chi1"),
        catalog.binary_tetrahedral().rep("nat"),
        # reducible, with a scalar subgroup of order 3
        catalog.abelian_rep(3, 2, 2, [[1, 0], [1, 1]]),
    ]


def _algebra_expr(rng, names, depth=3) -> Expr:
    """Random sums and products of words with rational and irrational
    coefficients, inverses of sums, and differences of equal values."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return var(rng.choice(names))
        if rng.random() < 0.5:
            return const(cyc_root_of_unity(rng.choice([3, 4]), rng.randrange(1, 3)))
        return const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    kind = rng.choice(["sum", "sum", "prod", "prod", "inv", "cancel"])
    if kind == "inv":
        return inv(_algebra_expr(rng, names, depth - 1))
    if kind == "cancel":
        e = _algebra_expr(rng, names, depth - 1)
        return sub(e, star(star(e)))
    children = [_algebra_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 4))]
    return sum_(children) if kind == "sum" else prod(children)


@pytest.mark.parametrize("index", range(5))
def test_group_algebra_values_match_matrices(index):
    """evaluate, the zero test and scalar_of agree with the naive matrix
    oracle, with one evaluator reused over every expression."""
    rep = _algebra_reps()[index]
    rng = random.Random(100 + index)
    names = ["a", "b", "c"]
    ev = Evaluator(rep)
    # each expression is freed before the next is built, so new nodes reuse
    # the ids of nodes the evaluator has seen
    checked = zeros = 0
    for _ in range(80):
        e = _algebra_expr(rng, names)
        assignment = {n: rng.randrange(rep.group.order) for n in names}
        try:
            slow = naive_eval(e, assignment, rep)
        except NonGroupSubtermError:
            continue
        try:
            fast = ev.evaluate(e, assignment)
        except NonGroupSubtermError:
            continue
        assert fast == slow
        assert ev._is_zero(ev.evaluate_value(e, assignment)) == slow.is_zero()
        scalar = ev.scalar_of(e, assignment)
        expected = slow.is_scalar()
        assert (scalar is None) == (expected is None)
        assert expected is None or scalar == expected
        checked += 1
        zeros += slow.is_zero()
    assert checked >= 50 and zeros >= 5


def test_scalar_subgroup_fold_on_2t():
    """x + z x vanishes for the central element z of order 2 (rho(z) = -I):
    x and z x share a coset of the scalar subgroup."""
    from repident.freeexpr import _A

    rep = catalog.binary_tetrahedral().rep("nat")
    z = next(g for g in range(1, rep.group.order) if rep.images[g].is_scalar() is not None)
    ev = Evaluator(rep)
    e = sum_([var("x"), prod([var("z"), var("x")])])
    for x in range(rep.group.order):
        val = ev.evaluate_value(e, {"x": x, "z": z})
        # two terms, folded onto one coset by the zero test
        assert ev._is_zero(val) and val[0] == _A
        assert ev.evaluate(e, {"x": x, "z": z}).is_zero()


# -- star nodes in loaded documents ----------------------------------------------


def _star_reps():
    return [
        catalog.symmetric(3).rep("std"),
        catalog.quaternion().rep("dim2"),
        catalog.abelian_rep(3, 1, 2, [[1], [2]]),
    ]


def _star_json(rng, names, pool, depth=3) -> dict:
    """A random expression document with star nodes over algebra terms, a
    star inside a star, irrational constants and subterms drawn again from
    pool (equal subtrees, which load as one node)."""
    if pool and rng.random() < 0.15:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return var(rng.choice(names)).to_json()
        if rng.random() < 0.5:
            c = cyc_root_of_unity(rng.choice([3, 4]), rng.randrange(1, 3))
        else:
            c = Cyc.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return {"kind": "const", "value": c.to_json()}
    kind = rng.choice(["sum", "prod", "prod", "inv", "star", "star", "cancel"])
    child = _star_json(rng, names, pool, depth - 1)
    if kind == "inv":
        obj = {"kind": "inv", "child": child}
    elif kind == "star":
        obj = {"kind": "star", "child": child}
        if rng.random() < 0.3:
            obj = {"kind": "star", "child": obj}
    elif kind == "cancel":
        # e - star(star(e)): zero wherever it is defined
        twice = {"kind": "star", "child": {"kind": "star", "child": child}}
        minus = {"kind": "const", "value": Cyc.from_rational(-1).to_json()}
        obj = {"kind": "sum", "children": [
            child, {"kind": "prod", "children": [minus, twice]}]}
    else:
        children = [child] + [_star_json(rng, names, pool, depth - 1)
                              for _ in range(rng.randint(1, 3))]
        obj = {"kind": kind, "children": children}
    pool.append(obj)
    return obj


def _naive_json(obj: dict, assignment: dict, rep, starred: bool = False) -> Mat:
    """Oracle over the document itself: a starred node takes conjugate
    coefficients, inverse words and its factors in reverse order."""
    kind = obj["kind"]
    if kind == "const":
        c = Cyc.from_json(obj["value"])
        return Mat.scalar(rep.dim, c.conjugate() if starred else c)
    if kind == "var":
        g = assignment[obj["name"]]
        return rep.images[rep.group.inverse[g] if starred else g]
    if kind == "inv":
        return _naive_json(obj["child"], assignment, rep, starred).inverse()
    if kind == "star":
        return _naive_json(obj["child"], assignment, rep, not starred)
    values = [_naive_json(c, assignment, rep, starred) for c in obj["children"]]
    if kind == "sum":
        return sum(values[1:], values[0])
    acc = Mat.identity(rep.dim)
    for v in reversed(values) if starred else values:
        acc = acc * v
    return acc


@pytest.mark.parametrize("index", range(3))
def test_loaded_star_nodes_match_naive_oracle(index):
    """A star node loads as the conjugate of its child: the loaded DAG holds
    no star node, and its values and zero tests equal an oracle that
    evaluates the document's star nodes itself."""
    rep = _star_reps()[index]
    rng = random.Random(290 + index)
    names = ["a", "b", "c"]
    ev = Evaluator(rep)
    checked = zeros = 0
    for _ in range(60):
        obj = _star_json(rng, names, [])
        e = Expr.from_json(obj)
        nodes = {}
        stack = [e]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.children)
        assert all(node.kind != "star" for node in nodes.values())
        for _ in range(2):
            assignment = {n: rng.randrange(rep.group.order) for n in names}
            try:
                slow = _naive_json(obj, assignment, rep)
            except ZeroDivisionError:
                continue
            try:
                fast = ev.evaluate(e, assignment)
            except NonGroupSubtermError:
                continue
            assert fast == slow
            assert naive_eval(e, assignment, rep) == slow
            assert ev._is_zero(ev.evaluate_value(e, assignment)) == slow.is_zero()
            checked += 1
            zeros += slow.is_zero()
    assert checked >= 60 and zeros >= 10, (checked, zeros)


def test_conjugation_average_collapses_to_scalar_on_a5():
    """psi over a full ordering of A5 is the scalar 60 chi(x) / 3 on dim3a
    (Schur's lemma), computed without a matrix."""
    from repident import idfactory
    from repident.freeexpr import _S

    rep = catalog.alternating(5).rep("dim3a")
    doc = idfactory.psi(60)
    rng = random.Random(5)
    order = list(range(60))
    rng.shuffle(order)
    ev = Evaluator(rep)
    for x in (0, 1, 7, 30, 59):
        assignment = {f"y{i + 1}": g for i, g in enumerate(order)}
        assignment["x"] = x
        tag, value = ev.evaluate_value(doc.expr, assignment)
        assert tag == _S
        assert value == rep.character.value(x) * 20
        assert ev.evaluate(doc.expr, assignment) == naive_eval(doc.expr, assignment, rep)


# -- which product factors are zero-tested -------------------------------------


def _zero_factor_cases():
    """(rep, assignment extras, operator-zero factors) per representation.

    On the reducible Z3 representation diag(w^a, w^2a), which has no
    trivial constituent, 1 + t + t^2 with t a generator is the full Z3 sum:
    zero as an operator, yet a group-algebra element with three terms."""
    zero_scalar = sub(var("a"), var("a"))
    zero_sum = sum_([const(1), var("t"), prod([var("t"), var("t")])])
    return [
        (catalog.symmetric(3).rep("std"), {}, [zero_scalar]),
        (catalog.quaternion().rep("dim2"), {}, [zero_scalar]),
        (catalog.abelian_rep(3, 1, 2, [[1], [2]]), {"t": 1}, [zero_scalar, zero_sum]),
    ]


def _leaf(rng, names) -> Expr:
    if rng.random() < 0.7:
        return var(rng.choice(names))
    return const(rng.choice([Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                             cyc_root_of_unity(4, 1)]))


@pytest.mark.parametrize("index", range(3))
def test_zero_factor_before_leaves_matches_naive_oracle(index):
    """Products with operator-zero factors placed before leaves and before
    non-leaf factors: evaluate and the zero test agree with the naive oracle."""
    rep, extras, zeros = _zero_factor_cases()[index]
    rng = random.Random(300 + index)
    names = ["a", "b", "c"]
    ev = Evaluator(rep)
    checked = 0
    placements = {"before leaves only": 0, "before a non-leaf": 0}
    for _ in range(60):
        children = []
        for _ in range(rng.randint(2, 5)):
            pick = rng.random()
            if pick < 0.3:
                children.append(rng.choice(zeros))
            elif pick < 0.7:
                children.append(_leaf(rng, names))
            else:
                children.append(_algebra_expr(rng, names, depth=2))
        e = prod(children)
        assignment = {n: rng.randrange(rep.group.order) for n in names}
        assignment.update(extras)
        try:
            slow = naive_eval(e, assignment, rep)
        except NonGroupSubtermError:
            continue
        assert ev.evaluate(e, assignment) == slow
        assert ev._is_zero(ev.evaluate_value(e, assignment)) == slow.is_zero()
        kinds = [c.kind for c in e.children]
        for i, c in enumerate(e.children):
            if any(c is z for z in zeros):
                later = kinds[i + 1:]
                if any(k not in ("var", "const") for k in later):
                    placements["before a non-leaf"] += 1
                elif later:
                    placements["before leaves only"] += 1
        checked += 1
    assert checked >= 40
    assert all(n >= 5 for n in placements.values()), placements


@pytest.mark.parametrize("index", range(3))
def test_zero_factor_guards_exceptions(index):
    """A zero product followed by leaves only still raises under inv; a zero
    factor still spares an inverse of a zero element after it, also in a
    product that a matrix-valued factor inv(2 + w) before it sends to
    matrices."""
    from repident.freeexpr import _A, _M

    rep, extras, zeros = _zero_factor_cases()[index]
    assignment = dict(extras, a=1, b=2, w=1)
    matrix = inv(sum_([const(2), var("w")]))
    ev = Evaluator(rep)
    assert ev.evaluate_value(matrix, assignment)[0] == _M
    tags = [ev.evaluate_value(zero, assignment)[0] for zero in zeros]
    assert all(ev._is_zero(ev.evaluate_value(zero, assignment)) for zero in zeros)
    assert (_A in tags) == (len(zeros) == 2)
    for zero in zeros:
        with pytest.raises(NonGroupSubtermError):
            ev.evaluate(inv(prod([zero, var("b"), const(2)])), assignment)
        for other in zeros:
            val = ev.evaluate_value(prod([zero, inv(other)]), assignment)
            assert ev._is_zero(val)
            assert ev.evaluate(prod([var("b"), zero, inv(other)]), assignment).is_zero()
            assert ev.evaluate(prod([matrix, zero, inv(other)]), assignment).is_zero()


def test_standard_identity_makes_no_group_algebra_zero_tests(monkeypatch):
    """s6 is built from products [const(+-1), node(T), var(y_i)]: a zero test
    of node(T) could skip only a variable, so none is made."""
    from repident import idfactory

    rep = catalog.gamma_d(7, 9, 2).rep("pi(1,1)")
    doc = idfactory.standard_identity(6)
    calls = []
    original = Evaluator._algebra_is_zero

    def counting(self, terms):
        calls.append(len(terms))
        return original(self, terms)

    monkeypatch.setattr(Evaluator, "_algebra_is_zero", counting)
    ev = Evaluator(rep)
    rng = random.Random(17)
    for _ in range(3):
        assignment = {f"y{i}": rng.randrange(rep.group.order) for i in range(1, 7)}
        ev.evaluate_value(doc.expr, assignment)
    assert calls == []


# -- products: one fold, whose T becomes a matrix when it must ------------------


@pytest.mark.parametrize("index", range(3))
def test_linear_products_match_naive_oracle(index, monkeypatch):
    """Sums of products with zero to three non-leaf factors, words between
    them, rational and irrational constants and zero constants before and
    after a lone non-leaf.  One product node is shared by two sums and is
    also a root factor, all three evaluated under one memo.  Values and zero
    tests agree with the naive oracle, with a matrix-valued factor
    inv(2 + w) in place of the variable c, and with products whose
    convolution is over the evaluator's limit (lowered to 2 on a second
    evaluator, so two factors of two or more terms each pass it), whose
    folds go on as matrices."""
    from repident.freeexpr import _M

    rep, extras, zeros = _zero_factor_cases()[index]
    rng = random.Random(500 + index)
    names = ["a", "b", "c"]
    seen = dict.fromkeys(["zero before core", "zero after core", "irrational",
                          "two non-leaves", "three non-leaves", "word between non-leaves",
                          "matrix", "over the limit"], 0)
    folds = []
    original_linear = Evaluator._linear

    def linear(self, e, assignment, memo):
        out = original_linear(self, e, assignment, memo)
        folds.append((e, memo, out))
        return out

    monkeypatch.setattr(Evaluator, "_linear", linear)
    # invertible for every w: rho(w) has eigenvalues of modulus 1; a matrix
    # for w not the identity
    matrix = inv(sum_([const(2), var("w")]))
    with_matrix = False

    def leaf():
        pick = rng.random()
        if pick < 0.15:
            return const(0)
        if pick < 0.35:
            return const(cyc_root_of_unity(rng.choice([3, 4]), 1))
        if pick < 0.45:
            return const(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        name = rng.choice(names)
        return matrix if with_matrix and name == "c" else var(name)

    def product(cores):
        children = [leaf() for _ in range(rng.randint(1, 3))]
        pick = rng.random()
        for _ in range(3 if pick < 0.15 else 2 if pick < 0.35 else 1 if pick < 0.85 else 0):
            children.insert(rng.randrange(len(children) + 1), rng.choice(cores))
        return prod(children)

    def is_leaf(c):
        return c.kind in ("var", "const")

    def matrix_valued(c, memo):
        return not is_leaf(c) and memo.get(id(c), (None,))[0] == _M

    tight = Evaluator(rep)
    tight._convolve_limit = 2
    evaluators = (Evaluator(rep), tight)
    checked = 0
    for _ in range(120):
        with_matrix = rng.random() < 0.25
        cores = [_algebra_expr(rng, names, depth=2) for _ in range(2)] + zeros
        shared = product(cores)
        factors = [sum_([shared] + [product(cores) for _ in range(rng.randint(1, 3))]),
                   shared,
                   sum_([product(cores), leaf(), shared])]
        assignment = {n: rng.randrange(rep.group.order) for n in names}
        assignment.update(extras, w=rng.randrange(1, rep.group.order))
        try:
            slow = [naive_eval(f, assignment, rep) for f in factors]
        except NonGroupSubtermError:
            continue
        folds.clear()
        for ev in evaluators:
            memo: dict = {}
            for f, expected in zip(factors, slow):
                val = ev._eval(f, assignment, memo)
                assert ev._to_mat(val) == expected
                assert ev._is_zero(val) == expected.is_zero()
                assert ev.evaluate(f, assignment) == expected
        # a product over the limit folds to a matrix T with no matrix-valued
        # child; each product node counts once
        seen["over the limit"] += len({
            id(e) for e, memo, (_s, _a, core, _b) in folds
            if core is not None and core[0] == _M
            and not any(matrix_valued(c, memo) for c in e.children)})
        products = [f for s in factors if s.kind == "sum" for f in s.children
                    if f.kind == "prod"]
        for p in products:
            kinds = [not is_leaf(c) for c in p.children]
            if sum(kinds) > 1:
                seen["two non-leaves" if sum(kinds) == 2 else "three non-leaves"] += 1
                first, last = kinds.index(True), len(kinds) - 1 - kinds[::-1].index(True)
                seen["word between non-leaves"] += any(
                    c.kind == "var" for c in p.children[first:last])
            elif any(kinds):
                core = kinds.index(True)
                for i, c in enumerate(p.children):
                    if c.kind == "const" and c.value.is_zero():
                        seen["zero before core" if i < core else "zero after core"] += 1
            seen["irrational"] += any(c.kind == "const" and not c.value.is_rational()
                                      for c in p.children)
        seen["matrix"] += with_matrix
        checked += 1
    assert checked >= 40
    assert all(n >= 5 for n in seen.values()), seen


def test_matrix_product_is_one_fold(s3_std, monkeypatch):
    """prod([x, y, inv(2 + w), z, x]) is one fold whose T is a matrix, in a
    sum and then on its own under one memo: each call folds it once, never
    evaluates its variables as nodes and evaluates inv(2 + w) once; on its
    own it takes two matrix products, rho(x y) T rho(z x)."""
    x, y, z = var("x"), var("y"), var("z")
    middle = inv(sum_([const(2), var("w")]))
    p = prod([x, y, middle, z, x])
    assignment = {"x": 1, "y": 3, "z": 4, "w": 2}
    evaluated, folded, products = [], [], []
    original_eval, original_linear, original_mul = Evaluator._eval, Evaluator._linear, Mat.__mul__

    def eval_(self, e, assignment, memo):
        evaluated.append(e)
        return original_eval(self, e, assignment, memo)

    def linear(self, e, assignment, memo):
        folded.append(e)
        return original_linear(self, e, assignment, memo)

    def mul(self, other):
        products.append(other)
        return original_mul(self, other)

    monkeypatch.setattr(Evaluator, "_eval", eval_)
    monkeypatch.setattr(Evaluator, "_linear", linear)
    monkeypatch.setattr(Mat, "__mul__", mul)
    ev = Evaluator(s3_std)
    memo: dict = {}
    for e in (sum_([p, const(1)]), p):
        evaluated.clear()
        folded.clear()
        products.clear()
        val = ev._eval(e, assignment, memo)
        assert [f for f in folded if f is p] == [p]
        assert not any(n is x or n is y or n is z for n in evaluated)
        assert [n for n in evaluated if n is middle] == [middle]
        if e is p:
            assert len(products) == 2
        assert ev._to_mat(val) == naive_eval(e, assignment, s3_std)


@pytest.mark.parametrize("index", range(3))
def test_shared_product_convolves_once_per_call(index, monkeypatch):
    """A product of two sums with a word between them, shared by two sums
    and evaluated on its own under the same memo, is convolved once per
    call; every value agrees with the naive oracle."""
    from repident import freeexpr

    rep, extras, _zeros = _zero_factor_cases()[index]
    convolved = []
    original = freeexpr._convolve

    def convolve(a, b, table):
        convolved.append((len(a), len(b)))
        return original(a, b, table)

    monkeypatch.setattr(freeexpr, "_convolve", convolve)
    a, b, c = var("a"), var("b"), var("c")
    shared = prod([sum_([a, b]), c, sum_([b, smul(2, c)])])
    factors = [sum_([shared, a]), sum_([b, shared]), shared]
    assignment = dict(extras, a=0, b=1, c=2)
    ev = Evaluator(rep)
    for calls in (1, 2):
        memo: dict = {}
        for f in factors:
            val = ev._eval(f, assignment, memo)
            assert ev._to_mat(val) == naive_eval(f, assignment, rep)
        assert len(convolved) == calls, convolved


@pytest.mark.parametrize("index", range(3))
def test_zero_constant_spares_the_core(index):
    """A zero constant before the core makes a linear product zero without
    evaluating the core, in a sum and on its own."""
    rep, extras, zeros = _zero_factor_cases()[index]
    assignment = dict(extras, a=1, b=2)
    for zero in zeros:
        spared = prod([var("a"), const(0), inv(zero), var("b")])
        e = sum_([var("b"), spared, prod([const(2), var("a")])])
        expected = naive_eval(sum_([var("b"), prod([const(2), var("a")])]), assignment, rep)
        ev = Evaluator(rep)
        assert ev.evaluate(e, assignment) == expected
        assert ev._is_zero(ev.evaluate_value(spared, assignment))


def test_standard_identity_makes_no_combined_products(monkeypatch):
    """s6 is one word sum: its plan adds every signed word by table lookups,
    so evaluating it convolves nothing, multiplies no matrices and folds no
    product (`_linear` is never called)."""
    from repident import freeexpr, idfactory

    rep = catalog.gamma_d(7, 9, 2).rep("pi(1,1)")
    doc = idfactory.standard_identity(6)
    calls = []
    original_convolve, original_linear = freeexpr._convolve, Evaluator._linear
    original_mul = Mat.__mul__

    def convolve(a, b, table):
        calls.append("convolve")
        return original_convolve(a, b, table)

    def linear(self, e, assignment, memo):
        calls.append("linear")
        return original_linear(self, e, assignment, memo)

    def mul(self, other):
        calls.append("matrix product")
        return original_mul(self, other)

    monkeypatch.setattr(freeexpr, "_convolve", convolve)
    monkeypatch.setattr(Evaluator, "_linear", linear)
    monkeypatch.setattr(Mat, "__mul__", mul)
    ev = Evaluator(rep)
    rng = random.Random(23)
    for _ in range(3):
        assignment = {f"y{i}": rng.randrange(rep.group.order) for i in range(1, 7)}
        ev.evaluate_value(doc.expr, assignment)
    assert doc.expr._plan is not None
    assert calls == []


# -- word sums from a compiled plan ---------------------------------------------


def _plan_reps():
    return [
        catalog.symmetric(3).rep("std"),
        catalog.quaternion().rep("dim2"),
        catalog.binary_tetrahedral().rep("nat"),
        catalog.alternating(5).rep("dim3a"),
        # reducible
        catalog.abelian_rep(3, 2, 2, [[1, 0], [1, 1]]),
    ]


def _check_against_oracle(ev, e, assignment, rep):
    """The evaluator's operator and zero test equal the naive oracle's."""
    expected = naive_eval(e, assignment, rep)
    assert ev.evaluate(e, assignment) == expected
    assert ev._is_zero(ev.evaluate_value(e, assignment)) == expected.is_zero()


@pytest.mark.parametrize("index", range(5))
def test_standard_polynomials_match_naive_oracle(index):
    """s_k for k = 1..6: s_1 is a var and s_2 a sum of two words (no plan);
    from s_3 on the root is planned, one step per shared sum.  Values and
    zero tests equal the naive oracle's, on assignments with and without
    repeated elements."""
    from repident import idfactory

    rep = _plan_reps()[index]
    ev = Evaluator(rep)
    rng = random.Random(800 + index)
    for k in range(1, 7):
        doc = idfactory.standard_identity(k)
        names = [f"y{i}" for i in range(1, k + 1)]
        for trial in range(2 if k == 6 else 3):
            assignment = {n: rng.randrange(rep.group.order) for n in names}
            if trial == 0 and k > 1:
                assignment[names[-1]] = assignment[names[0]]
            _check_against_oracle(ev, doc.expr, assignment, rep)
        if k >= 3:
            # one step per subset of two or more variables: s_k's shared sums
            assert len(doc.expr._plan) == 2 ** k - k - 1
        elif k == 2:
            assert doc.expr._plan is None


def _random_word_sum(rng, names, pool) -> Expr:
    """A sum of vars, rational consts and products of rational consts and
    words around a sum drawn from pool (earlier sums, so shared), with at
    least one such product."""
    def word():
        return [var(rng.choice(names)) for _ in range(rng.randint(0, 2))]

    def coefficient():
        return [const(rng.choice([1, -1, 2, Fraction(-3, 2), Fraction(1, 3)]))]

    children = [prod(coefficient() + word() + [rng.choice(pool)] + word())]
    for _ in range(rng.randint(1, 3)):
        shape = rng.random()
        if shape < 0.2:
            children.append(var(rng.choice(names)))
        elif shape < 0.3:
            children.append(const(Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
        elif shape < 0.5:
            children.append(prod(coefficient() + word() + word()))
        else:
            core = [rng.choice(pool)]
            children.append(prod(word() + core + coefficient() + word()))
    return Expr("sum", children=tuple(children))


@pytest.mark.parametrize("index", range(5))
def test_random_word_sums_match_naive_oracle(index):
    """Planned sums with coefficients other than +-1, words before and
    after their inner sums, rational constants and inner sums shared by
    several products: values and zero tests equal the naive oracle's."""
    rep = _plan_reps()[index]
    ev = Evaluator(rep)
    rng = random.Random(900 + index)
    names = ["a", "b", "c"]
    pool = [sub(prod([var("a"), var("b")]), prod([var("b"), var("a")])),
            sum_([var("c"), const(Fraction(1, 2))])]
    for _ in range(6):
        pool.append(_random_word_sum(rng, names, pool))
    for _ in range(3):
        assignment = {n: rng.randrange(rep.group.order) for n in names}
        for e in pool[2:]:
            _check_against_oracle(ev, e, assignment, rep)
    assert all(e._plan is not None for e in pool[2:])


def _inner_sums(root: Expr) -> list:
    """The sums of root's DAG below root, each once, in first-seen order."""
    found, seen, stack = [], {id(root)}, list(root.children)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.kind == "sum":
            found.append(node)
        stack.extend(node.children)
    return found


def test_plan_inner_node_referenced_from_outside():
    """A node inside s4's plan that is also a factor and a summand outside
    it: evaluated on its own (its own plan), through the root's and inside
    a third plan that holds both, in either order under one memo, with
    values equal to the naive oracle."""
    from repident import idfactory

    rep = catalog.symmetric(3).rep("std")
    root = idfactory.standard_identity(4).expr
    inner = next(n for n in _inner_sums(root)
                 if len(n.free_vars()) == 3)
    outside = [
        prod([root, inner]),
        prod([inner, var("y4"), root]),
        sum_([prod([const(2), root, var("y1")]), inner, prod([inner, var("y2")])]),
    ]
    ev = Evaluator(rep)
    rng = random.Random(31)
    for _ in range(4):
        assignment = {f"y{i}": rng.randrange(6) for i in range(1, 5)}
        for e in outside:
            _check_against_oracle(ev, e, assignment, rep)
        memo: dict = {}
        first = ev._eval(inner, assignment, memo)
        assert ev._eval(root, assignment, memo) == ev.evaluate_value(root, assignment)
        assert first == ev.evaluate_value(inner, assignment)
    assert root._plan is not None and inner._plan is not None
    assert outside[2]._plan is not None


def test_plan_leaves_conjugation_averages_to_class_sums(monkeypatch):
    """A sum with a psi block beside word-sum children has no plan and
    still adds the block from class sums; its word-sum child (s3) is
    planned on its own.  Values equal the naive oracle's."""
    from repident import idfactory

    rep = catalog.symmetric(3).rep("std")
    s3 = idfactory.standard_identity(3).expr
    ys = [f"u{i}" for i in range(1, 7)]
    x = var("y1")
    e = sum_([prod([var(y), x, inv(var(y))]) for y in ys]
             + [prod([const(-1), s3, var("y2")]), s3, var("y3")])
    class_sums = []
    original = Evaluator._add_class_sums

    def recording(self, *args):
        out = original(self, *args)
        class_sums.append(out)
        return out

    monkeypatch.setattr(Evaluator, "_add_class_sums", recording)
    ev = Evaluator(rep)
    rng = random.Random(37)
    for _ in range(3):
        assignment = {f"y{i}": rng.randrange(6) for i in range(1, 4)}
        assignment.update(zip(ys, rng.sample(range(6), 6)))
        _check_against_oracle(ev, e, assignment, rep)
    assert e._plan is None and s3._plan is not None
    assert class_sums and all(class_sums)


def test_plan_refuses_irrational_constants():
    """A word sum with an irrational constant has no plan, while the word
    sum inside it has one.  Values equal the naive oracle's."""
    from repident import idfactory

    rep = catalog.alternating(5).rep("dim3a")
    s3 = idfactory.standard_identity(3).expr
    i = cyc_root_of_unity(5, 1)
    irrational = sum_([prod([const(i), s3, var("y1")]), var("y2")])
    ev = Evaluator(rep)
    rng = random.Random(41)
    for _ in range(3):
        assignment = {f"y{i}": rng.randrange(60) for i in range(1, 4)}
        _check_against_oracle(ev, irrational, assignment, rep)
    assert irrational._plan is None and s3._plan is not None


def test_plan_values_cancel_to_zero_and_reduce_to_one_word():
    """A planned sum whose words cancel is the zero scalar, and one that
    leaves a single word with coefficient 1 is that group element."""
    from repident import idfactory
    from repident.freeexpr import _G, _S

    rep = catalog.symmetric(3).rep("std")
    ev = Evaluator(rep)
    a, b, c, d = var("a"), var("b"), var("c"), var("d")
    commutator = sub(prod([a, b]), prod([b, a]))
    one_word = sum_([prod([commutator, d]), c])
    s3 = idfactory.standard_identity(3).expr
    for g in range(6):
        assignment = {"a": g, "b": g, "c": 4, "d": 5}
        assert ev.evaluate_value(one_word, assignment) == (_G, 4)
        tag, value = ev.evaluate_value(s3, {"y1": g, "y2": 3, "y3": g})
        assert tag == _S and value.is_zero()
    assert one_word._plan is not None and s3._plan is not None


def test_plan_compiled_once_per_node(monkeypatch):
    """Each sum node's plan is compiled on its first evaluation and kept on
    the node: later calls, and other evaluators, compile nothing.  Nodes are
    interned, so the document's sums may be shared with an earlier build;
    their plans are reset first."""
    from repident import idfactory, wordplan

    compiled = []
    original = wordplan.word_plan

    def counting(e):
        compiled.append(id(e))
        return original(e)

    monkeypatch.setattr(wordplan, "word_plan", counting)
    doc = idfactory.standard_identity(6)
    for n in [doc.expr] + _inner_sums(doc.expr):
        n._plan = False
    rng = random.Random(43)
    for rep in (catalog.symmetric(3).rep("std"), catalog.quaternion().rep("dim2")):
        ev = Evaluator(rep)
        for _ in range(5):
            assignment = {f"y{i}": rng.randrange(rep.group.order) for i in range(1, 7)}
            ev.evaluate_value(doc.expr, assignment)
    assert compiled == [id(doc.expr)]
    assert all(n._plan is False for n in _inner_sums(doc.expr))


# -- conjugation averages from class sums ---------------------------------------


def _psi_reps():
    return [
        catalog.symmetric(3).rep("std"),
        catalog.quaternion().rep("dim2"),
        catalog.binary_tetrahedral().rep("nat"),
        catalog.heisenberg(3).rep("theta1"),
        # reducible: class sums stay group-algebra terms, no Schur scalar
        catalog.abelian_rep(3, 2, 2, [[1, 0], [1, 1]]),
    ]


@pytest.fixture
def evaluated(monkeypatch):
    """Every node Evaluator._eval is called on, in call order."""
    nodes = []
    original = Evaluator._eval

    def recording(self, e, assignment, memo):
        nodes.append(e)
        return original(self, e, assignment, memo)

    monkeypatch.setattr(Evaluator, "_eval", recording)
    return nodes


def _psi_sum(middle, names):
    """The terms y T y^-1 over names; middle() gives T, once per term."""
    return [prod([var(n), middle(), inv(var(n))]) for n in names]


def _psi_middles(rep):
    """T builders, each tagged by the kind of value T takes: a word (_G),
    x^exponent = 1 (_S), a sum (_A) and the inverse of 2 + w, for w not the
    identity (_M)."""
    i = cyc_root_of_unity(4, 1)
    return {
        "word": lambda: var("x"),
        "scalar": lambda: power(var("x"), rep.group.exponent()),
        "sum": lambda: sum_([var("x"), smul(i, var("z")), const(Fraction(1, 2))]),
        "matrix": lambda: inv(sum_([const(2), var("w")])),
    }


def _psi_shapes(middles, names):
    """(shape, middle kinds, build): build(middle factory for a kind) gives
    the sum.  Nodes are interned, so a factory returning one shared node and
    one building a fresh node per call give the same sum and psi blocks."""
    return [
        ("alone", ("word",), lambda mk: sum_(_psi_sum(mk("word"), names))),
        ("alone", ("scalar",), lambda mk: sum_(_psi_sum(mk("scalar"), names))),
        ("alone", ("sum",), lambda mk: sum_(_psi_sum(mk("sum"), names))),
        ("alone", ("matrix",), lambda mk: sum_(_psi_sum(mk("matrix"), names))),
        ("two blocks", ("word", "sum"), lambda mk: sum_(
            _psi_sum(mk("word"), names) + _psi_sum(mk("sum"), names))),
        ("mixed", ("word",), lambda mk: sum_(
            [const(-3), var("z")] + _psi_sum(mk("word"), names)
            + [prod([var("z"), var("x")]), const(Fraction(1, 3))])),
    ]


def _psi_children(e: Expr) -> set:
    """ids of the prod([y, ..., inv(y)]) children of every sum in e and of
    their last factors inv(y)."""
    found, seen, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children)
        if node.kind == "sum":
            for c in node.children:
                ch = c.children
                if (c.kind == "prod" and ch[0].kind == "var" and ch[-1].kind == "inv"
                        and ch[-1].children[0].kind == "var"
                        and ch[-1].children[0].value == ch[0].value):
                    found.update((id(c), id(ch[-1])))
    return found


@pytest.mark.parametrize("index", range(5))
def test_psi_class_sums_match_term_by_term_and_naive_oracle(index, evaluated):
    """psi over a bijection onto the group, with T a word, a scalar, a sum
    or a matrix, alone, as two blocks of one sum and beside other terms:
    the operator equals the one the same sum gives term by term, and
    evaluate and the zero test agree with the naive oracle.  The term by
    term value is the same node's with its psi blocks turned off.  On an
    irreducible rep psi is the scalar (|G| / d) tr rho(T), so no psi child
    is evaluated for any T and a sum of psi blocks alone is a scalar; on the
    reducible rep the class sums give the term-by-term value itself, and
    only a matrix T evaluates a psi child."""
    from repident.freeexpr import _S

    rep = _psi_reps()[index]
    irreducible = rep.is_irreducible()
    m = rep.group.order
    names = [f"y{i}" for i in range(1, m + 1)]
    middles = _psi_middles(rep)
    rng = random.Random(700 + index)
    ev = Evaluator(rep)
    for shape, kinds, build in _psi_shapes(middles, names):
        shared = {k: middles[k]() for k in kinds}
        e = build(lambda k: middles[k])
        assert build(lambda k: (lambda: shared[k])) is e
        # the psi products, and one inv(y) node per y for all of them
        assert len(_psi_children(e)) == (len(kinds) + 1) * m
        for _ in range(3):
            order = list(range(m))
            rng.shuffle(order)
            assignment = dict(zip(names, order))
            assignment.update(x=rng.randrange(m), z=rng.randrange(m),
                              w=rng.randrange(1, m))
            evaluated.clear()
            val = ev.evaluate_value(e, assignment)
            touched = _psi_children(e) & set(map(id, evaluated))
            blocks, e._psi = e._psi, ()
            try:
                term_by_term = ev.evaluate_value(e, assignment)
            finally:
                e._psi = blocks
            if irreducible:
                assert not touched, (shape, kinds)
                assert val[0] == _S or shape == "mixed", (shape, kinds)
            else:
                assert bool(touched) == ("matrix" in kinds), (shape, kinds)
                assert val == term_by_term, (shape, kinds)
            assert ev._to_mat(val) == ev._to_mat(term_by_term), (shape, kinds)
            expected = naive_eval(e, assignment, rep)
            assert ev.evaluate(e, assignment) == expected
            assert ev._is_zero(val) == expected.is_zero()


@pytest.mark.parametrize("index", range(5))
def test_psi_falls_back_off_a_bijection(index, evaluated):
    """A repeated y value, or fewer y names than group elements, evaluates
    psi term by term, and still agrees with the naive oracle."""
    rep = _psi_reps()[index]
    m = rep.group.order
    x = var("x")
    rng = random.Random(800 + index)
    ev = Evaluator(rep)
    full = [f"y{i}" for i in range(1, m + 1)]
    for names, repeat in ((full, True), (full[:-1], False)):
        e = sum_([const(-1)] + _psi_sum(lambda: x, names))
        for _ in range(3):
            order = list(range(m))
            rng.shuffle(order)
            assignment = dict(zip(names, order))
            if repeat:
                assignment[names[1]] = assignment[names[0]]
            assignment["x"] = rng.randrange(m)
            evaluated.clear()
            val = ev.evaluate_value(e, assignment)
            assert _psi_children(e) & set(map(id, evaluated))
            expected = naive_eval(e, assignment, rep)
            assert ev.evaluate(e, assignment) == expected
            assert ev._is_zero(val) == expected.is_zero()


def test_psi_with_a_repeated_name_or_a_y_inside_the_middle():
    """A repeated y name repeats a value, so it fails the bijection test and
    falls back; a y inside T only fixes T's value, so the class sums stay
    exact."""
    rep = catalog.symmetric(3).rep("std")
    names = [f"y{i}" for i in range(1, 7)]
    x, y1 = var("x"), var("y1")
    repeated = sum_(_psi_sum(lambda: x, names[:5] + ["y1"]))
    inside = sum_(_psi_sum(lambda: y1, names))
    ev = Evaluator(rep)
    for shift in range(6):
        assignment = {n: (g + shift) % 6 for g, n in enumerate(names)}
        assignment["x"] = 3
        for e in (repeated, inside):
            assert ev.evaluate(e, assignment) == naive_eval(e, assignment, rep)
    assert inside._psi and repeated._psi


def test_guarded_character_identity_evaluates_no_psi_child(evaluated):
    """Every guard group is a bijection in guarded mode, so a character
    identity's conjugation averages come from class sums: no psi child, no
    inv(y) in one and no other inverse is evaluated."""
    from repident import idfactory, verifier

    rep = catalog.heisenberg(3).rep("theta1")
    doc = idfactory.character_identity(rep)
    psi_children = _psi_children(doc.expr)
    assert len(psi_children) >= rep.group.order
    verdict = verifier.holds_guarded(doc, rep, orderings=2)
    assert verdict.status == "holds"
    kinds = {e.kind for e in evaluated}
    assert "sum" in kinds and "inv" not in kinds
    assert not psi_children & set(map(id, evaluated))


# -- zero tests folded by the scalar subgroup ----------------------------------


@pytest.mark.parametrize("group, rep_name", [("H3", "theta1"), ("gamma(7,9,2)", "pi(1,1)")])
def test_scalar_fold_zero_test_matches_naive_oracle(group, rep_name):
    """Supports with terms sharing a coset of the scalar subgroup Z
    (colliding, some built to cancel) and with one term per coset: the zero
    test agrees with the matrix sum, for rational and irrational
    coefficients."""
    from repident.exactnum import Cyc, demote

    rep = catalog.get_rep(group, rep_name)
    fold = rep.scalar_cosets
    order = rep.group.order
    table = rep.group.table
    scalars = [g for g in range(order) if fold[g][0] == 0]
    cosets: dict = {}
    for g in range(order):
        cosets.setdefault(fold[g][0], []).append(g)
    reps = sorted(cosets)
    assert len(scalars) > 1
    ev = Evaluator(rep)
    rng = random.Random(41)

    def coefficient(rational=False):
        q = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
        if rational or rng.random() < 0.5:
            return q
        return demote(cyc_root_of_unity(rng.choice([3, 4, 7]), 1) * Cyc.from_rational(q))

    seen = dict.fromkeys(["colliding", "one per coset", "zero", "rational, 3+ terms"], 0)
    for trial in range(80):
        colliding = trial % 2 == 0
        terms: dict = {}
        if colliding:
            for r in rng.sample(reps, rng.randint(1, 3)):
                for z in rng.sample(scalars, rng.randint(2, len(scalars))):
                    terms[table[z][r]] = coefficient()
            if trial % 4 == 0:
                # c rho(g) - c lam_z^-1 rho(z g) = 0 for each chosen g
                terms = {}
                for r in rng.sample(reps, rng.randint(1, 3)):
                    z = rng.choice(scalars[1:])
                    c = coefficient()
                    lam = fold[table[z][r]][1]
                    terms[r] = c
                    terms[table[z][r]] = demote(-Cyc.from_rational(1) * _as_cyc(c)
                                                * _as_cyc(lam).inverse())
        else:
            rational = trial % 6 == 1
            for r in rng.sample(reps, rng.randint(3 if rational else 1, 5)):
                terms[rng.choice(cosets[r])] = coefficient(rational)
        expected = None
        for g, c in terms.items():
            term = rep.images[g].scale(_as_cyc(c))
            expected = term if expected is None else expected + term
        assert ev._algebra_is_zero(terms) == expected.is_zero(), terms
        seen["colliding" if colliding else "one per coset"] += 1
        seen["zero"] += expected.is_zero()
        seen["rational, 3+ terms"] += (len(terms) > 2 and not colliding
                                      and all(not isinstance(c, Cyc) for c in terms.values()))
    assert all(n >= 4 for n in seen.values()), seen


def _as_cyc(c):
    from repident.exactnum import Cyc

    return c if isinstance(c, Cyc) else Cyc.from_rational(c)


# -- interned nodes: a loaded document is its builder's DAG ---------------------


def test_intern_table_keeps_nothing_alive():
    """The intern table holds its nodes weakly: a built and evaluated
    document, once dropped, leaves the table as it found it."""
    import gc

    from repident import freeexpr, idfactory

    rep = catalog.symmetric(3).rep("std")
    gc.collect()
    before = len(freeexpr._nodes)
    doc = idfactory.character_identity(rep)
    assignment = {n: g % rep.group.order for g, n in enumerate(sorted(doc.expr.free_vars()))}
    Evaluator(rep).evaluate_value(doc.expr, assignment)
    assert len(freeexpr._nodes) > before
    del doc
    gc.collect()
    assert len(freeexpr._nodes) == before


def test_dropped_documents_are_freed_by_reference_counting():
    """With the cyclic collector off, dropping a built document returns the
    intern table to its size before the build: s6 (evaluated, so its word
    plan is compiled), a class identity (whose terms hold star nodes), a
    probability document, and s4 after an exhaustive verdict (the verifier
    keeps the document's tables only while the document lives).  Run in a
    fresh interpreter, so no live node of another test shares a subterm."""
    import os
    import subprocess
    import sys

    import repident

    script = """
import gc
from repident import catalog, freeexpr, idfactory as idf, verifier
from repident.freeexpr import Evaluator, const, sub, var
gc.disable()
rep = catalog.get_rep("S4", "rho4")
u = sub(var("a"), const(1))
builds = [lambda: idf.standard_identity(6), lambda: idf.class_identity(rep),
          lambda: idf.class_identity(rep, "adams"), lambda: idf.probability_identity(u, 2, 3)]
for build in builds:
    before = len(freeexpr._nodes)
    doc = build()
    Evaluator(rep).evaluate_value(doc.expr, dict.fromkeys(doc.expr.free_vars(), 1))
    grown = len(freeexpr._nodes) > before
    del doc
    print(grown, len(freeexpr._nodes) - before)
before = len(freeexpr._nodes)
doc = idf.standard_identity(4)
assert verifier.holds_exhaustive(doc, catalog.get_rep("S3", "std")).holds
grown = len(freeexpr._nodes) > before
del doc
print(grown, len(freeexpr._nodes) - before)
"""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repident.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["True 0"] * 5


@pytest.mark.parametrize("rep_ref, family", [
    (("H3", "theta1"), "character"),
    (("A5", "dim3a"), "character"),
    (("H3", "theta1"), "spectrum"),
])
def test_from_json_shares_equal_subtrees(rep_ref, family):
    """A document loaded from its JSON writes the same JSON, is the
    builder's DAG itself, and gets the same guarded verdict (timing
    aside)."""
    import json

    from repident import idfactory, verifier

    rep = catalog.get_rep(*rep_ref)
    build = {"character": idfactory.character_identity,
             "spectrum": idfactory.spectrum_identity}[family]
    doc = build(rep)
    loaded = idfactory.IdentityDoc.from_json(json.loads(json.dumps(doc.to_json())))
    assert loaded.to_json() == doc.to_json()
    assert loaded.expr is doc.expr
    verdicts = []
    for d in (doc, loaded):
        out = verifier.holds_guarded(d, rep, seed=3, orderings=2).to_json()
        out.pop("timing_ms", None)
        verdicts.append(out)
    assert verdicts[0] == verdicts[1]


def test_from_json_round_trips_every_streamed_kind():
    """Documents with subset, permutation-body and partition streams write
    the same JSON after loading."""
    import json

    from repident import idfactory

    rep = catalog.symmetric(3).rep("std")
    classes = [sorted(c) for c in rep.group.conjugacy_classes.classes]
    docs = [idfactory.level_set_identity(rep, 1), idfactory.class_identity(rep),
            idfactory.central_partition_identity(rep, classes)]
    kinds = set()
    for doc in docs:
        blob = json.loads(json.dumps(doc.to_json()))
        loaded = idfactory.IdentityDoc.from_json(blob)
        assert loaded.to_json() == blob
        stack = [loaded.expr]
        while stack:
            e = stack.pop()
            kinds.add(e.kind)
            stack.extend(e.children)
    assert {"stream_subsets", "stream_perm_body", "stream_partitions"} <= kinds
