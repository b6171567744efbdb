"""Evaluable expression DAGs over the group algebra of a free group.

An Expr is a DAG with node kinds const / var / inv / sum / prod, plus
streamed kinds (stream_subsets, stream_partitions, stream_perm_body) whose
factors are generated on demand and never held resident at once.  The star
involution is structural (`star`: coefficients conjugated, words inverted),
so a JSON {"kind": "star"} node loads as the conjugate of its child.

Expressions are structural objects: words are never freely reduced, so
y * y^-1 persists as a Prod node.  Evaluation semantics is unaffected;
structural equality is simply finer than equality in the group algebra.
Nodes are interned, so sharing is structural: equal subterms are one node
wherever they were built, a loaded document is its builder's DAG, and what
a node keeps (free variables, star, psi blocks, word plan) is shared.

The Evaluator maps Vars to group element indices, with a Rep supplying
the matrices.  Words are composed in the group; sums and scalar multiples
of words stay sparse elements of the group algebra Q(zeta)[G].  Zero tests
fold the support by the scalar subgroup and, for rational coefficients,
sum integer image vectors; a matrix is built when a caller asks for one,
or when irrational coefficients leave more than two terms.  That is what makes guard-heavy identities affordable.
A Prod is one left-to-right fold s a T b: s the product of its scalars,
a and b words, T the product of its other values and the words between
them.  T is a group-algebra element until a value is a matrix or a
convolution would cost more than matrices, and a matrix from then on.
A Sum adds s a T b to its terms without building the product.  The zero
rule: a zero scalar, or a zero non-leaf factor with another non-leaf
after it, ends the Prod at once.
A conjugation average
sum_{y in Y} y T y^-1 inside a Sum is recognized once per node and, when Y
is a bijection onto the group, added without evaluating a term: on an
irreducible rep of degree d as the scalar (|G| / d) tr rho(T) (a character
value when T is a word), on a reducible one from class sums.
A word sum (a Sum of vars, rational consts, word sums and products of
rational consts and vars around at most one word sum, with no
conjugation average) that holds another word sum compiles a flat plan
(`wordplan`) on its first evaluation, kept on the node: its sub-sums in
topological order, shared ones once, each term a rational coefficient,
the words before and after one inner sum, and that sum.  It runs as
loops of group table lookups into dicts.
Node values live for one evaluation.  `reference_eval` is the plain
walker over matrices, with the same zero rule: the tests' reference, and
the sl2 sampling check's.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable
from weakref import ref

from .exactnum import Cyc, demote
from .matrices import Mat
from .wordplan import plan_terms


class NonGroupSubtermError(ValueError):
    """Inv applied to a subexpression that did not evaluate to an invertible value."""


class StreamNonvanishing(Exception):
    """The streamed product node has no vanishing factor under the given
    assignment."""

    def __init__(self, node: "Expr", what: str):
        self.node = node
        super().__init__(f"{what} with no vanishing factor")


class StreamUndecided(Exception):
    """A streamed product was not decided: over budget, or with no representation."""


class Expr:
    __slots__ = ("kind", "value", "children", "_fvs", "_star", "_psi", "_plan",
                 "extra", "__weakref__")

    def __init__(self, kind: str, value=None, children: tuple = (), extra=None):
        self.kind = kind
        self.value = value
        self.children = children
        self.extra = extra
        self._fvs = None
        self._star = None
        self._psi = None
        # a sum's word plan (wordplan.plan_terms): False until compiled,
        # None when the sum has none
        self._plan = False

    # -- free variables ------------------------------------------------

    def free_vars(self) -> frozenset[str]:
        if self._fvs is None:
            if self.kind == "var":
                self._fvs = frozenset({self.value})
            elif self.kind == "inv":
                self._fvs = self.children[0].free_vars()
            elif self.kind in ("const", "sum", "prod", "stream_subsets",
                               "stream_partitions", "stream_perm_body"):
                # one union per node: folding child by child would copy a
                # growing set once per child
                self._fvs = frozenset().union(*[c.free_vars() for c in self.children])
            else:
                raise AssertionError(self.kind)
        return self._fvs

    def __repr__(self):
        if self.kind == "var":
            return self.value
        if self.kind == "const":
            return repr(self.value)
        if self.kind == "inv":
            return f"({self.children[0]!r})^-1"
        if self.kind == "sum":
            return "(" + " + ".join(repr(c) for c in self.children) + ")"
        if self.kind == "prod":
            return "(" + "*".join(repr(c) for c in self.children) + ")"
        return f"<{self.kind}>"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "const":
            return {"kind": "const", "value": self.value.to_json()}
        if self.kind == "var":
            return {"kind": "var", "name": self.value}
        if self.kind == "inv":
            return {"kind": "inv", "child": self.children[0].to_json()}
        if self.kind in ("sum", "prod"):
            return {"kind": self.kind, "children": [c.to_json() for c in self.children]}
        if self.kind == "stream_subsets":
            t, sep_prefix, _ = self.extra
            return {
                "kind": "stream_subsets",
                "subset_size": t,
                "separator_prefix": sep_prefix,
                "bases": [c.to_json() for c in self.children],
            }
        if self.kind == "stream_partitions":
            var_names, sizes, targets, sep_prefix = self.extra
            return {
                "kind": "stream_partitions",
                "vars": list(var_names),
                "sizes": list(sizes),
                "targets": [t.to_json() for t in targets],
                "separator_prefix": sep_prefix,
            }
        if self.kind == "stream_perm_body":
            group_sizes, _ = self.extra
            return {
                "kind": "stream_perm_body",
                "group_sizes": list(group_sizes),
                "pairs": [c.to_json() for c in self.children],
            }
        raise AssertionError(self.kind)

    @staticmethod
    def from_json(obj: dict) -> "Expr":
        """The Expr a to_json() document describes, built by the
        constructors.  Sharing is structural: equal subtrees load as one
        node, and while the builder's DAG is alive the loaded document is
        that DAG.  A star node loads as star(child).  A stream_subsets
        node derives its premise from its bases, as a built one does."""
        kind = obj["kind"]
        load = Expr.from_json
        if kind == "const":
            return const(Cyc.from_json(obj["value"]))
        if kind == "var":
            return var(obj["name"])
        if kind == "inv":
            return inv(load(obj["child"]))
        if kind == "star":
            return star(load(obj["child"]))
        if kind == "sum":
            return sum_([load(c) for c in obj["children"]])
        if kind == "prod":
            return prod([load(c) for c in obj["children"]])
        if kind == "stream_subsets":
            return stream_subsets([load(c) for c in obj["bases"]], obj["subset_size"],
                                  obj["separator_prefix"])
        if kind == "stream_partitions":
            return stream_partitions(obj["vars"], obj["sizes"],
                                     [Cyc.from_json(t) for t in obj["targets"]],
                                     obj["separator_prefix"])
        if kind == "stream_perm_body":
            return stream_perm_body(obj["group_sizes"], [load(c) for c in obj["pairs"]])
        raise ValueError(f"unknown node kind {kind!r}")


# every live node by its key: kind, value and extra (a Cyc as its fields)
# and the ids of its children; a node's children outlive it, so the ids in
# a live node's key are its children's.  Values are weak references.
_nodes: dict = {}


class _Ref(ref):
    """A weak reference to an interned node that knows the node's key."""
    __slots__ = ("key",)


def _forget(r: _Ref) -> None:
    """Drop a dead node's entry, unless a new node holds its key."""
    if _nodes.get(r.key) is r:
        del _nodes[r.key]


def _interned(kind: str, params, value=None, children: tuple = (), extra=None) -> Expr:
    """The live node of this kind, params (hashable, standing for value and
    extra) and children, made when there is none."""
    key = (kind, params, tuple(map(id, children)))
    r = _nodes.get(key)
    e = r() if r is not None else None
    if e is None:
        e = Expr(kind, value, children, extra)
        r = _nodes[key] = _Ref(e, _forget)
        r.key = key
    return e


# -- constructors (with canonical flattening) ----------------------------


def const(c) -> Expr:
    if isinstance(c, (int, Fraction)):
        c = Cyc.from_rational(c)
    return _interned("const", (c.conductor, c.num, c.den), c)


# the constant of every difference `sub` builds, made once
_MINUS_ONE = const(-1)


def var(name: str) -> Expr:
    return _interned("var", name, name)


def inv(e: Expr) -> Expr:
    return _interned("inv", None, children=(e,))


def sum_(terms: Iterable[Expr]) -> Expr:
    flat = []
    for t in terms:
        if t.kind == "sum":
            flat.extend(t.children)
        else:
            flat.append(t)
    if not flat:
        return const(0)
    if len(flat) == 1:
        return flat[0]
    return _interned("sum", None, children=tuple(flat))


def prod(factors: Iterable[Expr]) -> Expr:
    flat = []
    for f in factors:
        if f.kind == "prod":
            flat.extend(f.children)
        else:
            flat.append(f)
    if not flat:
        return const(1)
    if len(flat) == 1:
        return flat[0]
    return _interned("prod", None, children=tuple(flat))


def smul(c, e: Expr) -> Expr:
    return prod([const(c), e])


def power(e: Expr, k: int) -> Expr:
    if k == 0:
        return const(1)
    if k < 0:
        return inv(power(e, -k))
    return prod([e] * k) if k > 1 else e


def sub(a: Expr, b: Expr) -> Expr:
    return sum_([a, prod([_MINUS_ONE, b])])


def stream_subsets(bases, t: int, sep_prefix: str) -> Expr:
    """Product over all t-subsets S of the bases of (sum_{i in S} base_i) v_S.

    Its premise, that a subset sum vanishes only when each of its bases
    does, is derived here: it holds when t = 1 or every base is psd
    (`is_psd`).  It is kept in extra, not written."""
    bases = tuple(bases)
    premise = t == 1 or all(is_psd(b) for b in bases)
    return _interned("stream_subsets", (t, sep_prefix), children=bases,
                     extra=(t, sep_prefix, premise))


def stream_partitions(var_names, sizes, targets, sep_prefix: str) -> Expr:
    var_names, sizes, targets = tuple(var_names), tuple(sizes), tuple(targets)
    return _interned(
        "stream_partitions",
        (var_names, sizes, tuple((t.conductor, t.num, t.den) for t in targets), sep_prefix),
        children=tuple(map(var, var_names)),
        extra=(var_names, sizes, targets, sep_prefix),
    )


def stream_perm_body(group_sizes, pair_exprs) -> Expr:
    """Sum over groups of the product over all slot permutations of the
    within-group pair sums: sum_i prod_{nu in S(A_i)} sum_a pairs[a][nu(a)].

    pair_exprs is flattened group-by-group in row-major (a, b) order; the
    node never materializes the factorial-size products.  Whether every
    pair is psd (`is_psd`) is derived here and kept in extra.
    """
    group_sizes, pair_exprs = tuple(group_sizes), tuple(pair_exprs)
    return _interned("stream_perm_body", group_sizes, children=pair_exprs,
                     extra=(group_sizes, all(is_psd(p) for p in pair_exprs)))


# -- proved positive semidefinite terms -------------------------------------


def is_psd(e: Expr) -> bool:
    """e is a sum of terms, each a positive rational multiple of a product
    L star(L), read from its structure with inv(inv(f)) taken as f.  A rep
    of a finite group is similar to a unitary one, where star is the
    adjoint, so each term's value is similar to a positive semidefinite
    matrix and a sum of them vanishes only where every term does.  False
    proves nothing."""
    memo: dict = {}
    return all(_is_gram(c, memo) for c in (e.children if e.kind == "sum" else (e,)))


def _is_gram(e: Expr, memo: dict) -> bool:
    """e is prod([q, *L, *star(L)]) with q an optional positive rational."""
    if e.kind != "prod":
        return False
    ch = e.children
    if _is_mirror(ch, memo):
        return True
    q = ch[0]
    return (q.kind == "const" and q.value.is_rational() and demote(q.value) > 0
            and _is_mirror(ch[1:], memo))


def _is_mirror(factors: tuple, memo: dict) -> bool:
    """factors are L then star(L), for L the first half."""
    n = len(factors)
    return n > 0 and n % 2 == 0 and all(
        _is_star_of(factors[i], factors[n - 1 - i], memo) for i in range(n // 2))


def _is_star_of(a: Expr, b: Expr, memo: dict) -> bool:
    """b is star(a) up to inv(inv(f)) = f.  memo maps the id of each sum or
    product found so to its star, so a shared DAG is compared once; a
    mismatch ends the comparison."""
    a, j = _strip_inv(a)
    b, k = _strip_inv(b)
    kind = a.kind
    if kind == "var":
        # star(inv^j(x)) = inv^(j+1)(x)
        return b is a and k != j
    if kind != b.kind or j != k or len(a.children) != len(b.children):
        return False
    if kind == "const":
        return b.value == a.value.conjugate()
    if kind != "sum" and kind != "prod":
        return False
    if memo.get(id(a)) is b:
        return True
    for x, y in zip(a.children, b.children if kind == "sum" else reversed(b.children)):
        if not _is_star_of(x, y, memo):
            return False
    memo[id(a)] = b
    return True


def _strip_inv(e: Expr) -> tuple[Expr, int]:
    """(f, parity) with e = inv^k(f), f no inverse and parity k mod 2."""
    k = 0
    while e.kind == "inv":
        e, k = e.children[0], k ^ 1
    return e, k


# -- the star involution --------------------------------------------------


def star(e: Expr) -> Expr:
    """Conjugate of a group-algebra element: coefficients conjugated, words inverted.

    Only a sum, product or streamed node with a variable keeps its
    conjugate (`_star`), which then never leads back to it: star(var) and
    star(inv(f)) hold their argument, and a node with no variable is the
    star of its star.  A dropped document is freed by reference counting."""
    if e._star is not None:
        return e._star
    if e.kind == "const":
        return const(e.value.conjugate())
    if e.kind == "var":
        return inv(e)
    if e.kind == "inv":
        return inv(star(e.children[0]))
    if e.kind == "sum":
        out = sum_([star(c) for c in e.children])
    elif e.kind == "prod":
        out = prod([star(c) for c in reversed(e.children)])
    elif e.kind == "stream_subsets":
        t, sep_prefix, _ = e.extra
        out = stream_subsets([star(b) for b in e.children], t, sep_prefix + "*")
    else:
        raise ValueError(f"star unsupported on {e.kind}")
    if e.free_vars():
        e._star = out
    return out


def free_vars(e: Expr) -> frozenset[str]:
    return e.free_vars()


# -- the reference walker ------------------------------------------------------


def reference_eval(e: Expr, assignment: dict, n: int) -> Mat:
    """The value of e with every variable assigned an n x n Mat, each node
    evaluated once per call: a const is c I, and inv, sum and prod fold
    from their first child.  A product is zero at its first zero factor
    (variables are taken as invertible), as in the Evaluator, and evaluates
    no non-leaf factor after it; there is no other shortcut.  A singular
    inverse raises NonGroupSubtermError, and a streamed node StreamUndecided."""
    return _walk(e, assignment, n, {})


def _walk(e: Expr, assignment: dict, n: int, memo: dict) -> Mat:
    out = memo.get(id(e))
    if out is not None:
        return out
    kind = e.kind
    if kind == "const":
        out = Mat.scalar(n, e.value)
    elif kind == "var":
        out = assignment[e.value]
    elif kind == "inv":
        try:
            out = _walk(e.children[0], assignment, n, memo).inverse()
        except ZeroDivisionError as exc:
            raise NonGroupSubtermError("inverse of a singular matrix subterm") from exc
    elif kind == "sum" or kind == "prod":
        # the Evaluator's zero rule: a zero constant, or a zero non-leaf factor
        # before the last non-leaf, ends a product (only a non-leaf can raise)
        children = e.children
        last = len(children) - 1 if kind == "prod" else 0
        while last and (children[last].kind == "var" or children[last].kind == "const"):
            last -= 1
        out = None
        for i, c in enumerate(children):
            v = _walk(c, assignment, n, memo)
            if i < last and c.kind != "var" and (
                    c.value.is_zero() if c.kind == "const" else v.is_zero()):
                out = v
                break
            out = v if out is None else out + v if kind == "sum" else out * v
    else:
        raise StreamUndecided(f"a {kind} node is decided on a representation only")
    memo[id(e)] = out
    return out


# -- evaluation ------------------------------------------------------------

# Value tags: group index, scalar (a Cyc), matrix, group-algebra element.
# An _A payload is a dict {group index: coefficient} that is not a single
# plain word or scalar; a coefficient is a nonzero int or Fraction when it
# is rational, else an (irrational) Cyc.  Payloads are shared through the
# memo, so they are never mutated.
_G, _S, _M, _A = 0, 1, 2, 3

# a typed-partition search is undecided after trying this many candidate blocks
PARTITION_BUDGET = 300_000


def _add(a, b):
    """Sum of two coefficients; 0 when they cancel."""
    if isinstance(a, Cyc) or isinstance(b, Cyc):
        return demote(a + b)
    return a + b


def _mul(a, b):
    """Product of two coefficients."""
    if isinstance(a, Cyc):
        return demote(a * b) if isinstance(b, Cyc) else _scale(a, b)
    if isinstance(b, Cyc):
        return _scale(b, a)
    return a * b


def _scale(c: Cyc, q):
    """Irrational c times rational q, without lifting q to c's conductor."""
    if not q:
        return 0
    return Cyc(c.conductor, tuple(x * q.numerator for x in c.num), c.den * q.denominator)


def _cyc(c) -> Cyc:
    return c if isinstance(c, Cyc) else Cyc.from_rational(c)


def _convolve(a: dict, b: dict, table) -> dict:
    """Product of two group-algebra elements."""
    out: dict = {}
    for g, c in a.items():
        row = table[g]
        for h, d in b.items():
            k = row[h]
            v = _mul(c, d)
            out[k] = _add(out[k], v) if k in out else v
    return out


class Evaluator:
    """Evaluates Exprs against a Rep, each variable assigned a group element.

    Words are composed in the group (_G).  Sums and scalar multiples of
    words, and their products while the supports stay small, are sparse
    elements of Q(zeta)[G] (_A); one supported on the identity alone is a
    scalar (_S).  Matrices (_M) appear only for inverses of sums and
    products whose convolution would cost more than the matrices.  An _A
    value is lifted to a matrix when a caller asks for one (`_to_mat`), and
    by its zero test (`_is_zero`) only when irrational coefficients leave
    more than two terms after folding by the scalar subgroup.  A product is
    one fold s a T b (`_linear`), whose T turns into a matrix at a matrix
    value or a convolution over the limit; a sum adds a group-algebra fold
    to its terms as s c_g at a g b, and a matrix fold to its matrix.  A
    fold with two or more non-leaf factors is made once per call; only a
    non-leaf factor with another non-leaf after it is zero-tested.
    A sum's conjugation averages psi_Y(T) (`_psi_blocks`) over a bijection Y
    onto the group are added without a term y T y^-1 (`_add_class_sums`).
    On an irreducible rep of degree d, psi_Y(T) is the scalar
    (|G| / d) tr rho(T) (Schur's lemma), added at the identity, for any T.
    On a reducible rep each term c_h h of T adds |C_G(h)| c_h at every
    member of h's class: the terms the products y T y^-1 would add one by
    one, which they still do off a bijection or for a matrix T there.
    A word sum holding another word sum is evaluated from its plan
    (`wordplan.plan_terms`): its sub-sums step by step, each term added by
    table lookups, with no recursion and no product folds.

    Node values and product folds are shared within one call (its memo),
    never across calls.
    Reuse across assignments belongs to the caller that knows which values
    repeat (guarded mode's walk in the verifier).
    """

    def __init__(self, rep):
        self.rep = rep
        # a product of two _A values convolves while |A|*|B| stays below
        # the cost of one matrix product
        self._convolve_limit = 2 * rep.dim ** 3

    # value helpers

    def _to_mat(self, val) -> Mat:
        tag, payload = val
        if tag == _M:
            return payload
        if tag == _G:
            return self.rep.image(payload)
        if tag == _A:
            return self._materialize(payload)
        return Mat.scalar(self.rep.dim, payload)

    def _is_zero(self, val) -> bool:
        tag, payload = val
        if tag == _G:
            return False
        if tag == _A:
            return self._algebra_is_zero(payload)
        return payload.is_zero()

    def _mod_p(self, val):
        """The value as a d x d matrix over F_p, the reduction of
        `Rep.images_mod_p` (row tuples of ints), or None when an entry or
        coefficient does not reduce.  An _A value is reduced as
        sum_g c_g rho_p(g), without building its exact matrix."""
        red, images = self.rep.images_mod_p
        tag, payload = val
        if tag == _G:
            return images[payload]
        d, p = self.rep.dim, red.p
        if tag == _S:
            c = red(payload)
            if c is None:
                return None
            return tuple(tuple(c if i == j else 0 for j in range(d)) for i in range(d))
        if tag == _M:
            rows = tuple(tuple(red(v) for v in row) for row in payload.rows)
            return None if any(None in row for row in rows) else rows
        coefficients, terms = [], []
        for g, c in payload.items():
            c, image = red(c), images[g]
            if c is None or image is None:
                return None
            coefficients.append(c)
            terms.append(image)
        # entry (i, j) sums c_g rho_p(g)[i][j] over the terms
        return tuple([tuple([sum(map(operator.mul, coefficients, entries)) % p
                             for entries in zip(*rows)]) for rows in zip(*terms)])

    def evaluate(self, e: Expr, assignment: dict) -> Mat:
        return self._to_mat(self._eval(e, assignment, {}))

    def evaluate_value(self, e: Expr, assignment: dict):
        """Raw tagged value; used by the verifier for zero tests without materializing."""
        return self._eval(e, assignment, {})

    def scalar_of(self, e: Expr, assignment: dict):
        """The scalar c when the value equals c*I, else None."""
        val = self._eval(e, assignment, {})
        return val[1] if val[0] == _S else self._to_mat(val).is_scalar()

    # group-algebra values

    def _element(self, terms: dict):
        """The tagged value of a group-algebra element given by terms."""
        terms = {g: c for g, c in terms.items() if c}
        if not terms:
            return (_S, Cyc.zero())
        if len(terms) == 1:
            ((g, c),) = terms.items()
            if g == 0:
                return (_S, _cyc(c))
            if not isinstance(c, Cyc) and c == 1:
                return (_G, g)
        return (_A, terms)

    def _algebra_is_zero(self, terms: dict) -> bool:
        """Exact zero test of sum_g c_g rho(g).

        Terms that share a coset of the scalar subgroup Z are folded onto
        its least element; a term alone in its coset stays as it is, so
        rational coefficients stay rational.  At most two terms in distinct
        cosets vanish only when none is left: c1 rho(a) + c2 rho(b) = 0 with
        nonzero c1, c2 makes rho(a^-1 b) scalar, so a and b share a coset.
        More terms are summed as integer image vectors when every
        coefficient is rational, and materialized otherwise.
        """
        fold = self.rep.scalar_cosets
        if fold is not None:
            shared: dict = {}
            for g in terms:
                r = fold[g][0]
                shared[r] = r in shared
            if len(shared) < len(terms):
                folded: dict = {}
                for g, c in terms.items():
                    r, lam = fold[g]
                    if not shared[r]:
                        folded[g] = c
                        continue
                    # demote leaves an irrational lam as a Cyc, never 1
                    if isinstance(lam, Cyc) or lam != 1:
                        c = _mul(c, lam)
                    folded[r] = _add(folded[r], c) if r in folded else c
                terms = {g: c for g, c in folded.items() if c}
        if len(terms) <= 2:
            return not terms
        if any(isinstance(c, Cyc) for c in terms.values()):
            return self._materialize(terms).is_zero()
        return not any(self._integer_sum(terms)[0])

    def _integer_sum(self, terms: dict) -> tuple[list[int], int]:
        """(vector, den): sum_g c_g rho(g) for rational c_g as one integer
        coefficient vector over den, laid out as in Rep.integer_images."""
        phi, den, vectors = self.rep.integer_images
        scale = 1
        for c in terms.values():
            scale = lcm(scale, c.denominator)
        acc = [0] * (self.rep.dim ** 2 * phi)
        for g, c in terms.items():
            k = c.numerator * (scale // c.denominator)
            for pos, v in vectors[g]:
                acc[pos] += k * v
        return acc, den * scale

    def _materialize(self, terms: dict) -> Mat:
        rep = self.rep
        n, d = rep.conductor, rep.dim
        phi = rep.integer_images[0]
        acc, den = self._integer_sum({g: c for g, c in terms.items()
                                      if not isinstance(c, Cyc)})
        raw = den == 1
        rows = [[Cyc(n, tuple(acc[k:k + phi]), den, _raw=raw)
                 for k in range(i * d * phi, (i + 1) * d * phi, phi)] for i in range(d)]
        for g, c in terms.items():
            if not isinstance(c, Cyc):
                continue
            if g == 0:
                for i in range(d):
                    rows[i][i] = rows[i][i] + c
                continue
            for i, row in enumerate(rep.images[g].rows):
                for j, v in enumerate(row):
                    if not v.is_zero():
                        rows[i][j] = rows[i][j] + c * v
        return Mat(rows)

    def _eval(self, e: Expr, assignment: dict, memo: dict):
        key = id(e)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kind = e.kind
        if kind == "const":
            out = (_S, e.value)
        elif kind == "var":
            out = (_G, assignment[e.value])
        elif kind == "inv":
            out = self._eval_inv(e, assignment, memo)
        elif kind == "sum":
            out = self._eval_sum(e, assignment, memo)
        elif kind == "prod":
            out = self._eval_prod(e, assignment, memo)
        elif kind == "stream_subsets":
            out = self._eval_stream_subsets(e, assignment, memo)
        elif kind == "stream_partitions":
            out = self._eval_stream_partitions(e, assignment, memo)
        elif kind == "stream_perm_body":
            out = self._eval_stream_perm_body(e, assignment, memo)
        else:
            raise AssertionError(kind)
        memo[key] = out
        return out

    def _eval_inv(self, e, assignment, memo):
        tag, payload = self._eval(e.children[0], assignment, memo)
        if tag == _G:
            return (_G, self.rep.group.inverse[payload])
        if tag == _S:
            if payload.is_zero():
                raise NonGroupSubtermError("inverse of a zero scalar subterm")
            return (_S, payload.inverse())
        if tag == _A:
            payload = self._materialize(payload)
        try:
            return (_M, payload.inverse())
        except ZeroDivisionError as exc:
            raise NonGroupSubtermError("inverse of a singular matrix subterm") from exc

    def _eval_sum(self, e, assignment, memo):
        planned = plan_terms(e, self.rep.group.table, assignment)
        if planned is not None:
            return self._element(planned)
        terms: dict = {}
        mat = None
        children = e.children
        if e._psi is None:
            e._psi = _psi_blocks(e)
        if e._psi:
            blocks, children = e._psi
            for names, middle, members in blocks:
                if not self._add_class_sums(terms, names, middle, assignment, memo):
                    children += members
        for c in children:
            fold = (self._linear(c, assignment, memo) if c.kind == "prod"
                    else (1, 0, self._eval(c, assignment, memo), 0))
            if fold[2] is not None and fold[2][0] == _M:
                m = self._fold_matrix(*fold)
                mat = m if mat is None else mat + m
            else:
                self._accumulate(terms, *fold)
        if mat is None:
            return self._element(terms)
        return (_M, mat + self._to_mat(self._element(terms)) if terms else mat)

    def _add_class_sums(self, terms: dict, names, middle, assignment, memo) -> bool:
        """terms += psi_Y(T) = sum_{y in Y} y T y^-1 for the values Y of names
        and T of middle; False, with terms untouched, unless Y is a bijection
        onto the group.

        Then psi_Y(T) commutes with every rho(g), so on an irreducible rep of
        degree d it is the scalar (|G| / d) tr rho(T) (Schur's lemma), added
        at the identity.  On a reducible rep, sum_y y h y^-1 = |C_G(h)| K_h
        for a group element h, with K_h the sum of h's class, and psi_Y is
        linear in T; a matrix T is left to the terms.  The bijection test is
        made once per call (memo) and name tuple."""
        group = self.rep.group
        bijective = memo.get(names)
        if bijective is None:
            bijective = memo[names] = (
                len(names) == group.order
                and len({assignment[n] for n in names}) == len(names))
        if not bijective:
            return False
        tag, payload = self._eval(middle, assignment, memo)
        if self.rep.is_irreducible():
            c = _mul(self._trace(tag, payload), group.order // self.rep.dim)
            terms[0] = _add(terms[0], c) if 0 in terms else c
            return True
        if tag == _M:
            return False
        if tag != _A:
            payload = {payload: 1} if tag == _G else {0: demote(payload)}
        for h, c in payload.items():
            members, centralizer = group.class_sum(h)
            c = _mul(c, centralizer)
            for g in members:
                terms[g] = _add(terms[g], c) if g in terms else c
        return True

    def _trace(self, tag, payload):
        """tr rho(T) of a tagged value T, as a coefficient."""
        if tag == _M:
            return demote(payload.trace())
        if tag == _S:
            return _mul(demote(payload), self.rep.dim)
        chi = self.rep.character.values
        if tag == _G:
            return demote(chi[payload])
        trace = 0
        for h, c in payload.items():
            trace = _add(trace, _mul(c, demote(chi[h])))
        return trace

    def _linear(self, e, assignment, memo):
        """(s, a, T, b) with s a T b the value of the product e, folded left
        to right: s the product of its scalars, a and b the words before and
        after T, and T (None for 1) the product of its other values and the
        words between them.  T is a group-algebra element (_A) until a value
        is a matrix or a convolution would cost more than matrices; from
        then on it is a matrix (_M), T rho(b) times the next value.  The
        zero rule: a zero scalar, or a zero non-leaf child with another
        non-leaf child after it, ends the product with s = 0.  The fold of a
        product with two or more non-leaf children is kept in the memo under
        the node itself, so a product shared by several sums is folded once
        per call."""
        cores = len([c for c in e.children if c.kind != "var" and c.kind != "const"])
        shared = cores > 1
        if shared and e in memo:
            return memo[e]
        table = self.rep.group.table
        s, a, core, b = 1, 0, None, 0
        for c in e.children:
            if c.kind == "var":
                tag, g = _G, assignment[c.value]
            elif c.kind == "const":
                tag, g = _S, c.value
            else:
                cores -= 1
                val = self._eval(c, assignment, memo)
                if cores and self._is_zero(val):
                    s = 0
                    break
                tag, g = val
            if tag == _G:
                if core is None:
                    a = table[a][g]
                else:
                    b = table[b][g]
            elif tag == _S:
                s = _mul(s, demote(g))
                if not s:
                    break
            elif core is None:
                core = val
            else:
                if b:
                    core = ((_A, {table[h][b]: x for h, x in core[1].items()})
                            if core[0] == _A else (_M, core[1] * self.rep.image(b)))
                    b = 0
                if core[0] == _A and tag == _A and len(core[1]) * len(g) <= self._convolve_limit:
                    core = (_A, _convolve(core[1], g, table))
                else:
                    core = (_M, self._to_mat(core) * self._to_mat(val))
        out = (s, a, core, b) if s else (0, 0, None, 0)
        if shared:
            memo[e] = out
        return out

    def _accumulate(self, terms: dict, s, a, core, b) -> dict:
        """terms += s a T b, coefficient by coefficient, for a tagged value T
        other than a matrix (1 when core is None); returns terms."""
        tag, payload = core or (_G, 0)
        if not s:
            return terms
        if tag != _A:
            payload = {payload: 1} if tag == _G else {0: demote(payload)}
        sign = s if not isinstance(s, Cyc) and s in (1, -1) else None
        table = self.rep.group.table if a or b else None
        for g, c in payload.items():
            if table:
                g = table[table[a][g]][b]
            c = c if sign == 1 else -c if sign == -1 else _mul(c, s)
            terms[g] = _add(terms[g], c) if g in terms else c
        return terms

    def _fold_matrix(self, s, a, core, b) -> Mat:
        """s rho(a) T rho(b) for a matrix T."""
        m = core[1]
        if a:
            m = self.rep.image(a) * m
        if b:
            m = m * self.rep.image(b)
        return m if s == 1 else m.scale(_cyc(s))

    def _eval_prod(self, e, assignment, memo):
        fold = self._linear(e, assignment, memo)
        if fold[2] is None or fold[2][0] != _M:
            return self._element(self._accumulate({}, *fold))
        return (_M, self._fold_matrix(*fold))

    # -- streamed products ------------------------------------------------

    def _eval_stream_subsets(self, e, assignment, memo):
        t, _sep, premise = e.extra
        base_vals = [self._eval(b, assignment, memo) for b in e.children]
        zeros = sum(1 for v in base_vals if self._is_zero(v))
        if zeros >= t:
            return (_S, Cyc.zero())
        # every subset holds a nonzero base; its sum is nonzero when it is
        # that base alone (t = 1) or when every base is psd
        if premise:
            raise self._no_vanishing_factor(e, "streamed product")
        raise StreamUndecided("streamed product with no vanishing subset and "
                              "bases not proved psd")

    def _eval_stream_perm_body(self, e, assignment, memo):
        """Sum over groups of factorial-size permutation products, decided by
        perfect matching over vanishing pair terms.

        A permutation factor sum_a E[a][nu(a)] vanishes when every chosen pair
        vanishes, so the product over all permutations of a group vanishes iff
        the vanishing pairs contain a perfect matching.  When every group has
        one, the whole body is zero.  Otherwise the body is certified nonzero
        only when every pair expression is proved psd (`is_psd`), every
        pair value is a scalar and the rep is irreducible: a psd scalar is
        a nonnegative multiple of the identity, so a group with no perfect
        matching has a positive product and the sum over groups is
        positive.  Any other body is undecided.
        """
        group_sizes, premise = e.extra
        offset = 0
        # psd pairs whose values are all scalars, probed until one is not
        all_scalar = premise
        all_matched = True
        for size in group_sizes:
            vals = []
            for a in range(size):
                row = []
                for b in range(size):
                    val = self._eval(e.children[offset + a * size + b], assignment, memo)
                    row.append(val)
                    if all_scalar and val[0] != _S:
                        all_scalar = self._to_mat(val).is_scalar() is not None
                vals.append(row)
            offset += size * size
            zero = [[self._is_zero(vals[a][b]) for b in range(size)] for a in range(size)]
            if not _has_perfect_matching(zero):
                all_matched = False
        if all_matched:
            return (_S, Cyc.zero())
        if all_scalar:
            raise self._no_vanishing_factor(e, "permutation body")
        raise StreamUndecided("permutation body with pairs not proved psd or "
                              "not scalar")

    def _eval_stream_partitions(self, e, assignment, memo):
        var_names, sizes, targets, _sep = e.extra
        mats = [self._to_mat(self._eval(c, assignment, memo)) for c in e.children]
        target_mats = [Mat.scalar(self.rep.dim, c) for c in targets]
        found = self._find_zero_partition(mats, list(sizes), target_mats, assignment, var_names)
        if found:
            return (_S, Cyc.zero())
        raise self._no_vanishing_factor(e, "partition product")

    def _no_vanishing_factor(self, e: Expr, what: str) -> Exception:
        """The exception for the streamed product e with no vanishing factor.
        With fresh separators between nonzero factors some separator choice
        keeps the product nonzero when the images span all matrices
        (Burnside's theorem), so the product is certified nonvanishing on an
        irreducible rep only; elsewhere it is undecided."""
        if self.rep.is_irreducible():
            return StreamNonvanishing(e, what)
        return StreamUndecided(f"{what} with no vanishing factor off an irreducible rep")

    def _find_zero_partition(self, mats, sizes, target_mats, assignment, var_names) -> bool:
        """Search for a typed partition whose every block sum matches its target."""
        m = len(mats)
        # try assembling blocks from whole conjugacy classes first
        if self._class_assembly_hint(assignment, var_names, sizes, target_mats, mats):
            return True
        order = sorted(range(len(sizes)), key=lambda i: sizes[i])
        budget = [PARTITION_BUDGET]

        def backtrack(bi, remaining):
            if budget[0] <= 0:
                raise StreamUndecided("partition search budget exhausted")
            if bi == len(order):
                return not remaining
            i = order[bi]
            size, target = sizes[i], target_mats[i]
            for subset in combinations(sorted(remaining), size):
                budget[0] -= 1
                acc = None
                for idx in subset:
                    acc = mats[idx] if acc is None else acc + mats[idx]
                total = acc if acc is not None else Mat.zeros(target.n)
                if (total - target.scale(Cyc.from_rational(size))).is_zero():
                    if backtrack(bi + 1, remaining - set(subset)):
                        return True
            return False

        return backtrack(0, set(range(m)))

    def _class_assembly_hint(self, assignment, var_names, sizes, target_mats, mats) -> bool:
        """Fill the blocks in order from unions of whole conjugacy classes:
        per block, a depth-first search over the unused classes, largest
        first, keeps the first union of the block's size whose sum matches
        its target.  False when a block has none, when a class is left over,
        or after 10,000 class trials."""
        group = self.rep.group
        cls_of = {}
        for i, v in enumerate(var_names):
            cls_of.setdefault(group.class_of(assignment[v]), []).append(i)
        items = sorted(cls_of.values(), key=lambda idxs: -len(idxs))
        lens = [len(idxs) for idxs in items]
        sums = [sum((mats[i] for i in idxs[1:]), mats[idxs[0]]) for idxs in items]
        used = [False] * len(items)
        trials = 10_000
        for size, target in zip(sizes, target_mats):
            target = target.scale(Cyc.from_rational(size))
            chosen = []  # (class, sum before it) along the search path
            k, left, acc = 0, size, None
            while True:
                if left == 0:
                    if (acc - target).is_zero() if acc is not None else target.is_zero():
                        break
                    k = len(items)
                while k < len(items) and (used[k] or lens[k] > left):
                    k += 1
                if k < len(items):
                    trials -= 1
                    if trials < 0:
                        return False
                    used[k] = True
                    chosen.append((k, acc))
                    acc = sums[k] if acc is None else acc + sums[k]
                    left -= lens[k]
                    k = 0
                    continue
                if not chosen:
                    return False
                k, acc = chosen.pop()
                used[k] = False
                left += lens[k]
                k += 1
        return all(used)


def _psi_blocks(e: Expr):
    """The conjugation averages among a sum's children, found once per sum
    node: (blocks, rest), or () when there is none.

    A block is every child prod([y, *M, inv(y)]) with the same middle node
    prod(M), when there are at least two.  Each block is (names, middle,
    members): the y names in child order, prod(M) and the member children;
    rest holds the other children in order.  M has one value per
    assignment whatever names it holds, and repeated names fail the
    bijection test, so neither bars a block."""
    groups: dict = {}
    for c in e.children:
        ch = c.children
        if (c.kind == "prod" and len(ch) > 2 and ch[0].kind == "var"
                and ch[-1].kind == "inv" and ch[-1].children[0].kind == "var"
                and ch[-1].children[0].value == ch[0].value):
            groups.setdefault(prod(ch[1:-1]), []).append(c)
    blocks, in_block = [], set()
    for middle, members in groups.items():
        if len(members) > 1:
            names = tuple(c.children[0].value for c in members)
            blocks.append((names, middle, tuple(members)))
            in_block.update(map(id, members))
    if not blocks:
        return ()
    return tuple(blocks), tuple(c for c in e.children if id(c) not in in_block)


def _has_perfect_matching(adj: list[list[bool]]) -> bool:
    """Bipartite perfect matching on a boolean adjacency square (Kuhn)."""
    n = len(adj)
    match_of = [-1] * n

    def try_augment(a, seen):
        for b in range(n):
            if adj[a][b] and not seen[b]:
                seen[b] = True
                if match_of[b] == -1 or try_augment(match_of[b], seen):
                    match_of[b] = a
                    return True
        return False

    for a in range(n):
        if not try_augment(a, [False] * n):
            return False
    return True


def expand_stream(e: Expr, limit: int = 10_000) -> Expr:
    """Materialize a streamed product into an explicit Prod (size-guarded)."""
    from math import comb

    if e.kind == "stream_subsets":
        t, sep_prefix, _ = e.extra
        count = comb(len(e.children), t)
        if count > limit:
            raise StreamUndecided(f"{count} factors exceed the expansion limit {limit}")
        factors = []
        for subset in combinations(range(len(e.children)), t):
            name = sep_prefix + "{" + ",".join(str(i + 1) for i in subset) + "}"
            factors.append(sum_([e.children[i] for i in subset]))
            factors.append(var(name))
        return prod(factors)
    if e.kind == "stream_perm_body":
        from itertools import permutations
        from math import factorial

        group_sizes, _ = e.extra
        total = 1
        for size in group_sizes:
            total *= factorial(size)
        if total > limit:
            raise StreamUndecided(f"{total} permutation factors exceed the limit {limit}")
        terms = []
        offset = 0
        for size in group_sizes:
            factors = []
            for nu in sorted(permutations(range(size))):
                factors.append(sum_(
                    [e.children[offset + a * size + nu[a]] for a in range(size)]
                ))
            terms.append(prod(factors))
            offset += size * size
        return sum_(terms)
    if e.kind == "stream_partitions":
        var_names, sizes, targets, sep_prefix = e.extra
        parts = list(_typed_partitions(list(range(len(var_names))), list(sizes)))
        if len(parts) > limit:
            raise StreamUndecided(f"{len(parts)} factors exceed the expansion limit {limit}")
        factors = []
        for pi, blocks in enumerate(parts):
            terms = []
            for (block, target) in zip(blocks, targets):
                avg = smul(Fraction(1, len(block)), sum_([var(var_names[i]) for i in block]))
                diff = sum_([avg, const(-target)])
                terms.append(prod([diff, star(diff)]))
            factors.append(sum_(terms))
            factors.append(var(f"{sep_prefix}{{{pi + 1}}}"))
        return prod(factors)
    return e


def _typed_partitions(universe: list[int], sizes: list[int]):
    if not sizes:
        if not universe:
            yield []
        return
    first, rest = sizes[0], sizes[1:]
    for block in combinations(universe, first):
        remaining = [x for x in universe if x not in block]
        for tail in _typed_partitions(remaining, rest):
            yield [list(block)] + tail
