"""Decides whether an identity holds in a representation, with graded
evidence. Every mode is a source of (assignment, decision) pairs:

- exhaustive: every tuple of values of the variables the root value
  factors read (`_DocTables.read_names`; budget-bounded by the count of all
  assignments), last name fastest, optionally split over worker processes
  that each walk one window of that order and return its first failing
  decision;
- guarded: guard sets range over full group enumerations (canonical plus
  K random orderings), arguments (the variables that are neither guards
  nor separators) enumerated or sampled; on a document symmetric in its
  guards (`_guards_symmetric`) an enumerated argument's scan is the same in
  every ordering, so orderings past the first reuse the first's scans;
- structured: the assignment family that the construction singles out
  (class representatives x centralizer transversals, or series-complement
  tuples); on a group the family does not fit, where it is empty, the
  verdict is that of uniform samples;
- sampled(N, seed): N uniform draws of the variables the root value
  factors read.

A separator is a variable, not a guard, that is a root factor exactly
once and occurs in no other root factor; a document declares none, and a
relation, decided at given values, has none.  Every other root factor is a
value factor, whose slot is the separator just before it, if any; a block
is a value factor with a slot, or the first, and the value factors up to
the next slot (`_DocTables` alone decides all three).  Exhaustive and
sampled mode never enumerate or draw a separator: it changes no scan, and
the separator decision covers every choice of it.  Each assignment is
decided once: one scan of its root value factors (`_Session.scan`;
guarded mode scans the factors free of arguments once per ordering and
each argument factor at its level of the walk), then `_Session.settle`.
One loop (`_verify`) takes the decisions, counts the undecided ones and
builds the verdict.  A scan has one outcome: VANISHES
(a root factor vanishes) settles the assignment, UNDECIDED (a streamed
factor was not decided) makes it undecided, and CERTIFIED (a streamed
factor certified nonvanishing) makes it "blocked", a no-vanishing-factor
witness, in every mode.  The certificate says that nonzero factors with
separators between them have a nonzero product for some separator choice.
Its premises are proved, else the assignment is undecided: (a) every
factor of the stream is nonzero (`freeexpr.is_psd`); (b) the rep is
irreducible (Burnside's theorem; `Evaluator._no_vanishing_factor`); (c)
the root factor raised the certificate itself, not a streamed node inside
it, and every root value factor after the first has a slot or follows a
subset or partition stream, which ends in its own separator.
Otherwise, in every mode, a decision ends in the separator decision
(`_Session.witness_value`): separators keeping the product nonzero, or
None when every separator choice makes it vanish.  The product is linear
in each separator, so that question is decided exactly.
Every block is one factor of the product.  One pass from right to left,
on every rep, decides None before any search as soon as a block vanishes
(on a reducible rep, the block times a projection onto the space the rest
of the product lives in).  Past it some choice keeps the product nonzero
(Burnside on an irreducible rep), so the search for it cannot fail.
Only a streamed factor leaves an assignment undecided.

In exhaustive, sampled and structured mode and in the relation
probabilities, each assignment's scan evaluates its root value factors
afresh, so its decision depends on that assignment alone.  Only guarded
mode keeps outcomes across assignments.  It walks enumerated arguments
one level at a time (`_GuardedPlan`): each argument factor is decided
where its last argument is bound, once per values of the arguments it
reads.  Its one kind of outcome table lasts one ordering: a factor that
reads its one argument only inside conjugation averages over a whole
guard group is decided once per conjugacy class of that argument, whether
the arguments are enumerated or sampled.  What the verifier derives from
a document alone is built once per document (`_DocTables`).  A root
factor w1 - w2 of two group words (`_difference`; a guard difference
y_i - y_j is the one-letter case) is never evaluated: rho(w1) - rho(w2)
vanishes exactly when the words' group elements lie in
one coset of ker rho (`Rep.kernel_cosets`); a full guard, a guard group
whose differences cover every pair of its variables, is one test: do two
of its values share a coset?  The separator search extends the running
product by one block factor at a time and carries the rows of a matrix
with its row space (`_Prefix`): none while the product is invertible, the
factor itself after a factor of rank 1 (a word difference's rank is read
from `Rep.difference_ranks`), and one row once its image has rank 1.  It
works modulo a prime, row by row (a word difference is two row products
per row), and decides a slot exactly only when no group element gives a
nonzero image.  No floating point enters any decision.

A fails verdict always carries a counterexample whose re-evaluation is
nonzero, or, for a certified streamed product too large to materialize,
an assignment on which no root factor vanishes.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import random
import time
import weakref
from fractions import Fraction

from .exactnum import Cyc
from .freeexpr import (
    _G,
    _M,
    Evaluator,
    Expr,
    StreamNonvanishing,
    StreamUndecided,
    _psi_blocks,
    prod,
    reference_eval,
    star,
)
from .idfactory import IdentityDoc, _var_sort_key
from .matrices import Mat, rref
from .replab import Rep


# guarded mode enumerates the argument values when there are at most
# GUARDED_ARG_BUDGET of them, and samples GUARDED_ARG_SAMPLES per ordering
# otherwise
GUARDED_ARG_BUDGET = 20_000
GUARDED_ARG_SAMPLES = 500
# the class identity's structured source enumerates at most this many
# slot-to-class bijections
CLASS_BIJECTIONS = 24
# structured sources draw this many random rounds after the canonical one
STRUCTURED_ORDERINGS = 3


class VerifierError(RuntimeError):
    pass


class BudgetExceeded(VerifierError):
    pass


class Verdict:
    def __init__(self, status: str, evidence: str, detail: dict | None = None,
                 counterexample: dict | None = None, timing_ms: float | None = None):
        self.status = status
        self.evidence = evidence
        self.detail = detail or {}
        self.counterexample = counterexample
        self.timing_ms = timing_ms
        if status == "fails" and counterexample is None:
            raise VerifierError("a fails verdict requires a counterexample")

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json(self) -> dict:
        out = {"status": self.status, "evidence": self.evidence}
        out.update(self.detail)
        if self.counterexample is not None:
            out["witness"] = self.counterexample
        if self.timing_ms is not None:
            out["timing_ms"] = round(self.timing_ms, 3)
        return out

    def __repr__(self):
        return f"Verdict({self.status}/{self.evidence})"


def _ms(t0: float) -> float:
    return (time.time() - t0) * 1000


def _vacuous(evidence: str, t0: float, **detail) -> Verdict:
    return Verdict("holds", evidence, {**detail, "vacuous": True}, timing_ms=_ms(t0))


# the outcomes of a root factor scan, in order of precedence: the scan of a
# union of factor sets is the largest of their scans.  CERTIFIED: a streamed
# factor certified nonvanishing; UNDECIDED: a streamed factor not decided.
NONE, CERTIFIED, UNDECIDED, VANISHES = range(4)


# the decisions that fail no verdict: vanishing, and undecided
_NOT_FAILING = (None, "undecided")


class _DocTables:
    """What the verifier derives from one document alone (`_doc_tables`);
    it holds no reference to the document: the separators, the value
    factors and their slots, `differences`, the two words of every root
    value factor that is a word difference (`_difference`), decided from
    the words' group elements, `full_guards` and `scanned`, the value
    factors outside them.  A full guard is a guard group whose differences
    y_a - y_b cover every pair of its variables, kept as its names and
    tested as a whole (`_Session.scan`)."""

    symmetric = None  # the guard-symmetry certificate, set by `_guards_symmetric`
    _guarded = None  # guarded mode's walk, built by `guarded_plan`

    def __init__(self, doc: IdentityDoc, relation: bool = False):
        roots = list(doc.expr.children) if doc.expr.kind == "prod" else [doc.expr]
        bare = collections.Counter(f.value for f in roots if f.kind == "var")
        # the guards, and the variables some other root factor reads
        taken = frozenset().union(*doc.guards.values(),
                                  *[f.free_vars() for f in roots if f.kind != "var"])
        # the separators: the other root factors once, which no value factor
        # reads; a relation has none
        self.separators = seps = set() if relation else {
            name for name, k in bare.items() if k == 1 and name not in taken}
        self.sep_list = sorted(seps)
        # the root factors whose value can vanish, in expression order, and
        # the slot of each: the separator just before it, or None
        self.value_factors: list = []
        self.slots: list = []
        slot = None
        for f in roots:
            if f.kind == "var" and f.value in seps:
                slot = f.value
            else:
                self.value_factors.append(f)
                self.slots.append(slot)
                slot = None
        # root factor -> the words (a, b) of the factors a - b with a != b
        # (`_difference`), decided from `Rep.kernel_cosets` and never
        # stored; each word is one tuple per document.  Per guard group,
        # its differences y_a - y_b (label_of maps each guard's one-letter
        # word to its group): factor -> the pair
        words: dict = {}
        label_of = {((v, False),): label for label, vars_ in doc.guards.items() for v in vars_}
        pairs: dict = {label: {} for label in doc.guards}
        self.differences = {}
        for f in self.value_factors:
            ab = _difference(f)
            if ab and ab[0] != ab[1]:
                a, b = self.differences[f] = (words.setdefault(ab[0], ab[0]),
                                              words.setdefault(ab[1], ab[1]))
                label = label_of.get(a)
                if label is not None and label == label_of.get(b):
                    pairs[label][f] = (a, b) if a < b else (b, a)
        full = [label for label, found in pairs.items() if found
                and len(set(found.values())) == math.comb(len(doc.guards[label]), 2)]
        self.full_guards = [tuple(doc.guards[label]) for label in full]
        inside = set().union(*[pairs[label] for label in full])
        self.scanned = [f for f in self.value_factors if f not in inside]

    @functools.cached_property
    def separated(self) -> bool:
        """Premise (c): each value factor after the first follows a subset or
        partition stream or has a separator slot.  Read only when a streamed
        factor raises the certificate."""
        return all(slot is not None or f.kind in ("stream_subsets", "stream_partitions")
                   for f, slot in zip(self.value_factors, self.slots[1:]))

    @functools.cached_property
    def read_names(self) -> list[str]:
        """The sorted variables the root value factors read: every variable
        but the separators.  Built when exhaustive or sampled mode first
        reads them."""
        return sorted(frozenset().union(*[f.free_vars() for f in self.value_factors]))

    @functools.cached_property
    def blocks(self) -> list:
        """The blocks (slot, factors, node) of the witness search: a block
        opens at each slot and at the first value factor, and node is the
        product of its factors (its one factor: no root factor is a
        product).  Built when the search first reads them."""
        opens = [i for i, slot in enumerate(self.slots) if i == 0 or slot is not None]
        return [(self.slots[i], self.value_factors[i:j], prod(self.value_factors[i:j]))
                for i, j in zip(opens, opens[1:] + [len(self.slots)])]

    def guarded_plan(self, groups: dict, args: list[str]) -> _GuardedPlan:
        """Guarded mode's walk over args, the document's arguments under its
        guard groups (`_GuardedPlan`).  Built when guarded mode first asks."""
        if self._guarded is None or self._guarded.args != args:
            self._guarded = _GuardedPlan(self, groups, args)
        return self._guarded


class _GuardedPlan:
    """How guarded mode walks its arguments: in order, the last fastest,
    one level per argument.  A factor of `_DocTables.scanned` that reads no
    argument is `static`, scanned once per ordering after the full guards
    (`_Session.scan`).  Any other is decided at the level
    of the last argument it reads, and a vanishing one prunes the values of
    every later argument:

    - a factor that reads one argument filters that argument's values
      (`filters`): scanned once per value and ordering, where the walk first
      binds the value and the level's other factors leave it;
    - a factor that reads several is scanned per values of the arguments up
      to its level (`joints`).

    A factor that reads its one argument only in the middles of psi blocks
    over a whole guard group, middles that read no other variable and hold
    no stream, is keyed by the argument's conjugacy class: guards are a
    bijection Y onto G in guarded mode, so psi_Y(T(h z h^-1)) = psi_Y(T(z)).
    It is the only factor keyed, for one ordering, whether the arguments
    are enumerated or sampled.  A word difference reads its arguments
    outside psi, so it is never keyed: kernel cosets decide it.

    Each entry of `dynamic`, every argument factor (sampled arguments scan
    them all per draw), and of `filters` is (factor, class_name): the
    argument it is keyed by the class of, else None.  `joints` holds
    factors.  Every list keeps the order of the root factors.
    """

    def __init__(self, tables: _DocTables, groups: dict, args: list[str]):
        self.args = args
        level_of = {name: i for i, name in enumerate(args)}
        self.static: list = []
        self.dynamic: list = []
        self.filters: list = [[] for _ in args]
        self.joints: list = [[] for _ in args]
        for f in tables.scanned:
            read = sorted(level_of[v] for v in f.free_vars() if v in level_of)
            if not read:
                self.static.append(f)
            elif len(read) > 1:
                self.dynamic.append((f, None))
                self.joints[read[-1]].append(f)
            else:
                name = args[read[0]]
                classed = _confined_to_psi(f, frozenset([name]), groups, lambda middle: (
                    middle.free_vars() == {name} and not _holds_stream(middle)))
                entry = (f, name if classed else None)
                self.dynamic.append(entry)
                self.filters[read[0]].append(entry)


# document -> its _DocTables, dropped with the document
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _doc_tables(doc: IdentityDoc) -> _DocTables:
    if doc not in _TABLES:
        _TABLES[doc] = _DocTables(doc)
    return _TABLES[doc]


class _Session:
    """One verification run: owns the evaluator, RNG and witness search."""

    def __init__(self, doc: IdentityDoc, rep: Rep, seed: int = 0):
        self.doc = doc
        self.rep = rep
        self.rng = random.Random(seed)
        self.ev = Evaluator(rep)
        self.tables = _doc_tables(doc)
        self.cosets = rep.kernel_cosets if self.tables.differences else None
        self.undecided_count = 0

    def scan(self, assignment: dict, factors) -> int:
        """The scan outcome of the full guards (`_DocTables.full_guards`),
        then of factors (`scan_factors`).  A full guard vanishes exactly
        when two of its values share a coset of ker rho."""
        cosets = self.cosets
        for names in self.tables.full_guards:
            if len({cosets[assignment[name]] for name in names}) < len(names):
                return VANISHES
        return self.scan_factors(assignment, factors)

    def scan_factors(self, assignment: dict, factors, keys=None) -> int:
        """The scan outcome of the given root factors under assignment.  A
        `StreamNonvanishing` certifies its factor only under premise (c):
        it names the factor, and the document separates its value factors.

        Known outcomes and word differences are read first, in factor
        order, and the other factors are evaluated after them, in factor
        order.  keys, guarded mode's, gives per factor None or (name,
        table): the factor's zero test is looked up in, and recorded in,
        table under the conjugacy class of the value of name
        (`_GuardedPlan`).  keys None keys no factor.  A streamed factor that
        certifies nonvanishing or stays undecided is never recorded.  A word
        difference a - b (`_DocTables.differences`) is never evaluated nor
        stored: it vanishes when the group elements of its two words, folded
        through the group table (`_word_element`), share a kernel coset.
        The differences of a full guard are not among the factors a source
        passes: `scan` tests each full guard first.
        """
        cosets, differences = self.cosets, self.tables.differences
        value = assignment.__getitem__
        group = self.rep.group
        pending = []
        for i, f in enumerate(factors):
            if cosets is not None:
                ab = differences.get(f)
                if ab is not None:
                    if (cosets[_word_element(ab[0], assignment, group)]
                            == cosets[_word_element(ab[1], assignment, group)]):
                        return VANISHES
                    continue
            table = key = None
            if keys is not None and keys[i] is not None:
                name, table = keys[i]
                key = group.conjugacy_classes.index_of(value(name))
                vanishes = table.get(key)
                if vanishes is not None:
                    if vanishes:
                        return VANISHES
                    continue
            pending.append((f, table, key))
        memo: dict = {}
        outcome = NONE
        for f, table, key in pending:
            try:
                val = self.ev._eval(f, assignment, memo)
            except StreamNonvanishing as exc:
                certified = exc.node is f and self.tables.separated
                outcome = max(outcome, CERTIFIED if certified else UNDECIDED)
                continue
            except StreamUndecided:
                outcome = UNDECIDED
                continue
            vanishes = self.ev._is_zero(val)
            if table is not None:
                table[key] = vanishes
            if vanishes:
                return VANISHES
        return outcome

    def witness_value(self, assignment: dict) -> dict | None:
        """The separator decision for an assignment on which no root value
        factor vanishes: the assignment with separators that keep the
        product nonzero, or None when every separator choice makes it
        vanish.

        The product is A_0 X_1 A_1 ... X_k A_k: the block A_i of value
        factors after slot X_i (`_DocTables.blocks`; A_0 may be empty), each
        block one factor.  It is linear in each X_i, so some group elements
        make it nonzero exactly when some X_i in the span of the image do.
        `_block_factors` decides None before any search when a block
        vanishes, and otherwise gives each block its factor F_i, A_i times
        a projection onto the space the rest of the product lives in.
        Every separator starts at the identity, and each slot takes a
        group element u with P rho(u) F_i != 0, P the running product;
        after that pass some u always does.  No value factor reads a
        separator, so each is evaluated where the scan evaluated it.

        The product is carried modulo a prime as the rows of a matrix with
        its row space (`_Prefix`): a slot takes the first u whose product
        has a nonzero image, and is decided exactly only when none has.  So
        the decision is the one exact arithmetic alone makes, and the
        witness differs from an exact search's only after a false zero mod
        p.  A word difference a - b has the exact rank of rho(g_a) -
        rho(g_b), g_a and g_b its words' group elements, from
        `Rep.difference_ranks` at g_a^-1 g_b: an invertible one keeps an
        invertible product invertible at every u and is skipped, and any
        other enters as (g_a, g_b, rank), two row products per row of R.
        """
        group, dim = self.rep.group, self.rep.dim
        ev, differences = self.ev, self.tables.differences
        diff_ranks = self.rep.difference_ranks if differences else None
        assign = {**assignment, **dict.fromkeys(self.tables.sep_list, 0)}
        memo: dict = {}

        def difference(node) -> tuple | None:
            """(g_a, g_b, the exact rank of rho(g_a) - rho(g_b)) under assign
            when node is a word difference a - b."""
            ab = differences.get(node)
            if ab is None:
                return None
            g_a, g_b = _word_element(ab[0], assign, group), _word_element(ab[1], assign, group)
            return g_a, g_b, diff_ranks[group.table[group.inverse[g_a]][g_b]]

        def rank(node) -> int | None:
            d = difference(node)
            return d and d[2]

        def build(block: list, node) -> _Factor | None:
            """The block's factor (node's value, with a word difference's
            rank), or None when a block of several factors multiplies out
            to zero."""
            f = _Factor(ev, ev._eval(node, assign, memo), rank(node))
            if (f.mod is not None and any(map(any, f.mod))) or not ev._is_zero(f.val):
                return f
            if len(block) == 1:
                raise VerifierError("internal: vanishing factor inside witness search")
            return None

        factors = self._block_factors(build, rank)
        if factors is None:
            return None
        prefix = _Prefix(ev)
        for (slot, block, node), f in zip(self.tables.blocks, factors):
            if f is None:
                f = difference(node)
                if f is None or not f[2]:
                    f = build(block, node)  # raises on a vanishing difference
                elif prefix.pending is None and f[2] == dim:
                    continue  # P rho(u) F_i stays invertible
            u = prefix.extend(f)
            if slot is not None:
                assign[slot] = u
        return assign

    def _block_factors(self, build, rank) -> list | None:
        """Per block, its factor F in the witness product, or None for a
        block of one factor that the search builds where it needs it; None
        in place of the list when the product vanishes for every separator
        choice.

        From right to left, F is the block's product times the projection
        E after it, and U is F's column space; the product vanishes for
        every choice exactly when some U is zero.  For the block before, W
        is the span of rho(g) U over g in `Rep.span_basis`, and E fixes W:
        its columns are W's reduced basis at the pivots.  On an irreducible
        rep W is the whole space for every nonzero U (Burnside's theorem),
        so no E is built, and a block of one factor, which the scan found
        nonzero, is left to the search.
        The rest of the product has its columns in W, so E changes no
        product that reaches the end, and a nonzero product ending in F
        times rho(u) and the next block's factor is nonzero for some u."""
        rep, dim = self.rep, self.rep.dim
        irreducible = rep.is_irreducible()
        factors: list = []
        proj = None  # the E after the block; None: W is the whole space
        for _, block, node in reversed(self.tables.blocks):
            if proj is None and len(block) == 1 and (irreducible or rank(node) == dim):
                factors.append(None)  # nonzero, and W is the whole space
                continue
            f = build(block, node)
            if f is None:
                return None
            if proj is not None:
                mat = f.mat() * proj
                if mat.is_zero():
                    return None
                f = _Factor(self.ev, (_M, mat))
            factors.append(f)
            if irreducible:
                continue
            rows = [row for g in rep.span_basis
                    for row in (rep.image(g) * f.mat()).transpose().rows]
            reduced, pivots = rref(rows)
            proj = None
            if len(pivots) < dim:
                column, zero = dict(zip(pivots, reduced)), Cyc.zero()
                proj = Mat([[column[j][i] if j in column else zero for j in range(dim)]
                            for i in range(dim)])
        return factors[::-1]

    def decide(self, assignment: dict):
        """`settle` after one scan of every root value factor: the decision
        of structured and sampled mode and of the relation probabilities."""
        return self.settle(assignment, self.scan(assignment, self.tables.scanned))

    def settle(self, assignment: dict, scan: int, weight: int = 1):
        """The decision for assignment, given the scan of its root value
        factors: None when it vanishes, "undecided" (counted weight times,
        the number of assignments it stands for), "blocked" (certified
        nonvanishing), or after a NONE scan, in which no root factor
        raised, `witness_value`'s exact separator decision, in every mode."""
        if scan == VANISHES:
            return None
        if scan == UNDECIDED:
            self.undecided_count += weight
            return "undecided"
        if scan == CERTIFIED:
            return "blocked"
        return self.witness_value(assignment)


class _Factor:
    """A factor of the witness product: its tagged value, its exact rank
    when known (a difference's, from `Rep.difference_ranks`), its image mod
    p (`Evaluator._mod_p`; None when an entry does not reduce) and its
    exact matrix, built on first use."""

    __slots__ = ("ev", "val", "rank", "mod", "_mat")

    def __init__(self, ev: Evaluator, val, rank: int | None = None):
        self.ev = ev
        self.val = val
        self.rank = rank
        self.mod = ev._mod_p(val)
        self._mat = None

    def mat(self) -> Mat:
        if self._mat is None:
            self._mat = self.ev._to_mat(self.val)
        return self._mat


class _Prefix:
    """A matrix R with the row space of the running product P of the
    witness search, which extends P by rho(u) and one block factor F at a
    time: a `_Factor`, or a word difference given as (g_a, g_b, its rank).
    A zero test P X = 0 depends on the row space of P alone, and R M has
    the row space of P M, so R stands for P in every test and every
    extension.  Three rules skip or shrink products:

    1. While P is invertible, no matrix is carried (`pending` is None).  An
       invertible factor keeps it so at no cost; any other factor F becomes
       R, since rowspace(P rho(u) F) = rowspace(F).
    2. After a nonzero extension by a factor F of exact rank 1, R is F,
       since rowspace(P rho(u) F) is a nonzero subspace of rowspace(F).
    3. Once the image of R mod p has rank 1, it keeps its first nonzero
       row alone, the image of a row of R.

    R is carried modulo the prime p of `Rep.images_mod_p` as the nonzero
    rows of its image (`rows`), and as `exact` times the values recorded in
    `pending`.  Each candidate is made row by row (`_rows_times`): a word
    difference as r rho(u g_a) - r rho(u g_b).  Reduction is a ring map and
    every row of the image is the image of a row of R, so a product with a
    nonzero image is nonzero: each slot takes the first u with one.  Only
    when none has, or R or F has no image, are the values multiplied
    (`_catch_up`), the slot takes the first u whose exact product is
    nonzero, and R is carried exactly until the next reset.
    """

    def __init__(self, ev: Evaluator):
        self.ev, rep = ev, ev.rep
        red, images = rep.images_mod_p
        self.images = None if None in images else images  # None: some image does not reduce
        self.columns, self.table = rep.columns_mod_p, rep.group.table
        self.p, self.dim, self.order = red.p, rep.dim, len(self.table)
        # R is exact (None: no factor) times the tagged values in pending,
        # (None, (a, b)) standing for rho(a) - rho(b); pending is None while
        # P is invertible, and rows is None while R is carried exactly
        self.exact = self.pending = self.rows = None

    def extend(self, f) -> int:
        """Multiply the product by rho(u) F, F a nonzero factor, for the
        first group element u that keeps it nonzero, and return u."""
        if f.__class__ is tuple:
            val, fmod, rank = (None, f[:2]), None, f[2]
        else:
            val, fmod, rank = f.val, f.mod, f.rank
        if self.pending is None:
            # P rho(0) is invertible and F is nonzero
            if rank != self.dim:
                self._reset(val, fmod, rank)
            return 0
        found = self.rows and (fmod or val[0] is None) and self._first(val, fmod)
        if not found:
            self._catch_up()
            exact, image, mat = self.exact, self.ev.rep.image, self._matrix(val)
            cands = ((exact * image(u) if u else exact) * mat for u in range(self.order))
            found = next(((u, c) for u, c in enumerate(cands) if not c.is_zero()), None)
            if found is None:
                raise VerifierError("internal: no separator keeps the witness product nonzero")
            u, self.exact = found
            self.rows = None  # a false zero, or no image
        else:
            u, rows = found
            if rank != 1:
                self.pending += [(_G, u), val] if u else [val]
                self._keep(rows)
        if rank == 1:
            self._reset(val, fmod, rank)
        return u

    def _first(self, val, fmod) -> tuple | None:
        """(u, R rho(u) F mod p as rows) for the first u that makes it nonzero, or None."""
        rows, columns, p = self.rows, self.columns, self.p
        fcols = fmod and tuple(zip(*fmod))
        a, b = (0, 0) if fcols else val[1]
        for u, at in enumerate(self.table):
            cand = (_rows_times(_rows_times(rows, columns[u], p), fcols, p) if fcols
                    else _rows_times(rows, columns[at[a]], p, columns[at[b]]))
            if any(map(any, cand)):
                return u, cand
        return None

    def _reset(self, val, mod, rank) -> None:
        """R becomes the factor of value val, image mod and rank (rules 1 and 2)."""
        self.exact, self.pending, self.rows = None, [val], None
        if self.images and val[0] is None:
            (a, b), p, h = val[1], self.p, self.p >> 1
            mod = (tuple([(s - t + h) % p - h for s, t in zip(*rows)])
                   for rows in zip(self.images[a], self.images[b]))
        if self.images and mod is not None:
            self._keep(list(itertools.islice(filter(any, mod), 1 if rank == 1 else None)))

    def _keep(self, rows) -> None:
        """R mod p becomes the nonzero ones of rows (None: none), or the first alone
        when every minor with its first nonzero column vanishes (rule 3)."""
        if len(rows) > 1:
            rows, p = [row for row in rows if any(row)], self.p
            first = rows[0]
            j = next(k for k, v in enumerate(first) if v)
            if not any((first[j] * row[k] - first[k] * row[j]) % p
                       for row in rows[1:] for k in range(self.dim)):
                rows = rows[:1]
        self.rows = rows or None

    def _matrix(self, val) -> Mat:
        """The exact matrix of a recorded value."""
        if val[0] is None:
            a, b = val[1]
            return self.ev.rep.image(a) - self.ev.rep.image(b)
        return self.ev._to_mat(val)

    def _catch_up(self) -> None:
        """Multiply the pending values into exact."""
        for val in self.pending:
            mat = self._matrix(val)
            self.exact = mat if self.exact is None else self.exact * mat
        self.pending = []


def _rows_times(rows, columns, p: int, minus=None) -> list:
    """Each row times the matrix of columns, less its product with that of
    minus when given, mod p (residues of least absolute value): every
    candidate product of the witness search is made here."""
    h, mul = p >> 1, operator.mul
    if minus is None:
        return [tuple([(sum(map(mul, row, col)) + h) % p - h for col in columns])
                for row in rows]
    return [tuple([(sum(map(mul, row, col)) - sum(map(mul, row, neg)) + h) % p - h
                   for col, neg in zip(columns, minus)]) for row in rows]


def _verify(session: _Session, evidence: str, decisions, detail: dict, t0: float,
            fail_detail: dict | None = None) -> Verdict:
    """The verification loop of every mode: the first failing decision of
    the mode's source fails the verdict, with its witness (and fail_detail,
    if given, in place of detail); otherwise it holds, with the session's
    undecided count."""
    for assignment, outcome in decisions:
        if outcome in _NOT_FAILING:
            continue
        detail = fail_detail or detail
        if outcome == "blocked":
            evidence, outcome = "structured", assignment
            detail["witness_kind"] = (
                "no-vanishing-factor (streamed product; nonzero by simplicity "
                "with fresh separators)"
            )
        return Verdict("fails", evidence, detail, dict(outcome), timing_ms=_ms(t0))
    if session.undecided_count:
        detail["undecided"] = session.undecided_count
    return Verdict("holds", evidence, detail, timing_ms=_ms(t0))


def holds_exhaustive(doc: IdentityDoc, rep: Rep, budget: int = 300_000,
                     jobs: int = 1) -> Verdict:
    t0 = time.time()
    if doc.vacuous:
        return _vacuous("exhaustive", t0, assignments=0)
    names = sorted(doc.expr.free_vars())
    total = _assignment_count(names, rep.group.order, budget)  # raises over budget
    detail = {"assignments": total}
    session = _Session(doc, rep)
    if jobs > 1:
        detail["jobs"] = jobs
        decisions = _parallel_failures(session, names, jobs)
    else:
        decisions = _exhaustive_decisions(session, names, 0, None)
    return _verify(session, "exhaustive", decisions, detail, t0)


def _assignment_count(names: list[str], m: int, budget: int) -> int:
    """m ** len(names); raises BudgetExceeded when that exceeds budget."""
    total = m ** len(names)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the budget {budget}")
    return total


def _all_assignments(names: list[str], m: int, budget: int):
    """Every assignment of group elements to names, last name fastest;
    raises BudgetExceeded at once when there are more than budget."""
    _assignment_count(names, m, budget)
    return (dict(zip(names, combo)) for combo in itertools.product(range(m), repeat=len(names)))


def _exhaustive_decisions(session: _Session, names: list[str], start: int, stop: int | None):
    """The source of exhaustive mode: the read tuples (values of
    `_DocTables.read_names`, last name fastest) with index in [start,
    stop), each as the assignment of names with every separator at the
    identity, and `_Session.settle`'s decision for those whose scan finds
    no vanishing factor.  A separator changes no scan, so an undecided
    tuple stands for m ** (number of separators) undecided assignments.
    Each tuple's scan evaluates its factors afresh.  A scan that raises
    ends the walk at its assignment."""
    tables, m = session.tables, session.rep.group.order
    read = set(tables.read_names)
    weight = m ** (len(names) - len(read))
    ranges = [range(m) if name in read else (0,) for name in names]
    for values in itertools.islice(itertools.product(*ranges), start, stop):
        assignment = dict(zip(names, values))
        scan = session.scan(assignment, tables.scanned)
        if scan != VANISHES:
            yield assignment, session.settle(assignment, scan, weight)


def _parallel_failures(session: _Session, names: list[str], jobs: int):
    """Walk `jobs` consecutive windows of the serial order of read tuples
    (`_window_failure`) in worker processes that exit on their own
    (terminating one while it writes its result locks the result queue);
    add their undecided counts to the session and yield the failing
    decision of the failing window with the lowest start, or raise that
    window's exception when its scan raised first: the serial run's
    outcome."""
    import multiprocessing as mp

    total = session.rep.group.order ** len(session.tables.read_names)
    step = (total + jobs - 1) // jobs
    ranges = [(start, min(start + step, total)) for start in range(0, total, step)]
    ctx = mp.get_context("fork")
    with ctx.Pool(jobs, initializer=_worker_init,
                  initargs=(session.doc, session.rep, names)) as pool:
        windows = pool.map(_window_failure, ranges)
        pool.close()
        pool.join()
    for undecided, failing in windows:
        if isinstance(failing, Exception):
            raise failing
        session.undecided_count += undecided
        if failing is not None:
            yield failing


_WORKER_STATE: dict = {}


def _worker_init(doc, rep, names):
    _WORKER_STATE["args"] = (doc, rep, names)


def _window_failure(bounds) -> tuple:
    """(undecided count, first failing decision or None) of the
    exhaustive source over one window [start, stop) of read tuples; a scan
    that raises first gives its exception in place of the decision."""
    doc, rep, names = _WORKER_STATE["args"]
    session = _Session(doc, rep)
    try:
        failing = next((pair for pair in _exhaustive_decisions(session, names, *bounds)
                        if pair[1] not in _NOT_FAILING), None)
    except Exception as exc:  # the parent raises it when no earlier window failed
        failing = exc
    return session.undecided_count, failing


def holds_guarded(doc: IdentityDoc, rep: Rep, seed: int = 0, orderings: int = 5) -> Verdict:
    t0 = time.time()
    if doc.vacuous:
        return _vacuous("guarded", t0)
    m = rep.group.order
    groups = doc.guards
    if not groups:
        raise VerifierError("document declares no guard groups; use another mode")
    for label, vars_ in groups.items():
        if len(vars_) != m:
            raise VerifierError(
                f"guard group {label} has {len(vars_)} variables but the group "
                f"has order {m}; use the structured mode"
            )
    session = _Session(doc, rep, seed)
    guards = {v for vars_ in groups.values() for v in vars_}
    args = sorted(doc.expr.free_vars() - guards - session.tables.separators,
                  key=_var_sort_key)
    exhaustive_args = m ** len(args) <= GUARDED_ARG_BUDGET if args else True
    detail = {"orderings": orderings, "seed": seed, "checked": 0,
              "args_exhaustive": exhaustive_args}
    source = _guarded_decisions(session, groups, args, orderings, exhaustive_args, detail)
    return _verify(session, "guarded", source, detail, t0)


def _guarded_decisions(session: _Session, groups: dict, args: list[str], orderings: int,
                       exhaustive_args: bool, detail: dict):
    """The source of guarded mode: (assignment, `_Session.settle`'s
    decision) over guard orderings times argument values, less those found
    vanishing; detail["checked"] counts them.  Per ordering, the full
    guards and the factors free of arguments are scanned once (a zero
    among them settles every argument value).  Enumerated arguments are
    walked one level at a time (`_GuardedPlan`): each argument factor is
    decided once per values of the arguments it reads, a vanishing one
    prunes that subtree, and the survivors come in lexicographic order,
    detail["checked"] set from each one's index.  Sampled arguments scan
    every argument factor per draw.  Per ordering, a factor keyed by class
    (`_GuardedPlan`) keeps its outcomes in a fresh table, for enumerated
    and sampled arguments alike; no other factor's outcomes are kept.
    With exhaustive arguments on a document symmetric in its guards
    (`_guards_symmetric`), an argument value's scan is the same in every
    ordering: an ordering past the first scans nothing, and settles the
    first's nonvanishing argument values, with its own guard values, by
    their first scans.  It still draws its shuffle.
    """
    m = session.rep.group.order
    rng, scan_factors = session.rng, session.scan_factors
    plan = session.tables.guarded_plan(groups, args)
    reuse = exhaustive_args and _guards_symmetric(session, groups)

    def keys(entries: list) -> list:
        """The scan keys of entries for one ordering: a fresh table for each
        factor keyed by class."""
        return [None if name is None else (name, {}) for _, name in entries]

    dynamic = [f for f, _ in plan.dynamic]
    filter_factors = [[f for f, _ in entries] for entries in plan.filters]

    def walk(level: int, outcome: int, index: int):
        """(index, scan) of the surviving argument tuples below the values
        bound at the levels before level, in lexicographic order.  A value
        whose filter scan is known is read first, then the level's other
        factors are scanned, and the filters are scanned last."""
        name, last = args[level], level + 1 == len(args)
        factors, filters, known = plan.joints[level], filter_factors[level], filtered[level]
        for v in range(m):
            scan = known[v]
            if scan == VANISHES:
                continue
            assignment[name] = v
            joint = scan_factors(assignment, factors) if factors else NONE
            if joint == VANISHES:
                continue
            if scan is None:
                scan = known[v] = scan_factors(assignment, filters, filter_keys[level])
                if scan == VANISHES:
                    continue
            scan = max(outcome, scan, joint)
            if last:
                yield index * m + v, scan
            else:
                yield from walk(level + 1, scan, index * m + v)

    survivors: list = []  # (argument values, scan) of the first ordering's nonvanishing ones
    for rnd in range(orderings + 1):
        assignment: dict = {s: 0 for s in session.tables.sep_list}
        for vars_ in groups.values():
            order = list(range(m))
            if rnd > 0:
                rng.shuffle(order)
            assignment.update(zip(vars_, order))
        if rnd > 0 and reuse:
            detail["checked"] += 1 if static_scan == VANISHES else m ** len(args)
            for combo, scan in survivors:
                assignment.update(zip(args, combo))
                settled = dict(assignment)
                yield settled, session.settle(settled, scan)
            continue
        static_scan = session.scan(assignment, plan.static)
        if static_scan == VANISHES:
            detail["checked"] += 1
            continue
        if not exhaustive_args:
            dynamic_keys = keys(plan.dynamic)
            for _ in range(GUARDED_ARG_SAMPLES):
                assignment.update(zip(args, [rng.randrange(m) for _ in args]))
                detail["checked"] += 1
                scan = max(static_scan, scan_factors(assignment, dynamic, dynamic_keys))
                if scan != VANISHES:
                    settled = dict(assignment)
                    yield settled, session.settle(settled, scan)
            continue
        filter_keys = [keys(entries) for entries in plan.filters]
        # per level and value, the scan of the level's filters: None until
        # scanned, NONE for a level without filters
        filtered = [[None if entries else NONE] * m for entries in plan.filters]
        base = detail["checked"]
        for index, scan in walk(0, static_scan, 0) if args else [(0, static_scan)]:
            detail["checked"] = base + index + 1
            if reuse:
                survivors.append((tuple(map(assignment.__getitem__, args)), scan))
            settled = dict(assignment)
            yield settled, session.settle(settled, scan)
        detail["checked"] = base + m ** len(args)


def _difference(f: Expr) -> tuple | None:
    """The words (a, b) when f is a - b as `sub` builds it, in either child
    order, else None.  A word is a var, `inv` of a word, a `prod` of words
    or const(1); a power is a product of repeats.  Each word is kept as
    its tuple of (name, inverted) letters (`_word_letters`): a guard
    difference y_i - y_j is ((y_i, False),), ((y_j, False),)."""
    if f.kind == "sum" and len(f.children) == 2:
        for a, b in (f.children, f.children[::-1]):
            if (b.kind == "prod" and len(b.children) > 1
                    and b.children[0].kind == "const"):
                c = b.children[0].value  # -1 is (-1, 0, ...) / 1 at every conductor
                if c.den == 1 and c.num[0] == -1 and c.is_rational():
                    wa, wb = _word_letters([a]), _word_letters(b.children[1:])
                    if wa is None or wb is None:
                        return None
                    return tuple(wa), tuple(wb)
    return None


def _word_letters(factors, inverted: bool = False) -> list | None:
    """The (name, inverted) letters, left to right, of the product of
    factors, or of its inverse when inverted; None when a factor is not a
    word."""
    letters: list = []
    for e in reversed(factors) if inverted else factors:
        if e.kind == "var":
            letters.append((e.value, inverted))
            continue
        if e.kind == "const":
            c = e.value
            if c.is_rational() and c.rational_value() == 1:
                continue
            return None
        if e.kind not in ("inv", "prod"):
            return None
        inner = _word_letters(e.children, inverted != (e.kind == "inv"))
        if inner is None:
            return None
        letters += inner
    return letters


def _word_element(letters: tuple, assignment: dict, group) -> int:
    """The group element of a word's letters (`_difference`) under
    assignment, folded through the group table from the identity (0)."""
    table, inverse = group.table, group.inverse
    g = 0
    for name, inverted in letters:
        h = assignment[name]
        g = table[g][inverse[h] if inverted else h]
    return g


def _guards_symmetric(session: _Session, groups: dict) -> bool:
    """The guard-symmetry certificate: True when renaming the variables of a
    guard group by any permutation cannot change whether some root value
    factor vanishes on a bijection onto the group.  Computed once per
    document and kept in its tables (`_DocTables.symmetric`).

    A full guard (`_DocTables.full_guards`) vanishes on a bijection exactly
    when the rep is not faithful, whatever the ordering.  Every other root
    value factor (`_DocTables.scanned`) must mention guard variables only
    as the conjugators y of a psi block (`freeexpr._psi_blocks`) over all
    of one group, with a middle free of guard variables, so its value is
    the same for every bijection.  A streamed node that mentions a guard
    variable, or a guard variable anywhere else, refuses the certificate:
    a guard difference outside a full guard, or one of longer words, reads
    a guard variable bare.
    """
    tables = session.tables
    if tables.symmetric is None:
        guards = frozenset(v for vars_ in groups.values() for v in vars_)
        tables.symmetric = all(_confined_to_psi(f, guards, groups, lambda middle: (
            middle.free_vars().isdisjoint(guards))) for f in tables.scanned)
    return tables.symmetric


def _confined_to_psi(e: Expr, names: frozenset, groups: dict, middle_ok) -> bool:
    """True when the variables names occur in e only inside psi blocks
    (`freeexpr._psi_blocks`) that conjugate by each variable of one guard
    group exactly once and whose middle passes middle_ok; a streamed node
    that reads one of them refuses."""
    whole = {tuple(sorted(vars_)) for vars_ in groups.values()}
    seen: set = set()

    def confined(e) -> bool:
        if id(e) in seen or e.free_vars().isdisjoint(names):
            return True
        seen.add(id(e))
        if e.kind == "var" or e.kind.startswith("stream"):
            return False
        children = e.children
        if e.kind == "sum":
            if e._psi is None:
                e._psi = _psi_blocks(e)
            if e._psi:
                blocks, children = e._psi
                for conjugators, middle, members in blocks:
                    if tuple(sorted(conjugators)) not in whole or not middle_ok(middle):
                        children += members
        return all(confined(c) for c in children)

    return confined(e)


def _holds_stream(e: Expr) -> bool:
    """Whether a streamed node occurs in e."""
    return e.kind.startswith("stream") or any(map(_holds_stream, e.children))


def holds_sampled(doc: IdentityDoc, rep: Rep, n: int = 500, seed: int = 0) -> Verdict:
    t0 = time.time()
    if doc.vacuous:
        return _vacuous("sampled", t0, n=0, seed=seed)
    session = _Session(doc, rep, seed)
    source = _sampled_decisions(session, sorted(doc.expr.free_vars()), n)
    return _verify(session, "sampled", source, {"n": n, "seed": seed}, t0)


def _sampled_decisions(session: _Session, names: list[str], n: int):
    """The source of sampled mode: n assignments of names, each drawing the
    variables of `_DocTables.read_names` uniformly, in that order, with
    every separator at the identity, decided by `_Session.decide`: a
    separator changes no scan, and the separator decision covers every
    choice of them."""
    m, randrange = session.rep.group.order, session.rng.randrange
    read, template = session.tables.read_names, dict.fromkeys(names, 0)
    for _ in range(n):
        assignment = dict(template)
        assignment.update(zip(read, [randrange(m) for _ in read]))
        yield assignment, session.decide(assignment)


def holds_structured(doc: IdentityDoc, rep: Rep, seed: int = 0,
                     extra_samples: int = 200) -> Verdict:
    """Checks the assignment family the construction singles out
    (`_FAMILY_SOURCES`). A family that does not fit rep's group is empty;
    the verdict is then that of extra_samples uniform samples, holds_sampled
    at seed + 1."""
    t0 = time.time()
    if doc.vacuous:
        return _vacuous("structured", t0)
    source = _FAMILY_SOURCES.get(doc.family)
    if source is None:
        raise VerifierError(f"no structured family handler for {doc.family}")
    session = _Session(doc, rep, seed)
    family = source(doc, session, STRUCTURED_ORDERINGS)
    # round 0 draws nothing from the rng: peeking at it moves no later draw
    first = next(family, None)
    if first is None:
        return holds_sampled(doc, rep, n=extra_samples, seed=seed + 1)
    missing = doc.expr.free_vars() - first.keys()
    if missing:
        raise VerifierError(f"the {doc.family} family assigns no value to {sorted(missing)}")
    decisions = ((assignment, session.decide(assignment))
                 for assignment in itertools.chain([first], family))
    return _verify(session, "structured", decisions,
                   {"seed": seed, "orderings": STRUCTURED_ORDERINGS}, t0,
                   fail_detail={"seed": seed, "family": doc.family})


def _class_assignments(doc: IdentityDoc, session: _Session, orderings: int):
    """Theorem-style family: x_r over class representatives matched by size,
    Y_r over left transversals of the centralizers.

    At most CLASS_BIJECTIONS slot-to-class bijections within the size groups
    are enumerated: any single size-valid bijection already witnesses a
    failing value-matching body. A holding verdict rests on this family
    alone. It is empty when the group has fewer classes of some size than
    the document has slots of that size: the family does not fit the group."""
    group = session.rep.group
    rng = session.rng
    sizes = doc.params["sizes"]
    s = doc.params["s"]
    cc = group.conjugacy_classes
    size_groups = doc.params["size_groups"]
    base_assign = {sep: 0 for sep in session.tables.sep_list}

    def left_transversal(x: int, shuffle: bool) -> list[int]:
        # the first member of each coset in the (shuffled) element order;
        # unshuffled, that is the coset's leader
        leaders = group.coset_leaders(group.centralizer(x))
        order = list(range(group.order))
        if shuffle:
            rng.shuffle(order)
        first: dict = {}
        for g in order:
            first.setdefault(leaders[g], g)
        reps = list(first.values())
        if shuffle:
            rng.shuffle(reps)
        return reps

    # all ways to biject same-size slots onto distinct classes of that size
    choices_per_group = []
    for grp in size_groups:
        size = sizes[grp[0] - 1]
        classes = [ci for ci in range(len(cc)) if cc.sizes[ci] == size]
        if len(classes) < len(grp):
            return  # the family does not fit the group
        choices_per_group.append(list(itertools.permutations(classes, len(grp))))
    combos = itertools.islice(itertools.product(*choices_per_group), CLASS_BIJECTIONS)
    for combo in combos:
        class_for_slot = {}
        for grp, perm in zip(size_groups, combo):
            for slot, ci in zip(grp, perm):
                class_for_slot[slot] = ci
        for rnd in range(orderings + 1):
            assignment = dict(base_assign)
            for r in range(1, s + 1):
                members = sorted(cc.classes[class_for_slot[r]])
                x_val = members[0] if rnd == 0 else rng.choice(members)
                assignment[f"x{r}"] = x_val
                # [G : C_G(x)] = |x^G| = sizes[r - 1] transversal members
                for idx, g in enumerate(left_transversal(x_val, shuffle=rnd > 0)):
                    assignment[f"y{r}_{idx + 1}"] = g
            yield assignment


def _series_assignments(doc: IdentityDoc, session: _Session, orderings: int):
    """Series family: y_1..y_|G| a bijection onto G, x_1..x_s the elements
    outside Z_t (upper central series), c identity in round 0 and uniform
    after; later rounds shuffle y and x. A holding verdict rests on this
    family alone. It is empty when G has other than s elements outside Z_t:
    the family does not fit the group."""
    group = session.rep.group
    rng = session.rng
    s = doc.params["outside"]
    t = doc.params["t"]
    series = group.upper_central_series()
    zt = series[t] if t < len(series) else series[-1]
    outside = sorted(set(range(group.order)) - set(zt))
    if len(outside) != s:
        return
    m = group.order
    xnames = [f"x{i}" for i in range(1, s + 1)]
    unames = [f"c{j}_{st}" for j in range(1, s + 1) for st in range(1, t + 1)]
    ynames = [f"y{i}" for i in range(1, m + 1)]
    for rnd in range(orderings + 1):
        assignment = {sep: 0 for sep in session.tables.sep_list}
        order = list(range(m))
        if rnd > 0:
            rng.shuffle(order)
        assignment.update(zip(ynames, order))
        xs = list(outside)
        if rnd > 0:
            rng.shuffle(xs)
        assignment.update(zip(xnames, xs))
        for u in unames:
            assignment[u] = 0 if rnd == 0 else rng.randrange(m)
        yield assignment



# document family -> the assignment family structured mode checks
_FAMILY_SOURCES = {
    "class": _class_assignments,
    "class-adams": _class_assignments,
    "central-series-gassmann": _series_assignments,
}


def check(doc: IdentityDoc, rep: Rep, mode: str = "auto", seed: int = 0,
          budget: int = 300_000, n: int = 500, orderings: int = 5,
          jobs: int = 1) -> Verdict:
    if mode == "exhaustive":
        return holds_exhaustive(doc, rep, budget=budget, jobs=jobs)
    if mode == "guarded":
        return holds_guarded(doc, rep, seed=seed, orderings=orderings)
    if mode == "sampled":
        return holds_sampled(doc, rep, n=n, seed=seed)
    if mode == "structured":
        return holds_structured(doc, rep, seed=seed, extra_samples=n)
    if mode != "auto":
        raise VerifierError(f"unknown mode {mode!r}")
    if doc.vacuous:
        return Verdict("holds", "structured", {"vacuous": True})
    if doc.family in _FAMILY_SOURCES:
        return holds_structured(doc, rep, seed=seed, extra_samples=n)
    m = rep.group.order
    groups = doc.guards
    if groups and all(len(v) == m for v in groups.values()):
        return holds_guarded(doc, rep, seed=seed, orderings=orderings)
    total = m ** len(doc.expr.free_vars())
    if total <= budget:
        return holds_exhaustive(doc, rep, budget=budget, jobs=jobs)
    return holds_sampled(doc, rep, n=n, seed=seed)




# -- scalar and probabilistic analytics ---------------------------------------


def scalar_check(expr: Expr, rep: Rep, assignment: dict):
    """The scalar c with value c*I, or None if the value is not scalar."""
    return Evaluator(rep).scalar_of(expr, assignment)


def expectation(expr: Expr, rep: Rep, budget: int = 300_000) -> Mat:
    ev = Evaluator(rep)
    acc = None
    total = 0
    for assignment in _all_assignments(sorted(expr.free_vars()), rep.group.order, budget):
        try:
            value = ev.evaluate(expr, assignment)
        except (StreamNonvanishing, StreamUndecided) as exc:
            raise VerifierError(
                f"expectation needs the value at {assignment}, a streamed product: {exc}"
            ) from exc
        acc = value if acc is None else acc + value
        total += 1
    return acc.scale(Cyc.from_rational(Fraction(1, total)))


def _relation_session(expr: Expr, rep: Rep) -> _Session:
    """A session deciding expr at given values of all its variables: it has
    no separators (premise (c) then asks for streams between factors)."""
    doc = IdentityDoc("relation", expr, {}, {}, "relation")
    _TABLES[doc] = _DocTables(doc, relation=True)
    return _Session(doc, rep)


def _vanishes(session: _Session, assignment: dict) -> bool:
    """Exact zero test of the relation probabilities (`_Session.decide`;
    with no separators, its separator decision is the zero test of the
    product of the root factors): a certified streamed product counts as
    nonvanishing, an undecided one raises."""
    outcome = session.decide(assignment)
    if outcome == "undecided":
        raise VerifierError(f"relation undecided at {assignment}")
    return outcome is None


def relation_probability(expr: Expr, rep: Rep, budget: int = 300_000) -> Fraction:
    session, names = _relation_session(expr, rep), sorted(expr.free_vars())
    m = rep.group.order
    hits = sum(_vanishes(session, a) for a in _all_assignments(names, m, budget))
    return Fraction(hits, m ** len(names))


def conditional_relation_probability(u: Expr, v: Expr, rep: Rep,
                                     budget: int = 300_000) -> Fraction:
    """Pr(u | v) via the positive-semidefinite combination u u* + v v*: the
    share of the assignments where v v* vanishes on which the combination
    vanishes too, that is, where u u* does."""
    names = sorted(u.free_vars() | v.free_vars())
    uu = _relation_session(prod([u, star(u)]), rep)
    vv = _relation_session(prod([v, star(v)]), rep)
    both = v_only = 0
    for assignment in _all_assignments(names, rep.group.order, budget):
        if _vanishes(vv, assignment):
            v_only += 1
            both += _vanishes(uu, assignment)
    if v_only == 0:
        raise VerifierError("conditioning relation never holds")
    return Fraction(both, v_only)


# -- exact sampling over determinant-one rational matrices ----------------------


def random_sl2(rng: random.Random, shears: int = 4, height: int = 10) -> Mat:
    """Product of elementary shears with bounded rational entries (det = 1),
    formed as four integers over one common denominator: the Mat's integer
    form."""
    a, b, c, d, den = 1, 0, 0, 1, 1
    for _ in range(shears):
        n, k = rng.randint(-height, height), rng.randint(1, height)  # q = n / k
        if rng.random() < 0.5:  # times ((1, q), (0, 1))
            a, b, c, d = a * k, a * n + b * k, c * k, c * n + d * k
        else:  # times ((1, 0), (q, 1))
            a, b, c, d = a * k + b * n, b * k, c * k + d * n, d * k
        den *= k
    return Mat.rational(((a, b), (c, d)), den)


def sl2_sample_check(expr: Expr, trials: int = 1000, seed: int = 0) -> Verdict:
    """expr on random determinant-one rational matrices (`random_sl2`),
    evaluated by `freeexpr.reference_eval`."""
    t0 = time.time()
    names = sorted(expr.free_vars())
    rng = random.Random(seed)
    for trial in range(trials):
        assignment = {name: random_sl2(rng) for name in names}
        if not reference_eval(expr, assignment, 2).is_zero():
            witness = {
                name: [[str(v.rational_value()) for v in row] for row in mat.rows]
                for name, mat in assignment.items()
            }
            return Verdict("fails", "sampled",
                           {"n": trials, "seed": seed, "trial": trial},
                           witness, timing_ms=_ms(t0))
    return Verdict("holds", "sampled", {"n": trials, "seed": seed},
                   timing_ms=_ms(t0))


def sl2_trace_identity_check(trials: int = 1000, seed: int = 0) -> Verdict:
    """x^2 - tr(x) x + det_2(x) I with the actual trace and the half-difference
    determinant expression, on exact random determinant-one matrices."""
    t0 = time.time()
    rng = random.Random(seed)
    half = Cyc.from_rational(Fraction(1, 2))
    for trial in range(trials):
        a = random_sl2(rng)
        tr = a.trace()
        square = a * a
        det2 = (tr * tr - square.trace()) * half
        value = square - a.scale(tr) + Mat.scalar(2, det2)
        if not value.is_zero():
            witness = {"x": [[str(v.rational_value()) for v in row] for row in a.rows]}
            return Verdict("fails", "sampled", {"n": trials, "seed": seed},
                           witness, timing_ms=_ms(t0))
    return Verdict("holds", "sampled", {"n": trials, "seed": seed},
                   timing_ms=_ms(t0))
