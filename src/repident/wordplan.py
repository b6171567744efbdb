"""Flat plans for word sums, compiled once per sum node.

A word sum is a Sum whose children are vars, rational consts, word sums,
and products of rational consts and vars around at most one word sum.  A
conjugation average y T y^-1 holds an Inv, so a sum with one is no word
sum and keeps its class-sum path.  The standard polynomial s_k is one,
built from its shared sub-sums.

A word sum that holds another word sum compiles a plan on its first
evaluation, kept on the node (`Expr._plan`); the others have none, and a
difference var(a) - var(b) stays on the recursive path.  Every
evaluation runs the plan afresh as loops of group table lookups into
plain dicts, with no recursion; nothing is kept from one call to the
next.  The recursive evaluator gives the same values.
"""

from __future__ import annotations

from .exactnum import demote


def word_plan(e):
    """The plan of a sum, or None when e is not a word sum holding another
    word sum.

    The plan is its steps: one per word sum of e's sub-DAG in topological
    order, e last, a sum shared in the DAG being one step.  A step lists
    its children as terms (q, prefix, i, suffix), the value q a V_i b with
    V_i the value of step i (i is None for 1) and a, b the words of the
    prefix and suffix names."""
    if not _holds_sum(e):
        return None
    steps: list = []
    if _add_step(e, steps, {}) is None:
        return None
    return tuple(steps)


def _holds_sum(e) -> bool:
    """Some child of e is a sum or a product with a sum factor."""
    for c in e.children:
        if c.kind == "sum":
            return True
        if c.kind == "prod":
            for f in c.children:
                if f.kind == "sum":
                    return True
    return False


def _add_step(s, steps: list, index: dict):
    """The index of the step of the sum s, appended to steps after those of
    its inner sums; None when s is not a word sum.  index maps the id of
    each sum seen to its step, or to None."""
    key = id(s)
    if key in index:
        return index[key]
    index[key] = None
    terms = _word_terms(s)
    if terms is None:
        return None
    step = []
    for q, prefix, core, suffix in terms:
        i = None
        if core is not None:
            i = _add_step(core, steps, index)
            if i is None:
                return None
        step.append((q, prefix, i, suffix))
    index[key] = len(steps)
    steps.append(tuple(step))
    return index[key]


def _word_terms(s):
    """A sum's children as (q, prefix names, core, suffix names), the value
    q a T b with T the core sum (None for 1); None when a child is neither a
    var, a rational const, a sum nor a product of those with one sum at
    most."""
    terms = []
    for c in s.children:
        q, prefix, core, suffix = 1, [], None, []
        for f in c.children if c.kind == "prod" else (c,):
            if f.kind == "var":
                (prefix if core is None else suffix).append(f.value)
            elif f.kind == "const" and f.value.is_rational():
                q *= demote(f.value)
            elif f.kind == "sum" and core is None:
                core = f
            else:
                return None
        terms.append((q, tuple(prefix), core, tuple(suffix)))
    return terms


def plan_terms(e, table, assignment: dict):
    """The terms {group index: coefficient} of the sum e from its plan,
    under the group's multiplication table; None when e has no plan.  The
    plan is compiled on first use and kept in e._plan.  Terms may hold zero
    coefficients."""
    if e._plan is False:
        e._plan = word_plan(e)
    if e._plan is None:
        return None
    values = []
    for step in e._plan:
        out: dict = {}
        get = out.get
        for q, prefix, child, suffix in step:
            a = 0
            for n in prefix:
                a = table[a][assignment[n]]
            if child is None:
                out[a] = get(a, 0) + q
                continue
            b = 0
            for n in suffix:
                b = table[b][assignment[n]]
            row = table[a]
            for g, c in values[child].items():
                k = table[row[g]][b]
                out[k] = get(k, 0) + q * c
        values.append(out)
    return values[-1]
