"""Signatures and equivalence predicates: range signature, spectral
signature, Gassmann equivalence (plain, strong, uniform), table and
strong table equivalence, Galois conjugacy and similarity.

Cross-representation comparisons promote character values to a common
conductor before keying, so equality is decided symbolically; spectra are
compared by Rep.class_spectrum_keys, which need no conductor.  Characters
and spectra are class functions, so each class is keyed once and elements
read their class's key.  Uniform Gassmann equivalence
compares, per cyclic subgroup, the multisets of the elements' spectra in the
two representations; no restriction is built and no subgroup lattice either,
since a smallest failing subgroup is always cyclic (see uniformly_gassmann).
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from .replab import Character, Rep

# Never filled: perfbench/workloads.clear_program_caches still clears it.
_AUTO_CACHE: dict = {}


def range_signature(chi: Character, conductor: int | None = None):
    """Sorted tuple of (value key, level-set size); sizes sum to |G|."""
    counts: Counter = Counter()
    for key, size in zip(chi.class_keys(conductor or chi.key_conductor()),
                         chi.group.conjugacy_classes.sizes):
        counts[key] += size
    return tuple(sorted(counts.items()))


def spectral_signature(rep: Rep):
    """Sorted tuple of (spectrum key, level-set size) over the level sets of
    the power-trace map, which are those of the spectrum; sizes sum to |G|."""
    counts: Counter = Counter()
    for key, size in zip(rep.class_spectrum_keys, rep.group.conjugacy_classes.sizes):
        counts[key] += size
    return tuple(sorted(counts.items()))


def _class_keys(chi1: Character, chi2: Character) -> tuple[list[tuple], list[tuple]]:
    """Both characters' class value keys at their common key conductor."""
    kc = lcm(chi1.key_conductor(), chi2.key_conductor())
    return chi1.class_keys(kc), chi2.class_keys(kc)


def ranges_equal(chi1: Character, chi2: Character) -> bool:
    keys1, keys2 = _class_keys(chi1, chi2)
    return set(keys1) == set(keys2)


def range_signatures_equal(chi1: Character, chi2: Character) -> bool:
    kc = lcm(chi1.key_conductor(), chi2.key_conductor())
    return range_signature(chi1, kc) == range_signature(chi2, kc)


def gassmann_equivalent(rep1: Rep, rep2: Rep) -> bool:
    if rep1.dim != rep2.dim or rep1.group.order != rep2.group.order:
        return False
    return spectral_signature(rep1) == spectral_signature(rep2)


def strong_gassmann(rep1: Rep, rep2: Rep) -> bool:
    """A class-size-preserving bijection matching per-class spectra exists."""
    if rep1.dim != rep2.dim or rep1.group.order != rep2.group.order:
        return False

    def class_data(rep):
        return sorted(zip(rep.group.conjugacy_classes.sizes, rep.class_spectrum_keys))

    return class_data(rep1) == class_data(rep2)


def table_equivalent(chi1: Character, chi2: Character) -> bool:
    if chi1.group.table != chi2.group.table:
        raise ValueError("table equivalence is defined over one group")
    keys1, keys2 = _class_keys(chi1, chi2)
    return sorted(keys1) == sorted(keys2)


def strongly_table_equivalent(chi1: Character, chi2: Character) -> bool:
    if chi1.group.table != chi2.group.table:
        raise ValueError("table equivalence is defined over one group")
    sizes = chi1.group.conjugacy_classes.sizes
    keys1, keys2 = _class_keys(chi1, chi2)
    return sorted(zip(sizes, keys1)) == sorted(zip(sizes, keys2))


def galois_conjugate_reps(rep1: Rep, rep2: Rep) -> int | None:
    """The exponent t with chi2(x) = chi1(x^t) for all x, or None.

    Both sides are class functions (x^t runs over one class as x does), so
    they are compared on the class representatives.
    """
    if rep1.group.table != rep2.group.table:
        raise ValueError("galois conjugacy test expects one underlying group")
    group = rep1.group
    cc = group.conjugacy_classes
    keys1, keys2 = _class_keys(rep1.character, rep2.character)
    exp = group.exponent()
    for t in range(1, exp + 1):
        if gcd(t, exp) != 1:
            continue
        if all(key == keys1[cc.index_of(group.power(r, t))]
               for r, key in zip(cc.representatives, keys2)):
            return t
    return None


def similar_reps(rep1: Rep, rep2: Rep) -> list[int] | None:
    """An isomorphism alpha from rep1's group to rep2's (an automorphism when
    they share a table) with chi2(alpha(g)) = chi1(g), or None.

    Characters determine complex representations up to equivalence, so the
    search is character-level.  Elements are coloured by their spectra,
    which also fix their orders: a homomorphism alpha has chi2 o alpha = chi1
    exactly when it keeps every spectrum, since chi on the powers of g fixes
    g's spectrum.
    """
    if rep1.group.order != rep2.group.order or rep1.dim != rep2.dim:
        return None
    ids: dict = {}  # spectrum -> colour
    colours = [rep.group.conjugacy_classes.spread(
        [ids.setdefault(tuple(spec), len(ids)) for spec in rep.class_spectra])
        for rep in (rep1, rep2)]
    found = rep1.group._isomorphisms(rep2.group, rep1.group.small_generating_set(),
                                     first=True, colours=colours)
    return found[0] if found else None


def uniformly_gassmann(rep1: Rep, rep2: Rep):
    """(verdict, failing subgroup or None): Gassmann equivalence of the
    restrictions to every subgroup.

    The first dim power traces fix the spectrum (Newton's identities), so an
    Adams block of a restriction is exactly one spectrum, and an element's
    spectrum in rho|H is its spectrum in rho.  The restrictions are then
    Gassmann equivalent exactly when their per-element spectrum keys agree as
    multisets on the subgroup; unequal dimensions fail on the trivial one.

    Only the cyclic subgroups need testing.  Suppose the multisets agree on
    every cyclic subgroup.  By induction on |C| they agree on the generators
    of each cyclic C: C is the disjoint union of the generator sets of its
    subgroups, all cyclic, and those of the proper ones agree already.  Any
    subgroup H is the disjoint union of the generator sets of the cyclic
    subgroups inside it, so the multisets agree on H.  Hence a failing H
    contains a failing cyclic subgroup no larger than itself, and the first
    failing subgroup in the order of FiniteGroup.all_subgroups (by size, then
    by members) is cyclic: it is the first failing cyclic subgroup.
    """
    if rep1.group.table != rep2.group.table:
        raise ValueError("uniform Gassmann test expects one underlying group")
    group = rep1.group
    cc = group.conjugacy_classes
    ids: dict = {}  # spectrum key -> number, taken once per class
    ids1, ids2 = (cc.spread([ids.setdefault(key, len(ids)) for key in rep.class_spectrum_keys])
                  for rep in (rep1, rep2))
    for sub in group.cyclic_subgroups():
        if sorted(ids1[g] for g in sub) != sorted(ids2[g] for g in sub):
            return False, sub
    return True, None


def compare_all(rep1: Rep, rep2: Rep) -> dict:
    """The full predicate matrix between two representations."""
    chi1, chi2 = rep1.character, rep2.character
    same_table = rep1.group.table == rep2.group.table
    out = {
        "dims": [rep1.dim, rep2.dim],
        "orders": [rep1.group.order, rep2.group.order],
        "range_equal": ranges_equal(chi1, chi2),
        "range_signature_equal": range_signatures_equal(chi1, chi2),
    }
    # equal spectral signatures are what Gassmann equivalence means here
    out["spectral_signature_equal"] = out["gassmann"] = gassmann_equivalent(rep1, rep2)
    out["strong_gassmann"] = strong_gassmann(rep1, rep2)
    if same_table:
        out["table_equiv"] = table_equivalent(chi1, chi2)
        out["strong_table_equiv"] = strongly_table_equivalent(chi1, chi2)
        t = galois_conjugate_reps(rep1, rep2)
        out["galois"] = t is not None
        out["galois_t"] = t
    if rep1.group.order == rep2.group.order:
        out["similar"] = similar_reps(rep1, rep2) is not None
    if same_table:
        ok, witness = uniformly_gassmann(rep1, rep2)
        out["uniform_gassmann"] = ok
        if witness is not None:
            out["uniform_gassmann_failing_subgroup"] = sorted(witness)
    return out
