"""Signatures and equivalence predicates: range signature, spectral
signature, Gassmann equivalence (plain, strong, uniform), table and
strong table equivalence, Galois conjugacy and similarity.

Cross-representation comparisons promote all spectral and character data
to a common conductor before keying, so equality is decided symbolically.
Uniform Gassmann equivalence compares, per subgroup, the multisets of the
elements' spectra in the two representations; no restriction is built.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from .replab import Character, Rep, spectrum, spectrum_key

# Never filled: perfbench/workloads.clear_program_caches still clears it.
_AUTO_CACHE: dict = {}


def _common_conductor(rep1: Rep, rep2: Rep) -> int:
    return lcm(rep1.key_conductor, rep2.key_conductor)


def range_signature(chi: Character, conductor: int | None = None):
    """Sorted tuple of (value key, level-set size); sizes sum to |G|."""
    kc = conductor or chi.key_conductor()
    counts: Counter = Counter()
    for v, size in zip(chi.class_values(), chi.group.conjugacy_classes.sizes):
        counts[v.key(kc)] += size
    return tuple(sorted(counts.items()))


def spectral_signature(rep: Rep, conductor: int | None = None):
    """Sorted tuple of (block size, block spectrum key) over the level sets
    of the power-trace map."""
    kc = conductor or rep.key_conductor
    out = []
    for block in rep.adams_partition:
        out.append((len(block), spectrum_key(rep, block[0], kc)))
    return tuple(sorted(out))


def ranges_equal(chi1: Character, chi2: Character) -> bool:
    kc = lcm(chi1.key_conductor(), chi2.key_conductor())
    return ({v.key(kc) for v in chi1.class_values()}
            == {v.key(kc) for v in chi2.class_values()})


def range_signatures_equal(chi1: Character, chi2: Character) -> bool:
    kc = lcm(chi1.key_conductor(), chi2.key_conductor())
    return range_signature(chi1, kc) == range_signature(chi2, kc)


def gassmann_equivalent(rep1: Rep, rep2: Rep) -> bool:
    if rep1.dim != rep2.dim or rep1.group.order != rep2.group.order:
        return False
    kc = _common_conductor(rep1, rep2)
    return spectral_signature(rep1, kc) == spectral_signature(rep2, kc)


def strong_gassmann(rep1: Rep, rep2: Rep) -> bool:
    """A class-size-preserving bijection matching per-class spectra exists."""
    if rep1.dim != rep2.dim or rep1.group.order != rep2.group.order:
        return False
    kc = _common_conductor(rep1, rep2)

    def class_data(rep):
        cc = rep.group.conjugacy_classes
        return sorted(
            (cc.sizes[i], spectrum_key(rep, cc.representatives[i], kc))
            for i in range(len(cc))
        )

    return class_data(rep1) == class_data(rep2)


def table_equivalent(chi1: Character, chi2: Character) -> bool:
    if chi1.group.table != chi2.group.table:
        raise ValueError("table equivalence is defined over one group")
    kc = lcm(chi1.key_conductor(), chi2.key_conductor())
    v1 = sorted(v.key(kc) for v in chi1.class_values())
    v2 = sorted(v.key(kc) for v in chi2.class_values())
    return v1 == v2


def strongly_table_equivalent(chi1: Character, chi2: Character) -> bool:
    if chi1.group.table != chi2.group.table:
        raise ValueError("table equivalence is defined over one group")
    kc = lcm(chi1.key_conductor(), chi2.key_conductor())
    cc = chi1.group.conjugacy_classes
    d1 = sorted((cc.sizes[i], chi1.class_values()[i].key(kc)) for i in range(len(cc)))
    d2 = sorted((cc.sizes[i], chi2.class_values()[i].key(kc)) for i in range(len(cc)))
    return d1 == d2


def galois_conjugate_reps(rep1: Rep, rep2: Rep) -> int | None:
    """The exponent t with chi2(x) = chi1(x^t) for all x, or None."""
    if rep1.group.table != rep2.group.table:
        raise ValueError("galois conjugacy test expects one underlying group")
    group = rep1.group
    chi1, chi2 = rep1.character, rep2.character
    exp = group.exponent()
    for t in range(1, exp + 1):
        if gcd(t, exp) != 1:
            continue
        if all(chi2.values[g] == chi1.values[group.power(g, t)] for g in range(group.order)):
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
    colours = [[ids.setdefault(tuple(spectrum(rep, g)), len(ids)) for g in range(rep.group.order)]
               for rep in (rep1, rep2)]
    found = rep1.group._isomorphisms(rep2.group, rep1.group.small_generating_set(),
                                     first=True, colours=colours)
    return found[0] if found else None


def uniformly_gassmann(rep1: Rep, rep2: Rep, limit: int = 200):
    """(verdict, failing subgroup or None): Gassmann equivalence of the
    restrictions to every subgroup.

    The first dim power traces fix the spectrum (Newton's identities), so an
    Adams block of a restriction is exactly one spectrum, and an element's
    spectrum in rho|H is its spectrum in rho.  The restrictions are then
    Gassmann equivalent exactly when their per-element spectrum keys agree as
    multisets on the subgroup; unequal dimensions fail on the trivial one.
    """
    if rep1.group.table != rep2.group.table:
        raise ValueError("uniform Gassmann test expects one underlying group")
    subgroups = rep1.group.all_subgroups(limit)
    kc = _common_conductor(rep1, rep2)
    keys1, keys2 = ([spectrum_key(rep, g, kc) for g in range(rep.group.order)]
                    for rep in (rep1, rep2))
    for sub in subgroups:
        if sorted(keys1[g] for g in sub) != sorted(keys2[g] for g in sub):
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
    if same_table and rep1.group.order <= 200:
        ok, witness = uniformly_gassmann(rep1, rep2)
        out["uniform_gassmann"] = ok
        if witness is not None:
            out["uniform_gassmann_failing_subgroup"] = sorted(witness)
    return out
