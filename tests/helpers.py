"""Documents shared by more than one test module."""

from fractions import Fraction

from repident import idfactory as idf
from repident.exactnum import Cyc
from repident.freeexpr import const, prod, sum_, var


def unseparated_character_doc(rep):
    """The character identity's guarded product with no separators between
    its conjugation-average factors."""
    m, n = rep.group.order, rep.dim
    factors, yvars = idf.guard_factors(m)
    psi_x = idf.psi_expr(var("x"), yvars)
    ratio = Cyc.from_rational(Fraction(m, n))
    factors += [sum_([psi_x, const(-(chi * ratio))])
                for chi in rep.character.range_values(rep.key_conductor)]
    return idf.IdentityDoc("test", prod(factors), {"Y": idf._names(yvars)}, {},
                           "unseparated character identity")
