import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from repident import catalog
from repident.catalog import (
    CatalogError,
    _from_generators,
    abelian_rep,
    circulant,
    find_unit_h,
    is_admissible,
    validate_catalog_rep,
)
from repident.exactnum import cyc_root_of_unity, mat_mul_mod
from repident.matrices import Mat
from repident.replab import RepError

PINNED = Path(__file__).parent / "data" / "catalog_pinned.json"


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _fingerprint(rep) -> dict:
    """The images as values (keys at the rep's conductor, blind to the
    conductor a zero entry carries), both conductors and the character."""
    keys = [[list(v.key(rep.conductor)) for row in m.rows for v in row] for m in rep.images]
    return {"images_sha256": _sha256(keys), "conductor": rep.conductor,
            "key_conductor": rep.key_conductor,
            "character_sha256": _sha256([v.to_json() for v in rep.character.values])}


def test_catalog_reps_match_the_pinned_models():
    """Every catalog rep the tests build keeps its images, conductors and
    character, and carries its catalog name."""
    pinned = json.loads(PINNED.read_text())
    for key, expected in pinned.items():
        group, name = key.split(":", 1)
        rep = catalog.get_entry(group).rep(name)
        assert rep.name == f"{group}:{name}"
        assert _fingerprint(rep) == expected, key


def test_from_generators_rejects_a_non_homomorphism():
    z4 = catalog.cyclic(4).group
    zeta3 = Mat(((cyc_root_of_unity(3, 1),),))
    with pytest.raises(RepError):
        _from_generators(z4, [1], [zeta3], "Z4:bad")
    # the same route builds the genuine character
    chi = _from_generators(z4, [1], [Mat(((cyc_root_of_unity(4, 1),),))], "Z4:chi1")
    assert chi.character.values == catalog.cyclic(4).rep("chi1").character.values


def test_s4_rep_names():
    s4 = catalog.symmetric(4)
    assert s4.rep_names() == ["rho1", "rho2", "rho3", "rho4", "rho5"]
    with pytest.raises(CatalogError):
        s4.rep("rho6")


def test_a5_dimensions():
    a5 = catalog.alternating(5)
    dims = sorted(a5.rep(n).dim for n in a5.rep_names())
    assert dims == [1, 3, 3, 4, 5]


def test_validation_modes():
    # every named rep is unitary, monomial, or carries an invariant form
    for name in ("S3", "S4", "A4", "Q8", "2T", "H3"):
        entry = catalog.get_entry(name)
        for rep_name in entry.rep_names():
            validate_catalog_rep(entry.rep(rep_name))
    a5 = catalog.alternating(5)
    d3a = a5.rep("dim3a")
    assert not d3a.is_unitary()
    assert d3a.has_invariant_form()


def test_heisenberg_characters_vanish_off_center():
    h3 = catalog.heisenberg(3)
    center = set(h3.group.center())
    for name in ("theta1", "theta2"):
        rep = h3.rep(name)
        assert rep.dim == 3 and rep.is_faithful() and rep.is_irreducible()
        for g in range(27):
            if g not in center:
                assert rep.character.value(g).is_zero()


def test_gamma_conditions():
    gam = catalog.gamma_d(7, 9, 2)
    meta = gam.meta["gamma"]
    assert (meta.d, meta.nprime) == (3, 3)
    assert gam.group.order == 63
    with pytest.raises(CatalogError):
        catalog.gamma_d(7, 9, 3)  # order of 3 mod 7 is 6, does not divide 9


def test_pi_kl_matrices():
    gam = catalog.gamma_d(7, 9, 2)
    p11 = gam.rep("pi(1,1)")
    a_idx = gam.elements.index((1, 0))
    mat = p11.images[a_idx]
    expected_diag = [cyc_root_of_unity(7, 1), cyc_root_of_unity(7, 2), cyc_root_of_unity(7, 4)]
    for i in range(3):
        assert mat.rows[i][i] == expected_diag[i]
        for j in range(3):
            if i != j:
                assert mat.rows[i][j].is_zero()
    b_idx = gam.elements.index((0, 1))
    b = p11.images[b_idx]
    assert b.rows[0][1] == 1 and b.rows[1][2] == 1
    assert b.rows[2][0] == cyc_root_of_unity(3, 1)


def test_pi_kl_fixed_point_free():
    p11 = catalog.gamma_d(7, 9, 2).rep("pi(1,1)")
    assert p11.is_fixed_point_free()


def test_pi_equivalence_classification():
    """Equivalent parameters give equal characters exactly as classified:
    l = l' mod n' and k' = k r^c mod m."""
    gam = catalog.gamma_d(7, 9, 2)
    m, r, nprime, d = 7, 2, 3, 3
    p11 = gam.rep("pi(1,1)")
    for k, l in [(2, 1), (4, 1), (1, 4), (2, 4), (1, 2), (3, 1)]:
        other = gam.rep(f"pi({k},{l})")
        same = other.character.values == p11.character.values
        expected = (l % nprime == 1 % nprime) and any(
            k == (1 * pow(r, c, m)) % m for c in range(d)
        )
        assert same == expected, (k, l)


def test_wreath_constructors():
    w3 = catalog.wreath(3)
    assert w3.group.order == 81
    p = 3
    assert is_admissible((1, 0, 0), p)
    assert not is_admissible((1, 1, 1), p)
    # admissible iff circulant invertible (determinant oracle mod p)
    from repident.catalog import _mat_mod_det

    for w in itertools.product(range(p), repeat=p):
        inv = _mat_mod_det(circulant(w, p), p) != 0
        assert inv == is_admissible(w, p), w
    coeffs, h = find_unit_h(3)
    assert _mat_mod_det(h, 3) != 0
    hw = tuple(sum(h[i][j] * (1, 0, 0)[j] for j in range(3)) % 3 for i in range(3))
    assert is_admissible(hw, 3)
    rep = w3.rep("rho_w")
    assert rep.dim == 3 and rep.is_irreducible() and rep.is_faithful()
    with pytest.raises(CatalogError):
        catalog.rho_w(w3, (1, 1, 1))


def _shift_powers(p: int) -> list:
    """S^0, ..., S^(p-1) mod p as matrix powers, S the coordinate cycle of
    Z_p^p (S[i][j] = 1 exactly when j = i + 1 mod p)."""
    shift = tuple(tuple(int(j == (i + 1) % p) for j in range(p)) for i in range(p))
    powers = [tuple(tuple(int(i == j) for j in range(p)) for i in range(p))]
    for _ in range(p - 1):
        powers.append(mat_mul_mod(powers[-1], shift, p))
    return powers


def _sum_of_shift_powers(w, powers, p):
    return tuple(tuple(sum(wi * s[a][b] for wi, s in zip(w, powers)) % p for b in range(p))
                 for a in range(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_circulant_is_a_sum_of_shift_powers(p):
    rng = random.Random(p)
    powers = _shift_powers(p)
    for _ in range(20):
        w = tuple(rng.randrange(-2 * p, 2 * p) for _ in range(p))
        assert circulant(w, p) == _sum_of_shift_powers(w, powers, p), w


@pytest.mark.parametrize("p", [3, 5])
def test_find_unit_h_is_the_first_unit_of_order_p_off_the_shift_powers(p):
    """The rule written out: the first coefficient vector, lexicographically,
    whose circulant has a nonzero determinant, is no power of the shift and
    has order p (powers taken up to p)."""
    from repident.catalog import _mat_mod_det

    powers = _shift_powers(p)
    for coeffs in itertools.product(range(p), repeat=p):
        h = _sum_of_shift_powers(coeffs, powers, p)
        if _mat_mod_det(h, p) == 0 or h in powers:
            continue
        x, order = h, 1
        while x != powers[0] and order <= p:
            x, order = mat_mul_mod(x, h, p), order + 1
        if order == p:
            break
    assert find_unit_h(p) == (coeffs, h)


def test_binary_tetrahedral():
    tt = catalog.binary_tetrahedral()
    assert tt.group.order == 24
    assert tt.group.order_statistics() == (1, 2, 3, 4, 6)
    nat = tt.rep("nat")
    assert nat.is_unitary() and nat.is_irreducible() and nat.is_faithful()
    # natural model sits inside the determinant-one unitary group
    for mt in nat.images:
        assert mt.det() == 1


def test_abelian_rep_faithful_iff_invertible():
    faithful = abelian_rep(3, 2, 2, [[1, 0], [0, 1]])
    assert faithful.is_faithful()
    degenerate = abelian_rep(3, 2, 2, [[1, 0], [2, 0]])
    assert not degenerate.is_faithful()


def test_abelian_example_pair_similar():
    from repident.equivalence import similar_reps

    v1 = [[1, 0], [0, 1], [1, 1]]
    v2 = [[1, 0], [0, 1], [1, -1]]
    r1 = abelian_rep(3, 2, 3, v1)
    r2 = abelian_rep(3, 2, 3, v2)
    assert similar_reps(r1, r2) is not None


def test_get_entry_parse():
    assert catalog.get_entry("Z8").group.order == 8
    assert catalog.get_entry("gamma(7,9,2)").group.order == 63
    with pytest.raises(CatalogError):
        catalog.get_entry("M11")
