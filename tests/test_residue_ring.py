"""The residue-ring layer against Poly arithmetic, which shares no code with
the digit tensor its tables and products are built from."""

import random

import numpy as np
import pytest

from cokernel_lab.algebra import Poly, find_irreducible, poly_gcd, poly_mod
from cokernel_lab.chainring import MAX_RING_SIZE, ResidueRing


def _power(p: Poly, e: int) -> Poly:
    out = Poly.one(p.l)
    for _ in range(e):
        out = out * p
    return out


def _pairs(N: int, rng):
    """Every pair for small rings, 2000 random pairs otherwise."""
    if N <= 27:
        return [(a, b) for a in range(N) for b in range(N)]
    return [(rng.randrange(N), rng.randrange(N)) for _ in range(2000)]


@pytest.mark.parametrize(
    "modulus",
    [
        find_irreducible(5, 1),  # F_5, a ChainRing residue field
        find_irreducible(3, 2),  # F_9
        Poly(3, (0, 0, 1)),  # F_3[X]/(X^2), with zero divisors
        _power(Poly(3, (1, 0, 1)), 3),  # F_3[X]/((X^2+1)^3) = F_9[t]/(t^3)
        find_irreducible(13, 2),  # F_{13^2}, a point-counting field
    ],
)
def test_tables_match_poly_arithmetic(modulus):
    l = modulus.l
    ring = ResidueRing(modulus)
    assert ring.N == l**modulus.degree
    elems = [Poly.from_code(l, c) for c in range(ring.N)]
    assert len({e.coeffs for e in elems}) == ring.N
    assert all(e.degree < modulus.degree for e in elems)
    for a, b in _pairs(ring.N, random.Random(ring.N)):
        assert elems[ring.mul[a][b]] == poly_mod(elems[a] * elems[b], modulus)
        assert elems[ring.sub[a][b]] == poly_mod(elems[a] - elems[b], modulus)
    one = Poly.one(l)
    for a, x in enumerate(elems):
        assert elems[ring.neg[a]] == poly_mod(-x, modulus)
        if poly_gcd(x, modulus) == one:
            assert poly_mod(x * elems[ring.inv[a]], modulus) == one
        else:
            assert ring.inv[a] == 0


def test_pointwise_and_character_on_extension_field():
    """The Horner step and the quadratic character that point counting uses,
    on F_{13^2}."""
    modulus = find_irreducible(13, 2)
    ring = ResidueRing(modulus)
    elems = [Poly.from_code(13, c) for c in range(ring.N)]
    codes = np.random.default_rng(5).integers(0, ring.N, ring.N)
    got = ring.encode(ring.pointwise(ring.D[codes]))
    for x in range(ring.N):
        assert elems[got[x]] == poly_mod(elems[codes[x]] * elems[x], modulus)
    squares = {poly_mod(x * x, modulus).coeffs for x in elems[1:]}
    for c, x in enumerate(elems):
        want = 0 if c == 0 else (1 if x.coeffs in squares else -1)
        assert ring.chi[c] == want


def test_size_cap_and_modulus_checks():
    assert MAX_RING_SIZE >= 13**4
    with pytest.raises(ValueError, match="above MAX_RING_SIZE"):
        ResidueRing(Poly(13, (0,) * 5 + (1,)))
    with pytest.raises(ValueError, match="monic"):
        ResidueRing(Poly(3, (1, 2)))
    with pytest.raises(ValueError, match="monic"):
        ResidueRing(Poly(3, (1,)))
