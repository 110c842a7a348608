import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cokernel_lab.algebra import LocalRingSpec, Poly, RingSpec, find_irreducible
from cokernel_lab import measure
from cokernel_lab.measure import (
    MAX_TYPE_LENGTH,
    MeasureValue,
    c_constant,
    divisor_density,
    divisor_density_hypothesis,
    eta,
    independence_prediction,
    local_ring_with_residue_size,
    prediction_applies_at_q,
    moment_rank,
    mu,
    qbinom,
    rank_distribution,
    rank_distribution_partition_form,
)
from cokernel_lab.chainring import (
    brute_force_aut_order,
    enumerate_submodules_chain,
    local_tables_for,
)
from cokernel_lab.modules import (
    ModuleType,
    Partition,
    enumerate_module_types,
    partitions_of,
    submodule_counts,
)


def _spec(l, d, e):
    return LocalRingSpec(l, find_irreducible(l, d), e)


def test_eta_values():
    assert abs(eta(3).value - 0.5601260779) < 1e-8
    assert abs(eta(9).value - 0.8765603543) < 1e-8
    assert eta(3, 1e-3).depth < eta(3, 1e-12).depth


@pytest.mark.parametrize("Q", [2, 3, 9, 25])
def test_eta_value_within_tol(Q):
    """The truncation stops once sum_{u>depth} Q^-u < tol, which bounds the
    value error 1 - prod_{u>depth} (1 - Q^-u) even at a coarse tol; at
    eta(3, 0.5), depth 0, the error is 0.44."""
    exact = eta(Q, 1e-15).value
    for tol in (0.9, 0.5, 0.1, 1e-3, 1e-6):
        assert abs(eta(Q, tol).value - exact) <= tol, tol


def test_eta_validation():
    with pytest.raises(ValueError):
        eta(1)
    with pytest.raises(ValueError):
        eta(3, 0.0)


def test_measure_value_arithmetic():
    a = MeasureValue(Fraction(1, 2), (3,))
    b = MeasureValue(Fraction(1, 3), (3,))
    assert (a + b).rational == Fraction(5, 6)
    c = a * b
    assert c.eta_factors == (3, 3)
    zero = MeasureValue(Fraction(0), (9,))
    assert (a + zero) == a
    with pytest.raises(ValueError):
        a + MeasureValue(Fraction(1), (9,))
    with pytest.raises(ValueError):
        MeasureValue(Fraction(-1))
    quotient = MeasureValue(Fraction(1), (3,), (9,))
    assert quotient * MeasureValue(Fraction(2), (9,)) == MeasureValue(Fraction(2), (3,))
    with pytest.raises(ValueError):
        quotient + a


def test_measure_value_numeric():
    v = MeasureValue(Fraction(3, 16), (3,))
    assert abs(v.numeric() - 0.105024) < 1e-5


def test_qbinom_values():
    assert qbinom(2, 1, 3) == 4
    assert qbinom(3, 1, 2) == 7
    assert qbinom(4, 2, 3) == 130
    assert qbinom(3, 0, 5) == 1
    assert qbinom(2, 3, 3) == 0


@settings(max_examples=100)
@given(st.integers(0, 8), st.integers(0, 8), st.sampled_from([2, 3, 5]))
def test_qbinom_symmetry(n, k, Q):
    assert qbinom(n, k, Q) == qbinom(n, n - k, Q) if 0 <= k <= n else True


def test_c_constant_j0_is_eta():
    ring = RingSpec((_spec(3, 1, 2),))
    v = c_constant(ring, (0,))
    assert v.rational == 1
    assert v.eta_factors == (3,)
    assert abs(v.numeric() - eta(3).value) < 2e-9


def test_c_constant_values():
    ring = RingSpec((_spec(3, 1, 1),))
    assert c_constant(ring, (1,)).rational == Fraction(3, 2)
    assert c_constant(ring, (2,)).rational == Fraction(27, 16)


def test_mu_trivial_module():
    ring = RingSpec((_spec(3, 1, 2),))
    t = ModuleType.trivial(ring)
    assert mu(t) == c_constant(ring, (0,))


def test_mu_rank_one_limit_value():
    """Over F_3 the mass of the one-dimensional class is eta * 3/2 / 2."""
    ring = RingSpec((_spec(3, 1, 1),))
    t = ModuleType(ring, (Partition((1,)),))
    assert mu(t).rational == Fraction(3, 4)


def test_rank_distribution_values():
    local = _spec(3, 1, 2)
    assert rank_distribution(local, 0).rational == 1
    assert rank_distribution(local, 2).rational == Fraction(3, 16)
    # types of dimension 3: (2,1) with 108 automorphisms, (1,1,1) with |GL_3(F_3)|
    assert rank_distribution(local, 3).rational == Fraction(1, 108) + Fraction(1, 11232)


def test_rank_distribution_residue_degree_gate():
    local = _spec(3, 2, 1)
    assert rank_distribution(local, 3).rational == 0
    assert rank_distribution(local, 2).rational == Fraction(1, 8)


def test_partition_form_matches_direct_sum():
    for Q, e in [(3, 1), (3, 2), (3, 3), (5, 2), (9, 2)]:
        local = local_ring_with_residue_size(Q, e)
        deg = local.residue_degree
        for m in range(0, 10):
            direct = rank_distribution(local, m * deg)
            pf = rank_distribution_partition_form(Q, e, m)
            assert direct == pf, (Q, e, m)


def test_partition_form_zero_rank():
    v = rank_distribution_partition_form(3, 2, 0)
    assert v.rational == 1
    assert v.eta_factors == (3,)


def test_moment_rank_examples():
    assert moment_rank(3, 1, 1) == 2
    assert moment_rank(3, 1, 2) == 6
    assert moment_rank(5, 2, 0) == 1
    assert moment_rank(3, 2, 1) == 3
    assert moment_rank(3, 2, 2) == 23


def test_exact_layer_refuses_types_above_max_length(monkeypatch):
    """A rank or moment whose modules are longer than MAX_TYPE_LENGTH is
    refused by name before any type or submodule type is listed; the
    longest ones allowed still run."""

    def listed(*args):
        raise AssertionError("types listed before the refusal")

    assert MAX_TYPE_LENGTH == 32
    assert moment_rank(3, 1, 32) == sum(qbinom(32, k, 3) for k in range(33))
    assert rank_distribution(_spec(3, 1, 3), 32) == rank_distribution_partition_form(3, 3, 32)
    for name in ("enumerate_module_types", "partitions_of", "submodule_counts"):
        monkeypatch.setattr(measure, name, listed)
    long_rank = r"lists modules of length 33, above MAX_TYPE_LENGTH = 32"
    with pytest.raises(ValueError, match=rf"rank m = 33 over residue degree 1 {long_rank}"):
        rank_distribution(_spec(3, 1, 3), 33)
    with pytest.raises(ValueError, match=rf"rank m = 66 over residue degree 2 {long_rank}"):
        rank_distribution_partition_form(9, 4, 66, 2)
    # the density of X^700 is the rank mass at m = 1400 over F_3[X]/(X^701)
    with pytest.raises(ValueError, match=r"rank m = 1400 .* length 1400, above MAX_TYPE"):
        divisor_density(3, [(Poly.x(3), 700)])
    with pytest.raises(ValueError, match=r"moment k = 11 with e = 3 .* length 33, above"):
        moment_rank(3, 3, 11)
    with pytest.raises(ValueError, match=r"moment k = 1200 with e = 1 .* length 1200"):
        moment_rank(3, 1, 1200)
    # a rank the residue degree does not divide lists nothing and has mass 0
    assert rank_distribution(_spec(3, 2, 1), 1201).rational == 0


def test_moment_rank_matches_enumeration():
    for Q, e, k in [(3, 1, 3), (3, 2, 2), (5, 1, 2), (9, 1, 2), (3, 3, 1)]:
        local = local_ring_with_residue_size(Q, e)
        census = enumerate_submodules_chain(local_tables_for(local), (e,) * k)
        assert moment_rank(Q, e, k) == sum(census.values())


def test_submodule_count_matches_enumeration():
    """Birkhoff's closed form against the canonical-form enumeration, type
    by type."""
    for l, d, lam in [
        (3, 1, (2, 2)),
        (3, 1, (2, 1)),
        (3, 1, (2, 1, 1)),
        (3, 1, (3, 2, 1)),
        (3, 1, (4, 2, 1)),
        (5, 1, (2, 1)),
        (3, 2, (2, 1)),
        (3, 2, (3, 1)),
        (3, 2, (3, 2)),
        (3, 3, (2, 1)),
    ]:
        ring = local_tables_for(_spec(l, d, lam[0]))
        census = enumerate_submodules_chain(ring, lam)
        assert dict(submodule_counts(l**d, lam)) == census, (l, d, lam)


def test_rank_distribution_matches_brute_aut_orders():
    """The rational part of rank_distribution is the sum of 1/|Aut| over
    types, with |Aut| from the brute-force oracle rather than the run-index
    product that aut_order and the partition form share."""
    for l, max_m in [(3, 3), (5, 2)]:
        for e in (1, 2, 3):
            for m in range(max_m + 1):
                brute = sum(
                    Fraction(1, brute_force_aut_order(l, lam))
                    for lam in partitions_of(m, e)
                )
                assert rank_distribution(_spec(l, 1, e), m).rational == brute


def test_normalization_total_mass():
    """The masses of all classes sum to 1 (checked to 1e-6 at dimension 40)."""
    ring = RingSpec((_spec(3, 1, 2),))
    total = 0.0
    for m in range(41):
        for t in enumerate_module_types(ring, m):
            total += mu(t).numeric()
    assert abs(total - 1.0) < 1e-6


def test_rank_distribution_tail_monotone():
    local = _spec(3, 1, 2)
    values = [rank_distribution(local, m).numeric() for m in range(12)]
    tails = [sum(values[m:]) for m in range(12)]
    for a, b in zip(tails, tails[1:]):
        assert b <= a + 1e-12


def test_divisor_density_examples():
    l = 3
    x_minus_a = Poly(l, (2, 1))
    v = divisor_density(l, [(x_minus_a, 1)])
    assert v.rational == Fraction(3, 16)
    assert abs(v.numeric() - 0.105024) < 1e-5
    v0 = divisor_density(l, [(x_minus_a, 0)])
    assert v0.rational == 1
    assert abs(v0.numeric() - 0.560126) < 1e-5
    pair = divisor_density(l, [(Poly(l, (2, 1)), 0), (Poly(l, (1, 1)), 0)])
    assert pair.rational == 1
    assert abs(pair.numeric() - eta(3).value ** 2) < 1e-8


def test_divisor_density_validation():
    with pytest.raises(ValueError):
        divisor_density(4, [(Poly(3, (2, 1)), 0)])
    with pytest.raises(ValueError):
        divisor_density(3, [(Poly(3, (2, 1)), 0), (Poly(3, (2, 1)), 1)])


X = Poly(3, (0, 1))
X_PLUS_1 = Poly(3, (1, 1))  # X - 2, and 2^2 = 13 mod 3
X_PLUS_2 = Poly(3, (2, 1))  # X - 1, and 1 != 5 mod 3


def test_divisor_density_self_reciprocal_at_q():
    v = divisor_density(3, [(X_PLUS_1, 0)], q=13)
    assert v == MeasureValue(Fraction(1), (3,), (9,))
    assert abs(v.numeric() - eta(3).value / eta(9).value) < 1e-8
    assert divisor_density(3, [(X_PLUS_1, 1)], q=13).rational == 0
    assert divisor_density(3, [(X_PLUS_1, 3)], q=13).rational == 0


def test_divisor_density_unpaired_at_q():
    assert divisor_density(3, [(X_PLUS_2, 0)], q=5) == MeasureValue(Fraction(1), (3,))
    assert divisor_density(3, [(X_PLUS_2, 1)], q=5) == divisor_density(
        3, [(X_PLUS_2, 1)]
    )
    both = divisor_density(3, [(X_PLUS_1, 0), (X, 0)], q=13)
    assert both == MeasureValue(Fraction(1), (3,), (9,))
    assert divisor_density(3, [(X, 1)], q=13).rational == 0


def test_divisor_density_unsettled_self_reciprocal_raises():
    # X^2 + 1 is irreducible over F_3 and its own reciprocal at q = 13
    with pytest.raises(ValueError, match="self-reciprocal"):
        divisor_density(3, [(Poly(3, (1, 0, 1)), 0)], q=13)
    with pytest.raises(ValueError, match="self-reciprocal"):
        divisor_density(3, [(X_PLUS_1, 2)], q=13)
    # X^2 - 1 is its own reciprocal at q = 13, but reducible
    with pytest.raises(ValueError, match="reducible"):
        divisor_density(3, [(Poly(3, (2, 0, 1)), 0)], q=13)
    with pytest.raises(ValueError):
        divisor_density(3, [(X_PLUS_1, 0)], q=12)


# reciprocal partners at q = 13 (13 = 1 mod 3): X^2 + X + 2 <-> X^2 + 2X + 2
PARTNER_A = Poly(3, (2, 1, 1))
PARTNER_B = Poly(3, (2, 2, 1))


def test_divisor_density_reciprocal_pair_at_q():
    assert divisor_density(3, [(PARTNER_A, 1), (PARTNER_B, 0)], q=13).rational == 0
    assert divisor_density(3, [(PARTNER_B, 2), (PARTNER_A, 1)], q=13).rational == 0
    for m in (0, 1, 2):
        single = divisor_density(3, [(PARTNER_A, m)], q=13)
        assert divisor_density(3, [(PARTNER_A, m), (PARTNER_B, m)], q=13) == single
    # a third, unpaired condition still multiplies in
    both = divisor_density(3, [(PARTNER_A, 0), (PARTNER_B, 0), (X_PLUS_1, 0)], q=13)
    assert both == MeasureValue(Fraction(1), (9, 3), (9,))
    # without q the pair is treated as independent, as before
    apart = divisor_density(3, [(PARTNER_A, 1), (PARTNER_B, 0)])
    assert apart == MeasureValue(Fraction(9, 640), (9, 9))


def test_divisor_density_without_q_unchanged():
    assert divisor_density(3, [(X_PLUS_1, 0)]) == MeasureValue(Fraction(1), (3,))
    assert divisor_density(3, [(X_PLUS_1, 1)]) == MeasureValue(Fraction(3, 16), (3,))
    assert divisor_density(3, [(X, 0)]) == MeasureValue(Fraction(1), (3,))
    assert divisor_density(3, [(Poly(3, (1, 0, 1)), 0)]) == MeasureValue(
        Fraction(1), (9,)
    )


def _symplectic_group(l, g):
    """Every element of Sp_2g(F_l), shape (|Sp|, 2g, 2g), built column by
    column as the symplectic bases e_1, f_1, ..., e_g, f_g of F_l^2g."""
    n = 2 * g
    J = np.zeros((n, n), dtype=np.int64)
    for i in range(g):
        J[2 * i, 2 * i + 1] = 1
        J[2 * i + 1, 2 * i] = -1
    vectors = np.array(list(itertools.product(range(l), repeat=n)), dtype=np.int64)
    bases = np.zeros((1, 0, n), dtype=np.int64)
    for k in range(n):
        pairings = np.einsum("bjx,xy,vy->bjv", bases, J, vectors) % l
        fits = np.all(pairings == (J[:k, k] % l)[None, :, None], axis=1)
        b, v = np.nonzero(fits)
        bases = np.concatenate([bases[b], vectors[v][:, None, :]], axis=1)
    return bases.transpose(0, 2, 1)


def _det_mod(mats, l):
    """Exact determinants mod l by permutation expansion."""
    n = mats.shape[1]
    total = np.zeros(len(mats), dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = np.ones(len(mats), dtype=np.int64)
        for row, col in enumerate(perm):
            term = term * mats[:, row, col] % l
        total += (-1) ** inversions * term
    return total % l


def _no_eigenvalue_one(l, g):
    """Sum_{k<=g} (-1)^k l^(-k^2) / prod_{i<=k} (1 - l^(-2i)): the share of
    Sp_2g(F_l) without the eigenvalue 1 (Rudvalis-Shinoda)."""
    total = Fraction(0)
    denom = Fraction(1)
    for k in range(g + 1):
        if k:
            denom *= 1 - Fraction(1, l ** (2 * k))
        total += Fraction((-1) ** k, l ** (k * k)) / denom
    return total


@pytest.mark.parametrize("l,g,count", [(3, 1, 15), (5, 1, 95), (3, 2, 33129)])
def test_symplectic_no_eigenvalue_one_census(l, g, count):
    sp = _symplectic_group(l, g)
    order = l ** (g * g)
    for i in range(1, g + 1):
        order *= l ** (2 * i) - 1
    assert len(sp) == order
    assert len({m.tobytes() for m in sp}) == order
    without_one = int(np.count_nonzero(_det_mod(sp - np.eye(2 * g, dtype=np.int64), l)))
    assert without_one == count
    assert Fraction(without_one, order) == _no_eigenvalue_one(l, g)


@pytest.mark.parametrize(
    "l,a,q", [(3, 2, 13), (5, 2, 19), (7, 3, 23)]
)
def test_self_reciprocal_limit_bracketed_by_finite_genus(l, a, q):
    assert (a * a - q) % l == 0
    limit = divisor_density(l, [(Poly(l, (-a, 1)), 0)], q=q).numeric(1e-12)
    for g in range(1, 4):
        # alternating terms of decreasing size: the limit lies between
        # consecutive partial sums
        lo, hi = sorted((_no_eigenvalue_one(l, g), _no_eigenvalue_one(l, g + 1)))
        assert float(lo) - 1e-11 <= limit <= float(hi) + 1e-11


def test_divisor_density_hypothesis_flag():
    assert divisor_density_hypothesis(3, [(Poly(3, (2, 1)), 1)])
    many = [(Poly(3, (c, 1)), 0) for c in range(3)]
    # eta(3)^3 = 0.175 < 1/2
    assert not divisor_density_hypothesis(3, many)


def test_prediction_applies_at_q():
    x2 = (Poly(3, (2, 1, 1)), Poly(3, (2, 2, 1)))  # X^2+X+2 and its partner at 13
    assert not prediction_applies_at_q(3, [(x2[0], 1), (x2[1], 0)], 13)
    # X + 1 = X - 2 with 2^2 = 13 mod 3 is its own partner
    assert not prediction_applies_at_q(3, [(Poly(3, (1, 1)), 0)], 13)
    assert not prediction_applies_at_q(3, [(Poly.x(3), 0)], 13)
    assert prediction_applies_at_q(3, [(x2[0], 0)], 13)


def test_independence_prediction_factors():
    l = 3
    ring = RingSpec(
        (
            LocalRingSpec(l, Poly(l, (2, 1)), 1),
            LocalRingSpec(l, Poly(l, (1, 1)), 1),
        )
    )
    joint, product = independence_prediction(
        ring, (Partition(()), Partition(()))
    )
    assert joint == product
    assert joint.rational == 1
    assert joint.eta_factors == (3, 3)
    joint2, _ = independence_prediction(ring, (Partition((1,)), Partition(())))
    assert joint2.rational == Fraction(3, 4)
    assert joint2.eta_factors == (3, 3)


def test_local_ring_with_residue_size():
    spec = local_ring_with_residue_size(9, 2)
    assert spec.Q == 9
    assert spec.l == 3
    assert spec.e == 2
    with pytest.raises(ValueError):
        local_ring_with_residue_size(6, 1)
