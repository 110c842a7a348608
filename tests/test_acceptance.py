"""Acceptance gate: nine numbered criteria, one test and one pass/fail line
each, run at the stated tolerances. Run with -v to see the per-criterion
lines."""

import time
from fractions import Fraction

from cokernel_lab.algebra import LocalRingSpec, Poly, RingSpec, find_irreducible
from cokernel_lab.chainring import (
    brute_force_aut_order,
    enumerate_submodules_chain,
    local_tables_for,
)
from cokernel_lab.curves import (
    all_squarefree_monic,
    curve_sample_from_f,
    divisibility_stats,
    independence_stats,
    weil_root_error,
)
from cokernel_lab.measure import (
    divisor_density,
    local_ring_with_residue_size,
    moment_rank,
    rank_distribution,
    rank_distribution_partition_form,
)
from cokernel_lab.modules import (
    ModuleType,
    Partition,
    aut_order,
    partitions_of,
    surj_count,
)
from cokernel_lab.montecarlo import (
    SampleConfig,
    empirical_moment,
    finite_n_constant_demo,
    sample_cokernels,
    tv_distance,
)


def _report(num, name, passed, detail):
    line = f"criterion {num} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _ring(l, d, e):
    return RingSpec((LocalRingSpec(l, find_irreducible(l, d), e),))


def test_criterion_1_exhaustive_moment_identity():
    t0 = time.monotonic()
    f3 = _ring(3, 1, 1)
    r9 = _ring(3, 1, 2)
    cases = [
        (f3, 1, (1,), Fraction(2, 3)),
        (f3, 2, (1,), Fraction(8, 9)),
        (r9, 1, (1,), None),
        (r9, 2, (1,), None),
    ]
    ok = True
    details = []
    for ring, n, lam, known in cases:
        a = ModuleType(ring, (Partition(lam),))
        free = ModuleType(ring, (Partition((ring.factors[0].e,) * n),))
        expected = Fraction(surj_count(free, a), a.size**n)
        got = empirical_moment(SampleConfig(ring, n, 0, 0, mode="exhaustive"), a)
        if got != expected or (known is not None and got != known):
            ok = False
        details.append(f"n={n}: {got}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    _report(
        1,
        "exhaustive finite-n moment identity",
        ok,
        f"{'; '.join(details)}; {elapsed:.1f}s",
    )


def test_criterion_2_partition_form_identity():
    t0 = time.monotonic()
    ok = True
    bad = ""
    checked = 0
    for Q in (3, 5, 9):
        for e in range(1, 5):
            local = local_ring_with_residue_size(Q, e)
            deg = local.residue_degree
            for m in range(0, 13):
                direct = rank_distribution(local, m)
                pf = rank_distribution_partition_form(Q, e, m, deg)
                checked += 1
                if direct != pf:
                    ok = False
                    bad = f"Q={Q} e={e} m={m}"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _report(
        2,
        "partition-sum form equals direct rank distribution",
        ok,
        bad or f"{checked} exact equalities; {elapsed:.1f}s",
    )


def test_criterion_3_aut_order_oracle():
    t0 = time.monotonic()
    ok = True
    bad = ""
    landmark = {}
    n_checked = 0
    for e in (1, 2, 3):
        seen = set()
        for total in range(0, 5):  # 3^4 = 81 is the size cap
            for lam in partitions_of(total, e):
                if lam in seen:
                    continue
                seen.add(lam)
                t = ModuleType(_ring(3, 1, max(lam) if lam else 1), (Partition(lam),))
                closed = aut_order(t)
                brute = brute_force_aut_order(3, lam)
                n_checked += 1
                if closed != brute:
                    ok = False
                    bad = f"e={e} lam={lam}: {closed} != {brute}"
                landmark[lam] = closed
    values_ok = (
        landmark.get((1, 1)) == 48
        and landmark.get((2,)) == 6
        and landmark.get((2, 1)) == 108
    )
    elapsed = time.monotonic() - t0
    ok = ok and values_ok and elapsed < 60
    _report(
        3,
        "closed-form aut order equals brute force",
        ok,
        bad or f"{n_checked} modules incl. 48/6/108; {elapsed:.1f}s",
    )


def test_criterion_4_moment_equals_submodule_census():
    ok = True
    bad = ""
    checked = 0
    cap = 3**8
    for Q in (3, 5, 7, 9, 11, 13, 25, 27, 81):
        e = 1
        while Q**e <= cap:
            k = 1
            while Q ** (e * k) <= cap:
                local = local_ring_with_residue_size(Q, e)
                census = sum(
                    enumerate_submodules_chain(
                        local_tables_for(local), (e,) * k
                    ).values()
                )
                closed = moment_rank(Q, e, k)
                checked += 1
                if census != closed:
                    ok = False
                    bad = f"Q={Q} e={e} k={k}: {closed} != {census}"
                k += 1
            e += 1
    spot = moment_rank(3, 1, 1) == 2 and moment_rank(3, 1, 2) == 6
    _report(
        4,
        "moment closed form equals submodule census",
        ok and spot,
        bad or f"{checked} cases up to |R^k| = 3^8",
    )


def test_criterion_5_divisor_density_targets():
    l = 3
    x_minus_a = Poly(l, (2, 1))
    v1 = divisor_density(l, [(x_minus_a, 1)])
    v0 = divisor_density(l, [(x_minus_a, 0)])
    tol = 2e-9
    ok = (
        v1.rational == Fraction(3, 16)
        and v0.rational == 1
        and abs(v1.numeric() - 0.10502363966) < max(tol, 1e-8)
        and abs(v0.numeric() - 0.56012607792) < max(tol, 1e-8)
    )
    _report(
        5,
        "exact-divisibility density targets",
        ok,
        f"m=1: {v1.rational}*eta = {v1.numeric():.6f}; m=0: eta = {v0.numeric():.6f}",
    )


def test_criterion_6_cokernel_convergence():
    t0 = time.monotonic()
    ring = _ring(3, 1, 2)
    cfg = SampleConfig(ring, 8, 10**5, 20260824, workers=4)
    dist = sample_cokernels(cfg)
    tv, deficit, _ = tv_distance(dist)
    elapsed = time.monotonic() - t0
    ok = tv < 0.02 and deficit < 1e-4 and elapsed < 120
    _report(
        6,
        "random cokernel TV convergence",
        ok,
        f"TV = {tv:.4f} (< 0.02), deficit = {deficit:.2e}, {elapsed:.0f}s",
    )


def test_criterion_7_curve_pipeline_exactness():
    t0 = time.monotonic()
    s = curve_sample_from_f((1, 1, 0, 1), 5, 1)
    exact = s.char_poly == (5, 3, 1)
    reduced = Poly(3, s.char_poly)
    factored = reduced == Poly(3, (2, 1)) * Poly(3, (1, 1))
    census = all_squarefree_monic(5, 3)
    census2 = all_squarefree_monic(5, 3)
    deterministic = census == census2
    checks = True
    for f in census:
        cp = curve_sample_from_f(f, 5, 1).char_poly
        if cp[2] != 1 or cp[0] != 5 or cp[1] != 1 * cp[1]:
            checks = False
        if weil_root_error(cp, 5) > 1e-6:
            checks = False
    elapsed = time.monotonic() - t0
    ok = exact and factored and deterministic and checks and elapsed < 5
    _report(
        7,
        "curve pipeline exactness",
        ok,
        f"P_C = {tuple(reversed(s.char_poly))} high-first, census {len(census)} curves, {elapsed:.1f}s",
    )


def test_criterion_8_curve_statistics_trend():
    """Each clause measures a curve frequency against divisor_density at its
    own condition and q.

    The Weil pairing puts Frobenius in GSp_2g with multiplier q. At l = 3,
    q = 13 the condition X + 1 is X - 2 with 2^2 = 13 mod 3, so Frob/2 mod 3
    lies in Sp_8(F_3), and X - 2 does not divide P_C mod 3 exactly when that
    symplectic matrix has no eigenvalue 1. The large-g limit of this is
    prod_{i>=1} (1 - 3^(1-2i)) = eta(3)/eta(9) = 0.6390, not eta(3) = 0.5601;
    divisor_density(..., q=13) gives it.

    a. The (4,13) frequency of X - 2 not dividing lies within 0.05 of that
       limit.
    b. That event is independent of X not dividing, within 3 standard
       errors. This clause cannot fail as written: det Frob = q^g is a unit
       mod 3, so X never divides, its marginal is 1 and the gap is 0 by
       construction.
    c. The (4,13) gap to the limit is smaller than the (1,5) gap for X - 1
       at q = 5. X - 1 is not self-reciprocal there (1 != 5 mod 3), so its
       limit is eta(3).
    """
    t0 = time.monotonic()
    l, q, g, trials, seed = 3, 13, 4, 2000, 7

    # X + 1 is X - 2 mod 3; a = 2 is the only admissible nonzero choice at q = 13
    cond_13 = (Poly(l, (1, 1)), 0)
    target_13 = divisor_density(l, [cond_13], q=q).numeric()
    stats = independence_stats(l, cond_13, (Poly(l, (0, 1)), 0), q, g, trials, seed)
    emp_13 = stats["marginal_a"]
    clause_a = abs(emp_13 - target_13) < 0.05
    clause_b = abs(stats["gap"]) <= 3 * stats["gap_std_error"]

    cond_5 = (Poly(l, (2, 1)), 0)
    target_5 = divisor_density(l, [cond_5], q=5).numeric()
    rep_small = divisibility_stats(l, [cond_5], 5, 1, trials, seed)
    emp_5 = rep_small.empirical
    clause_c = abs(emp_13 - target_13) < abs(emp_5 - target_5)

    elapsed = time.monotonic() - t0
    ok = clause_a and clause_b and clause_c and elapsed < 300
    _report(
        8,
        "curve statistics trend at (g,q) = (4,13)",
        ok,
        f"|{emp_13:.4f} - {target_13:.4f}| = {abs(emp_13 - target_13):.4f} vs 0.05 "
        f"({'ok' if clause_a else 'FAIL'}); "
        f"independence gap {stats['gap']:.4f} vs 3se = {3 * stats['gap_std_error']:.4f} "
        f"({'ok' if clause_b else 'FAIL'}); "
        f"(1,5) gap |{emp_5:.4f} - {target_5:.4f}| = {abs(emp_5 - target_5):.4f} "
        f"({'ok' if clause_c else 'FAIL'}); {elapsed:.0f}s",
    )


def test_criterion_9_prelimit_constant_convergence():
    t0 = time.monotonic()
    ok = True
    details = []
    for j in (0, 1, 2):
        rows = finite_n_constant_demo(3, j, [12])
        diff = rows[0]["abs_diff"]
        details.append(f"j={j}: {diff:.2e}")
        if diff >= 1e-4:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1
    _report(
        9,
        "prelimit normalizing constants at n = 12",
        ok,
        f"{'; '.join(details)}; {elapsed:.2f}s",
    )
