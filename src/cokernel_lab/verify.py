"""Named oracle suites behind the verify subcommand: exact identities,
seeded Monte Carlo agreement, and small curve censuses."""

from __future__ import annotations

from fractions import Fraction

from .algebra import Poly, RingSpec
from .chainring import (
    bfs_submodules,
    brute_force_aut_order,
    enumerate_submodules_chain,
    local_tables_for,
)
from .measure import (
    local_ring_with_residue_size,
    moment_rank,
    mu,
    rank_distribution,
    rank_distribution_partition_form,
)
from .modules import (
    ModuleType,
    Partition,
    aut_order,
    enumerate_module_types,
    enumerate_submodules,
    hom_count,
    surj_count,
)
from .montecarlo import SampleConfig, empirical_moment, sample_cokernels, tv_distance

__all__ = ["run_suite"]


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _suite_exact() -> list[dict]:
    checks = []

    ok = True
    worst = ""
    for l, lam in [(3, (2, 1)), (3, (1, 1)), (5, (2,)), (3, (2, 2))]:
        ring = RingSpec((local_ring_with_residue_size(l, max(lam)),))
        t = ModuleType(ring, (Partition(lam),))
        closed = aut_order(t)
        brute = brute_force_aut_order(l, lam)
        if closed != brute:
            ok = False
            worst = f"{(l, lam)}: closed {closed} != brute {brute}"
    checks.append(_check("aut-order-brute-force", ok, worst or "4 cases agree"))

    ok = True
    worst = ""
    for l, d, e, lam in [(3, 1, 2, (2, 1)), (3, 1, 3, (3, 1)), (5, 1, 2, (2, 1)), (3, 2, 2, (2,))]:
        ring = local_tables_for(local_ring_with_residue_size(l**d, e))
        fast = enumerate_submodules_chain(ring, lam)
        slow = bfs_submodules(ring, lam)
        if fast != slow:
            ok = False
            worst = f"{(l, d, e, lam)} disagrees"
    checks.append(_check("submodule-census-bfs", ok, worst or "4 lattices agree"))

    ok = True
    worst = ""
    for Q, e in [(3, 1), (3, 2), (5, 2), (9, 2)]:
        for m in range(0, 9):
            local = local_ring_with_residue_size(Q, e)
            a = rank_distribution(local, m * local.residue_degree)
            b = rank_distribution_partition_form(Q, e, m)
            if a != b:
                ok = False
                worst = f"Q={Q} e={e} m={m}"
    checks.append(_check("rank-dist-partition-form", ok, worst or "exact equality on the sweep"))

    ok = True
    worst = ""
    for Q, e, k, expect in [(3, 1, 1, 2), (3, 1, 2, 6), (3, 2, 0, 1)]:
        got = moment_rank(Q, e, k)
        if got != expect:
            ok = False
            worst = f"moment({Q},{e},{k}) = {got} != {expect}"
    ring = local_tables_for(local_ring_with_residue_size(3, 2))
    n_sub = sum(enumerate_submodules_chain(ring, (2, 2)).values())
    if n_sub != moment_rank(3, 2, 2):
        ok = False
        worst = f"submodule total {n_sub} != moment {moment_rank(3, 2, 2)}"
    checks.append(_check("moment-closed-form", ok, worst or "closed form matches counts"))

    ok = True
    worst = ""
    for l, d, e in [(3, 1, 2), (5, 1, 1), (3, 2, 2)]:
        ring = RingSpec((local_ring_with_residue_size(l**d, e),))
        value = 0.0
        for m in range(0, 41):
            for t in enumerate_module_types(ring, m):
                value += mu(t).numeric()
        if abs(value - 1.0) > 1e-6:
            ok = False
            worst = f"(l,d,e)={(l, d, e)}: total mass {value}"
    checks.append(_check("total-mass-one", ok, worst or "sum of masses is 1 within 1e-6"))

    ok = True
    worst = ""
    ring = RingSpec((local_ring_with_residue_size(3, 2),))
    for lam_a in [(1,), (2,), (2, 1)]:
        a = ModuleType(ring, (Partition(lam_a),))
        lhs = sum(cnt * surj_count(a, b) for b, cnt in enumerate_submodules(a).items())
        rhs = hom_count(a, a)
        if lhs != rhs:
            ok = False
            worst = f"lambda={lam_a}: {lhs} != {rhs}"
    checks.append(_check("hom-surj-lattice-identity", ok, worst or "identity holds"))

    return checks


def _suite_montecarlo(seed: int) -> list[dict]:
    checks = []
    ring = RingSpec((local_ring_with_residue_size(3, 1),))

    cfg = SampleConfig(ring, 2, 0, 0, mode="exhaustive")
    a = ModuleType(ring, (Partition((1,)),))
    got = empirical_moment(cfg, a)
    checks.append(
        _check(
            "exhaustive-moment-F3-n2",
            got == Fraction(8, 9),
            f"mean #Surj over all 2x2 matrices = {got}, expected 8/9",
        )
    )

    ring9 = RingSpec((local_ring_with_residue_size(3, 2),))
    cfg9 = SampleConfig(ring9, 1, 0, 0, mode="exhaustive")
    a9 = ModuleType(ring9, (Partition((1,)),))
    got9 = empirical_moment(cfg9, a9)
    checks.append(
        _check(
            "exhaustive-moment-chain-n1",
            got9 == Fraction(2, 3),
            f"mean #Surj over all 1x1 matrices = {got9}, expected 2/3",
        )
    )

    cfg_r = SampleConfig(ring9, 6, 20000, seed, workers=4)
    dist = sample_cokernels(cfg_r)
    tv, deficit, _ = tv_distance(dist)
    checks.append(
        _check(
            "tv-random-20k",
            tv < 0.05 and deficit < 1e-4,
            f"TV = {tv:.4f}, truncation deficit = {deficit:.2e}",
        )
    )

    dist2 = sample_cokernels(cfg_r)
    checks.append(
        _check(
            "seed-reproducibility",
            dist.counts == dist2.counts,
            "identical counts on rerun",
        )
    )
    return checks


def _suite_curves(seed: int) -> list[dict]:
    from .curves import (
        all_squarefree_monic,
        curve_sample_from_f,
        divisibility_stats,
        weil_root_error,
    )

    checks = []

    s = curve_sample_from_f((1, 1, 0, 1), 5, 1)
    checks.append(
        _check(
            "genus1-char-poly",
            s.char_poly == (5, 3, 1),
            f"y^2 = x^3 + x + 1 over F_5 gives {s.char_poly}",
        )
    )

    errs = [
        weil_root_error(curve_sample_from_f(f, 5, 2).char_poly, 5)
        for f in all_squarefree_monic(5, 5)[:40]
    ]
    worst = max(errs)
    checks.append(
        _check("weil-bound-genus2", worst < 1e-6, f"max |root| deviation {worst:.2e}")
    )

    rep = divisibility_stats(3, [(Poly(3, (2, 1)), 1)], 5, 1, 0, seed, exhaustive=True)
    checks.append(
        _check(
            "exhaustive-census-q5-g1",
            rep.trials == 100 and rep.hits > 0,
            f"{rep.hits}/{rep.trials} curves, empirical {rep.empirical:.3f} "
            f"vs predicted {rep.predicted_value:.3f}",
        )
    )

    rep2 = divisibility_stats(3, [(Poly(3, (2, 1)), 1)], 5, 1, 0, seed, exhaustive=True)
    checks.append(
        _check(
            "census-determinism",
            (rep.hits, rep.trials) == (rep2.hits, rep2.trials),
            "identical census on rerun",
        )
    )
    return checks


def run_suite(suite: str, seed: int) -> list[dict]:
    if suite == "exact":
        return _suite_exact()
    if suite == "montecarlo":
        return _suite_montecarlo(seed)
    if suite == "curves-small":
        return _suite_curves(seed)
    raise ValueError(f"unknown suite {suite!r}")
