"""Named oracle suites behind the verify subcommand: exact identities,
seeded Monte Carlo agreement, and small curve censuses.

A suite yields its checks in order, each as (name, cases, detail): cases
gives the (passed, detail) pair of each case, and detail is what the check
reports when every case passes."""

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

__all__ = ["SUITES", "run_suite"]


def _check(name: str, cases, detail: str) -> dict:
    """Run every case of one check: it fails with the detail of its last
    failing case, and passes with detail when none fails."""
    failed = [case_detail for passed, case_detail in cases if not passed]
    return {"name": name, "passed": not failed, "detail": failed[-1] if failed else detail}


def _aut_cases():
    for l, lam in [(3, (2, 1)), (3, (1, 1)), (5, (2,)), (3, (2, 2))]:
        ring = RingSpec((local_ring_with_residue_size(l, max(lam)),))
        closed = aut_order(ModuleType(ring, (Partition(lam),)))
        brute = brute_force_aut_order(l, lam)
        yield closed == brute, f"{(l, lam)}: closed {closed} != brute {brute}"


def _census_cases():
    for l, d, e, lam in [(3, 1, 2, (2, 1)), (3, 1, 3, (3, 1)), (5, 1, 2, (2, 1)), (3, 2, 2, (2,))]:
        ring = local_tables_for(local_ring_with_residue_size(l**d, e))
        fast = enumerate_submodules_chain(ring, lam)
        yield fast == bfs_submodules(ring, lam), f"{(l, d, e, lam)} disagrees"


def _rank_dist_cases():
    for Q, e in [(3, 1), (3, 2), (5, 2), (9, 2)]:
        for m in range(0, 9):
            local = local_ring_with_residue_size(Q, e)
            a = rank_distribution(local, m * local.residue_degree)
            yield a == rank_distribution_partition_form(Q, e, m), f"Q={Q} e={e} m={m}"


def _moment_cases():
    for Q, e, k, expect in [(3, 1, 1, 2), (3, 1, 2, 6), (3, 2, 0, 1)]:
        got = moment_rank(Q, e, k)
        yield got == expect, f"moment({Q},{e},{k}) = {got} != {expect}"
    ring = local_tables_for(local_ring_with_residue_size(3, 2))
    n_sub = sum(enumerate_submodules_chain(ring, (2, 2)).values())
    moment = moment_rank(3, 2, 2)
    yield n_sub == moment, f"submodule total {n_sub} != moment {moment}"


def _total_mass_cases():
    for l, d, e in [(3, 1, 2), (5, 1, 1), (3, 2, 2)]:
        ring = RingSpec((local_ring_with_residue_size(l**d, e),))
        value = 0.0
        for m in range(0, 41):
            for t in enumerate_module_types(ring, m):
                value += mu(t).numeric()
        yield abs(value - 1.0) <= 1e-6, f"(l,d,e)={(l, d, e)}: total mass {value}"


def _hom_surj_cases():
    ring = RingSpec((local_ring_with_residue_size(3, 2),))
    for lam_a in [(1,), (2,), (2, 1)]:
        a = ModuleType(ring, (Partition(lam_a),))
        lhs = sum(cnt * surj_count(a, b) for b, cnt in enumerate_submodules(a).items())
        rhs = hom_count(a, a)
        yield lhs == rhs, f"lambda={lam_a}: {lhs} != {rhs}"


def _suite_exact(seed: int):
    yield "aut-order-brute-force", _aut_cases(), "4 cases agree"
    yield "submodule-census-bfs", _census_cases(), "4 lattices agree"
    yield "rank-dist-partition-form", _rank_dist_cases(), "exact equality on the sweep"
    yield "moment-closed-form", _moment_cases(), "closed form matches counts"
    yield "total-mass-one", _total_mass_cases(), "sum of masses is 1 within 1e-6"
    yield "hom-surj-lattice-identity", _hom_surj_cases(), "identity holds"


def _suite_montecarlo(seed: int):
    ring = RingSpec((local_ring_with_residue_size(3, 1),))
    cfg = SampleConfig(ring, 2, 0, 0, mode="exhaustive")
    got = empirical_moment(cfg, ModuleType(ring, (Partition((1,)),)))
    detail = f"mean #Surj over all 2x2 matrices = {got}, expected 8/9"
    yield "exhaustive-moment-F3-n2", [(got == Fraction(8, 9), detail)], detail

    ring = RingSpec((local_ring_with_residue_size(3, 2),))
    cfg = SampleConfig(ring, 1, 0, 0, mode="exhaustive")
    got = empirical_moment(cfg, ModuleType(ring, (Partition((1,)),)))
    detail = f"mean #Surj over all 1x1 matrices = {got}, expected 2/3"
    yield "exhaustive-moment-chain-n1", [(got == Fraction(2, 3), detail)], detail

    cfg = SampleConfig(ring, 6, 20000, seed, workers=4)
    dist = sample_cokernels(cfg)
    tv, deficit, _ = tv_distance(dist)
    detail = f"TV = {tv:.4f}, truncation deficit = {deficit:.2e}"
    yield "tv-random-20k", [(tv < 0.05 and deficit < 1e-4, detail)], detail

    detail = "identical counts on rerun"
    yield "seed-reproducibility", [(dist.counts == sample_cokernels(cfg).counts, detail)], detail


def _suite_curves(seed: int):
    from .curves import (
        all_squarefree_monic,
        curve_sample_from_f,
        divisibility_stats,
        weil_root_error,
    )

    s = curve_sample_from_f((1, 1, 0, 1), 5, 1)
    detail = f"y^2 = x^3 + x + 1 over F_5 gives {s.char_poly}"
    yield "genus1-char-poly", [(s.char_poly == (5, 3, 1), detail)], detail

    deviation = max(
        weil_root_error(curve_sample_from_f(f, 5, 2).char_poly, 5)
        for f in all_squarefree_monic(5, 5)[:40]
    )
    detail = f"max |root| deviation {deviation:.2e}"
    yield "weil-bound-genus2", [(deviation < 1e-6, detail)], detail

    rep = divisibility_stats(3, [(Poly(3, (2, 1)), 1)], 5, 1, 0, seed, exhaustive=True)
    detail = (
        f"{rep.hits}/{rep.trials} curves, empirical {rep.empirical:.3f} "
        f"vs predicted {rep.predicted.numeric():.3f}"
    )
    yield "exhaustive-census-q5-g1", [(rep.trials == 100 and rep.hits > 0, detail)], detail

    rep2 = divisibility_stats(3, [(Poly(3, (2, 1)), 1)], 5, 1, 0, seed, exhaustive=True)
    same = (rep.hits, rep.trials) == (rep2.hits, rep2.trials)
    detail = "identical census on rerun"
    yield "census-determinism", [(same, detail)], detail


# each suite by name, as a function of the seed (the exact suite draws
# nothing); the CLI's --suite choices are these names
SUITES = {"exact": _suite_exact, "montecarlo": _suite_montecarlo, "curves-small": _suite_curves}


def run_suite(suite: str, seed: int) -> list[dict]:
    """The checks of one suite, in order, as dicts of name, passed and detail."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; the suites are {', '.join(SUITES)}")
    return [_check(*check) for check in SUITES[suite](seed)]
