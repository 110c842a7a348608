import hashlib
from fractions import Fraction

import pytest

from cokernel_lab import chainring, montecarlo
from cokernel_lab.algebra import LocalRingSpec, Poly, RingSpec, find_irreducible
from cokernel_lab.measure import mu
from cokernel_lab.modules import ModuleType, Partition, surj_count
from cokernel_lab.montecarlo import (
    BATCH,
    MAX_MATRIX_SIZE,
    MAX_WORKERS,
    SampleConfig,
    _theory_truncation,
    empirical_moment,
    finite_n_constant_demo,
    sample_cokernels,
    tv_distance,
    worker_streams,
)


def _ring(l, d, e):
    return RingSpec((LocalRingSpec(l, find_irreducible(l, d), e),))


def test_config_validation():
    ring = _ring(3, 1, 1)
    with pytest.raises(ValueError):
        SampleConfig(ring, 0, 10, 1)
    with pytest.raises(ValueError):
        SampleConfig(ring, 2, 10, 1, mode="weird")
    with pytest.raises(ValueError):
        SampleConfig(ring, 9, 0, 1, mode="exhaustive")
    # refused before the exhaustive count |R|^(n^2) is even computed
    for n in (MAX_MATRIX_SIZE + 1, 10**6):
        with pytest.raises(ValueError, match="MAX_MATRIX_SIZE"):
            SampleConfig(ring, n, 0, 1, mode="exhaustive")


def test_worker_count_cap():
    ring = _ring(3, 1, 1)
    # refused before a single stream is seeded
    for workers in (MAX_WORKERS + 1, 10**9):
        with pytest.raises(ValueError, match="MAX_WORKERS"):
            SampleConfig(ring, 2, 10, 1, workers=workers)
        with pytest.raises(ValueError, match="MAX_WORKERS"):
            next(worker_streams("salt", 1, 10, workers))


def test_exhaustive_census_f3_2x2():
    """All 81 matrices over F_3: 48 invertible, 32 of corank 1, 1 zero-ish."""
    ring = _ring(3, 1, 1)
    dist = sample_cokernels(SampleConfig(ring, 2, 0, 0, mode="exhaustive"))
    counts = {
        t.local_types[0].parts: c for t, c in dist.counts.items()
    }
    assert dist.total == 81
    assert counts[()] == 48
    assert counts[(1,)] == 32
    assert counts[(1, 1)] == 1


def test_exhaustive_moment_identity():
    """E[#Surj(coker A, M)] = |Surj(R^n, M)| / |M|^n exactly."""
    cases = [
        (_ring(3, 1, 1), 1, (1,)),
        (_ring(3, 1, 1), 2, (1,)),
        (_ring(3, 1, 2), 1, (1,)),
        (_ring(3, 1, 2), 1, (2,)),
        (_ring(3, 1, 2), 2, (1,)),
    ]
    for ring, n, lam in cases:
        a = ModuleType(ring, (Partition(lam),))
        free = ModuleType(ring, (Partition((ring.factors[0].e,) * n),))
        expected = Fraction(surj_count(free, a), a.size**n)
        got = empirical_moment(SampleConfig(ring, n, 0, 0, mode="exhaustive"), a)
        assert got == expected, (n, lam)


def test_seed_reproducibility_and_worker_invariance():
    ring = _ring(3, 1, 2)
    c1 = SampleConfig(ring, 4, 2000, 42, workers=1)
    c4 = SampleConfig(ring, 4, 2000, 42, workers=4)
    d1a = sample_cokernels(c1)
    d1b = sample_cokernels(c1)
    assert d1a.counts == d1b.counts
    # different worker splits draw different streams but stay deterministic
    d4a = sample_cokernels(c4)
    d4b = sample_cokernels(c4)
    assert d4a.counts == d4b.counts
    assert d4a.total == d1a.total == 2000


# The rings of the cokernel benchmark: CRT factors (l, p low degree first,
# e) and the sha256 prefix of their seeded counts in test_seeded_counts_pinned
SEEDED_COUNT_DIGESTS = {
    "F3[X]/(X^2)": (((3, (0, 1), 2),), "fdeff36dba11f2f4"),
    "F3[X]/(X^2)xF3[X]/(X+1)": (((3, (0, 1), 2), (3, (1, 1), 1)), "aef9ea3947633cd8"),
    "F9[t]/(t^3)": (((3, (1, 0, 1), 3),), "3490b93425b5fcef"),
    "F11[X]/(X^3)": (((11, (0, 1), 3),), "db2a202fb9cd3c58"),
    "F9[t]/(t^4)": (((3, (1, 0, 1), 4),), "74d499a04c94ee83"),
    "F3[X]/(X^8)": (((3, (0, 1), 8),), "9c80cd9b3c1cd088"),
    "F5[X]/(X^5)": (((5, (0, 1), 5),), "0e32e274f688a676"),
}


@pytest.mark.parametrize("name", SEEDED_COUNT_DIGESTS)
def test_seeded_counts_pinned(name):
    """The counts of 200 seeded draws at every n from 3 to 8, with one and
    two workers and seeds 1 and 2, hashed in that order: a change to the
    draws or to their classification that moves one count shows here."""
    factors, digest = SEEDED_COUNT_DIGESTS[name]
    ring = RingSpec(tuple(LocalRingSpec(l, Poly(l, p), e) for l, p, e in factors))
    h = hashlib.sha256()
    for n in range(3, 9):
        for workers in (1, 2):
            for seed in (1, 2):
                dist = sample_cokernels(SampleConfig(ring, n, 200, seed, workers=workers))
                counts = sorted(
                    (tuple(lam.parts for lam in t.local_types), c) for t, c in dist.counts.items()
                )
                h.update(repr((n, workers, seed, counts)).encode())
    assert h.hexdigest().startswith(digest)


def _seeded_ring(name):
    factors, _ = SEEDED_COUNT_DIGESTS[name]
    return RingSpec(tuple(LocalRingSpec(l, Poly(l, p), e) for l, p, e in factors))


# repr of (tv, deficit) of 300 draws at n = 4, seed 1, with one and with two
# workers, on the rings of SEEDED_COUNT_DIGESTS: tv's last bits follow the
# hashes of the module types and the insertion order of the counts
SEEDED_TV_REPRS = {
    "F3[X]/(X^2)": (
        ("0.038204606047922515", "4.4975958179982456e-08"),
        ("0.021537939381255828", "4.4975958179982456e-08"),
    ),
    "F3[X]/(X^2)xF3[X]/(X+1)": (
        ("0.0820023419175093", "1.439454629936776e-07"),
        ("0.04522294130918053", "1.439454629936776e-07"),
    ),
    "F9[t]/(t^3)": (
        ("0.012241468352166515", "2.9041253180039917e-08"),
        ("0.01191782498989759", "2.9041253180039917e-08"),
    ),
    "F11[X]/(X^3)": (
        ("0.01839400510898851", "5.174274009256408e-09"),
        ("0.025764454531779054", "5.174274009256408e-09"),
    ),
    "F9[t]/(t^4)": (
        ("0.018925043976285326", "2.9041253180039917e-08"),
        ("0.017096607856192193", "2.9041253180039917e-08"),
    ),
    "F3[X]/(X^8)": (
        ("0.023196525454038382", "4.463926118747352e-07"),
        ("0.036633080809645016", "4.463926118747352e-07"),
    ),
    "F5[X]/(X^5)": (
        ("0.01279597133093756", "6.849811184928001e-08"),
        ("0.02096346564925661", "6.849811184928001e-08"),
    ),
}


@pytest.mark.parametrize("name", SEEDED_TV_REPRS)
def test_seeded_tv_bits_pinned(name):
    ring = _seeded_ring(name)
    got = []
    for workers in (1, 2):
        tv, deficit, _ = tv_distance(sample_cokernels(SampleConfig(ring, 4, 300, 1, workers=workers)))
        got.append((repr(tv), repr(deficit)))
    assert tuple(got) == SEEDED_TV_REPRS[name]


@pytest.mark.parametrize("name", ["F3[X]/(X^2)", "F3[X]/(X^2)xF3[X]/(X+1)"])
@pytest.mark.parametrize(
    "trials, batches",
    [(2 * BATCH + 7, 3), (BATCH + 5, 2), (11, 1)],
)
def test_batches_across_worker_blocks(monkeypatch, name, trials, batches):
    """Pieces of the three worker streams are classified together, up to
    BATCH draws at a time, with the counts and their order of a run that
    classifies every piece of every stream on its own."""
    ring = _seeded_ring(name)
    n, seed, workers = 2, 5, 3
    tables = [chainring.local_tables_for(f) for f in ring.factors]
    oracle = {}
    for rng, count in worker_streams("cokernel-lab", seed, trials, workers):
        done = 0
        while done < count:
            piece = min(BATCH, count - done)
            codes = [rng.integers(0, f.size, size=(piece, n, n)) for f in ring.factors]
            for key in zip(*(t.coker_partition(c) for t, c in zip(tables, codes))):
                t = ModuleType(ring, tuple(Partition(p) for p in key))
                oracle[t] = oracle.get(t, 0) + 1
            done += piece
    calls = []
    classify = chainring.LocalTables.coker_partition

    def counting(self, codes):
        calls.append(len(codes))
        return classify(self, codes)

    monkeypatch.setattr(chainring.LocalTables, "coker_partition", counting)
    dist = sample_cokernels(SampleConfig(ring, n, trials, seed, workers=workers))
    assert dist.total == trials
    assert dist.counts == oracle
    assert list(dist.counts) == list(oracle)
    assert len(calls) == batches * len(ring.factors)
    assert max(calls) <= BATCH


def test_ring_spec_accepts_a_list_of_factors():
    factors = SEEDED_COUNT_DIGESTS["F3[X]/(X^2)xF3[X]/(X+1)"][0]
    local = [LocalRingSpec(l, Poly(l, p), e) for l, p, e in factors]
    listed, tupled = RingSpec(local), RingSpec(tuple(local))
    assert isinstance(listed.factors, tuple)
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    a = sample_cokernels(SampleConfig(listed, 3, 200, 1, workers=2))
    b = sample_cokernels(SampleConfig(tupled, 3, 200, 1, workers=2))
    assert a.counts == b.counts
    assert list(a.counts) == list(b.counts)


def test_different_seeds_differ():
    ring = _ring(3, 1, 1)
    a = sample_cokernels(SampleConfig(ring, 3, 500, 1))
    b = sample_cokernels(SampleConfig(ring, 3, 500, 2))
    assert a.counts != b.counts


def test_tv_distance_small_run():
    ring = _ring(3, 1, 2)
    dist = sample_cokernels(SampleConfig(ring, 6, 10000, 7, workers=2))
    tv, deficit, theory = tv_distance(dist)
    assert tv < 0.05
    assert deficit < 1e-4
    assert abs(sum(theory.values()) + deficit - 1.0) < 1e-6


def test_tv_distance_product_ring():
    l = 3
    ring = RingSpec(
        (
            LocalRingSpec(l, Poly(l, (2, 1)), 1),
            LocalRingSpec(l, Poly(l, (1, 1)), 1),
        )
    )
    dist = sample_cokernels(SampleConfig(ring, 5, 8000, 11, workers=2))
    tv, deficit, _ = tv_distance(dist)
    assert tv < 0.06
    assert deficit < 1e-4


def test_tv_distance_builds_truncation_once_per_ring(monkeypatch):
    ring = _ring(3, 1, 2)
    dist = sample_cokernels(SampleConfig(ring, 4, 300, 3))
    calls = []

    def counting_mu(t):
        calls.append(t)
        return mu(t)

    monkeypatch.setattr(montecarlo, "mu", counting_mu)
    _theory_truncation.cache_clear()
    first = tv_distance(dist)
    built = len(calls)
    assert built > 0
    second = tv_distance(dist)
    assert len(calls) == built
    assert second == first
    info = _theory_truncation.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with pytest.raises(TypeError):
        first[2][next(iter(first[2]))] = 0.0
    # the cached measure is untouched by the attempt
    assert tv_distance(dist) == first


def test_tv_distance_product_ring_and_factor_cached_apart():
    first = LocalRingSpec(3, Poly(3, (2, 1)), 1)
    ring = RingSpec((first, LocalRingSpec(3, Poly(3, (1, 1)), 1)))
    alone = RingSpec((first,))
    theory_ring, deficit_ring = _theory_truncation(ring)
    theory_alone, deficit_alone = _theory_truncation(alone)
    assert all(t.ring == ring for t in theory_ring)
    assert all(t.ring == alone for t in theory_alone)
    assert len(theory_ring) > len(theory_alone)
    # each entry is the exact measure of its own ring
    t = ModuleType(alone, (Partition((1,)),))
    assert theory_alone[t] == mu(t).numeric(montecarlo.MASS_FLOOR / 100)
    assert deficit_ring >= 0.0 and deficit_alone >= 0.0


def test_empirical_matches_mu_on_big_classes():
    ring = _ring(3, 1, 1)
    dist = sample_cokernels(SampleConfig(ring, 7, 20000, 3, workers=2))
    for lam in [(), (1,)]:
        t = ModuleType(ring, (Partition(lam),))
        assert abs(dist.counts.get(t, 0) / dist.total - mu(t).numeric()) < 0.02


def test_finite_n_constant_demo_converges():
    for j in (0, 1, 2):
        rows = finite_n_constant_demo(3, j, range(j, 13))
        diffs = [r["abs_diff"] for r in rows]
        assert diffs[-1] < 1e-4
        assert diffs[-1] <= diffs[0]
        assert isinstance(rows[-1]["prelimit"], Fraction)


def test_finite_n_prelimit_is_a_product_of_eta_factors():
    """Each prelimit constant at stratum j and size n equals
    prod_{k=j+1}^{n} (1 - Q^-k), exactly: the truncation of the eta product
    that its closed form divides by."""
    for Q in (3, 5, 7, 9, 25):
        for j in range(5):
            rows = finite_n_constant_demo(Q, j, range(j, 14))
            for n, row in zip(range(j, 14), rows):
                product = Fraction(1)
                for k in range(j + 1, n + 1):
                    product *= 1 - Fraction(1, Q**k)
                assert row["prelimit"] == product, (Q, j, n)


def test_random_moment_is_the_exact_mean_of_its_draws():
    """A seeded random-mode moment is the Fraction sum over the drawn types
    of count times #Surj, over the number of draws, as in exhaustive mode."""
    ring = _ring(3, 1, 2)
    a = ModuleType(ring, (Partition((1,)),))
    cfg = SampleConfig(ring, 3, 500, 5, workers=2)
    got = empirical_moment(cfg, a)
    dist = sample_cokernels(cfg)
    total = sum(c * surj_count(t, a) for t, c in dist.counts.items())
    assert isinstance(got, Fraction)
    assert got == Fraction(total, 500)
