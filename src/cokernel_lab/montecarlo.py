"""Haar-random and exhaustive cokernel sampling over finite quotient rings,
empirical distributions, and comparisons against the exact measure."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import RingSpec
from .chainring import LocalTables, ResidueRing, local_tables_for
from .measure import MeasureValue, c_constant, mu, qbinom
from .modules import (
    ModuleType,
    Partition,
    RingMatrix,
    coker_type,
    enumerate_module_types,
    surj_count,
)
from .algebra import RingElem

__all__ = [
    "SampleConfig",
    "EmpiricalDist",
    "sample_cokernels",
    "empirical_moment",
    "tv_distance",
    "finite_n_constant_demo",
]

EXHAUSTIVE_CAP = 10**7
BATCH = 4096


@dataclass(frozen=True)
class SampleConfig:
    ring: RingSpec
    n: int
    trials: int
    seed: int
    mode: str = "random"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        if self.mode not in ("random", "exhaustive"):
            raise ValueError("mode must be random or exhaustive")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if self.mode == "exhaustive":
            if self.ring.size ** (self.n * self.n) > EXHAUSTIVE_CAP:
                raise ValueError(
                    "exhaustive enumeration exceeds the cap of "
                    f"{EXHAUSTIVE_CAP} matrices"
                )


@dataclass
class EmpiricalDist:
    counts: dict
    total: int
    config: SampleConfig = field(repr=False, default=None)

    def frequency(self, t: ModuleType) -> float:
        return self.counts.get(t, 0) / self.total


class _LocalClassifier:
    """Classifies one local factor's code matrices, via integer tables when
    the ring is small enough and via the polynomial SNF route otherwise."""

    def __init__(self, spec):
        self.spec = spec
        self.N = spec.size
        if spec.size <= LocalTables.MAX_SIZE:
            self.tables = local_tables_for(spec)
        else:
            self.tables = None
            self.ring = RingSpec((spec,))

    def partition(self, mat, n: int) -> tuple:
        if self.tables is not None:
            return self.tables.coker_partition(mat, n)
        rows = tuple(
            tuple(
                RingElem(self.ring, (ResidueRing.decode(self.spec.l, mat[i][j]),))
                for j in range(n)
            )
            for i in range(n)
        )
        t = coker_type(RingMatrix(self.ring, rows))
        return t.local_types[0].parts


def worker_streams(salt: str, seed: int, trials: int, workers: int):
    """(generator, draw count) per worker in index order: the trials split
    as evenly as possible, the first workers taking one more, each stream
    seeded from a hash of the salt, the seed and the worker index."""
    if trials < 1:
        raise ValueError(f"random sampling needs trials >= 1, got {trials}")
    if workers < 1:
        raise ValueError("worker count must be positive")
    base, extra = divmod(trials, workers)
    for worker in range(workers):
        h = hashlib.sha256(f"{salt}:{seed}:{worker}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(h[:8], "big"))
        yield rng, base + (worker < extra)


def _iter_types(cfg: SampleConfig):
    """Yield the cokernel type (one partition tuple per factor) of each draw,
    in a deterministic order: worker blocks in index order."""
    ring = cfg.ring
    n = cfg.n
    classifiers = [_LocalClassifier(f) for f in ring.factors]
    if cfg.mode == "exhaustive":
        sizes = [c.N for c in classifiers]
        total = ring.size ** (n * n)
        n_entries = n * n
        for idx in range(total):
            mats = [[[0] * n for _ in range(n)] for _ in classifiers]
            rem = idx
            for pos in range(n_entries):
                rem, entry = divmod(rem, ring.size)
                i, j = divmod(pos, n)
                for fi, size in enumerate(sizes):
                    entry, code = divmod(entry, size)
                    mats[fi][i][j] = code
            yield tuple(
                cls.partition(mats[fi], n) for fi, cls in enumerate(classifiers)
            )
        return
    for rng, count in worker_streams("cokernel-lab", cfg.seed, cfg.trials, cfg.workers):
        done = 0
        while done < count:
            batch = min(BATCH, count - done)
            draws = [
                rng.integers(0, cls.N, size=(batch, n, n)) for cls in classifiers
            ]
            lists = [d.tolist() for d in draws]
            for b in range(batch):
                yield tuple(
                    cls.partition(lists[fi][b], n)
                    for fi, cls in enumerate(classifiers)
                )
            done += batch


def sample_cokernels(cfg: SampleConfig) -> EmpiricalDist:
    raw: dict = {}
    total = 0
    for key in _iter_types(cfg):
        raw[key] = raw.get(key, 0) + 1
        total += 1
    counts = {
        ModuleType(cfg.ring, tuple(Partition(p) for p in key)): c
        for key, c in raw.items()
    }
    return EmpiricalDist(counts, total, cfg)


def empirical_moment(cfg: SampleConfig, a: ModuleType):
    """Mean of #Surj(coker, A) over the draws; exact rational in exhaustive
    mode, float otherwise."""
    if a.ring != cfg.ring:
        raise ValueError("ring mismatch")
    cache: dict = {}
    total = 0
    count = 0
    for key in _iter_types(cfg):
        s = cache.get(key)
        if s is None:
            t = ModuleType(cfg.ring, tuple(Partition(p) for p in key))
            s = surj_count(t, a)
            cache[key] = s
        total += s
        count += 1
    if cfg.mode == "exhaustive":
        return Fraction(total, count)
    return total / count


def _theory_truncation(ring: RingSpec, mass_floor: float) -> dict:
    """Types with mass at least the floor, as numeric values."""
    out = {}
    dim = 0
    idle = 0
    while dim <= 200 and idle < 4:
        dim_mass = 0.0
        for t in enumerate_module_types(ring, dim):
            v = mu(t).numeric(mass_floor / 100)
            dim_mass += v
            if v >= mass_floor:
                out[t] = v
        if dim_mass < mass_floor:
            idle += 1
        else:
            idle = 0
        dim += 1
    return out


def tv_distance(emp: EmpiricalDist, mass_floor: float = 1e-7):
    """Total variation between the empirical distribution and the exact
    measure truncated at the mass floor; the truncation deficit is reported
    alongside, never hidden."""
    theory = _theory_truncation(emp.config.ring, mass_floor)
    deficit = max(0.0, 1.0 - sum(theory.values()))
    support = set(theory) | set(emp.counts)
    tv = 0.5 * sum(
        abs(emp.counts.get(t, 0) / emp.total - theory.get(t, 0.0)) for t in support
    )
    return tv, deficit, theory


def finite_n_constant_demo(Q: int, j: int, n_range) -> list[dict]:
    """Prelimit normalizing constants: the number of dimension-j subspaces
    times |GL_{n-j}| over |M_{n x (n-j)}|, converging to the closed form."""
    from .measure import local_ring_with_residue_size

    ring = RingSpec((local_ring_with_residue_size(Q, 1),))
    closed = c_constant(ring, (j,))
    closed_num = closed.numeric(1e-12)
    rows = []
    for n in n_range:
        if n < j:
            raise ValueError("matrix size below the stratum index")
        gl = 1
        for i in range(n - j):
            gl *= Q ** (n - j) - Q**i
        pre = Fraction(qbinom(n, j, Q) * gl, Q ** (n * (n - j)))
        rows.append(
            {
                "n": n,
                "prelimit": pre,
                "prelimit_value": float(pre),
                "closed_form_value": closed_num,
                "abs_diff": abs(float(pre) - closed_num),
            }
        )
    return rows
