"""Haar-random and exhaustive cokernel sampling over finite quotient rings,
empirical distributions, and comparisons against the exact measure."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .algebra import RingSpec
from .chainring import local_tables_for
from .measure import c_constant, local_ring_with_residue_size, mu
from .modules import ModuleType, Partition, enumerate_module_types, qbinom, surj_count

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
# a batch holds BATCH * n^2 codes per factor: 2^20 at this cap
MAX_MATRIX_SIZE = 16
# tv_distance compares against the module types of at least this mass
MASS_FLOOR = 1e-7
# worker_streams seeds one generator per worker, drawing or not
MAX_WORKERS = 64


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
        if self.n > MAX_MATRIX_SIZE:
            raise ValueError(
                f"matrix size {self.n} exceeds MAX_MATRIX_SIZE = {MAX_MATRIX_SIZE}"
            )
        if self.mode not in ("random", "exhaustive"):
            raise ValueError("mode must be random or exhaustive")
        _check_workers(self.workers)
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
    config: SampleConfig = field(repr=False)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("worker count must be positive")
    if workers > MAX_WORKERS:
        raise ValueError(f"worker count {workers} exceeds MAX_WORKERS = {MAX_WORKERS}")


def worker_streams(salt: str, seed: int, trials: int, workers: int):
    """(generator, draw count) per worker in index order: the trials split
    as evenly as possible, the first workers taking one more, each stream
    seeded from a hash of the salt, the seed and the worker index."""
    if trials < 1:
        raise ValueError(f"random sampling needs trials >= 1, got {trials}")
    _check_workers(workers)
    base, extra = divmod(trials, workers)
    for worker in range(workers):
        h = hashlib.sha256(f"{salt}:{seed}:{worker}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(h[:8], "big"))
        yield rng, base + (worker < extra)


def _exhaustive_batches(ring: RingSpec, n: int):
    """Every n x n matrix over the ring, in index order, as one code array
    (B, n, n) per factor and batch: entry pos of matrix idx is the base-|R|
    digit pos of idx, split over the factors as mixed-radix digits."""
    total = ring.size ** (n * n)
    places = ring.size ** np.arange(n * n, dtype=np.int64)
    for start in range(0, total, BATCH):
        idx = np.arange(start, min(start + BATCH, total), dtype=np.int64)
        entries = idx[:, None] // places % ring.size
        codes = []
        for f in ring.factors:
            entries, code = np.divmod(entries, f.size)
            codes.append(code.reshape(-1, n, n))
        yield codes


def joined_draws(salt: str, seed: int, trials: int, workers: int, cap: int, draw):
    """draw(rng, size), a list of arrays of size rows each, on each worker
    stream of worker_streams in index order, in pieces of at most cap draws.
    Consecutive pieces, across worker streams too, are joined into one
    batch until the next would take it past cap draws, so a request of few
    draws per worker is handled in one pass; every stream draws the pieces
    it would draw alone."""
    pieces, size = [], 0
    for rng, count in worker_streams(salt, seed, trials, workers):
        for done in range(0, count, cap):
            piece = min(cap, count - done)
            if size + piece > cap:
                yield _joined(pieces)
                pieces, size = [], 0
            pieces.append(draw(rng, piece))
            size += piece
    if pieces:
        yield _joined(pieces)


def _joined(pieces) -> list:
    """The arrays of the pieces, position by position, concatenated in
    order; a lone piece, a full batch among them, is passed on without a
    copy."""
    if len(pieces) == 1:
        return pieces[0]
    return [np.concatenate(arrays) for arrays in zip(*pieces)]


def _random_batches(cfg: SampleConfig):
    """Haar-random code arrays (B, n, n), one per factor and batch, in
    worker blocks of index order, joined as joined_draws joins them into
    batches of at most BATCH matrices, so a request of few draws per
    worker is classified in one elimination."""
    n, sizes = cfg.n, [f.size for f in cfg.ring.factors]
    return joined_draws(
        "cokernel-lab", cfg.seed, cfg.trials, cfg.workers, BATCH,
        lambda rng, count: [rng.integers(0, size, size=(count, n, n)) for size in sizes],
    )


def sample_cokernels(cfg: SampleConfig) -> EmpiricalDist:
    """Counts of the cokernel types (one partition per factor) of the
    draws, taken in a deterministic order: worker blocks in index order.
    Each factor's classifier runs once per batch of up to BATCH draws,
    whatever the worker count."""
    classifiers = [local_tables_for(f) for f in cfg.ring.factors]
    if cfg.mode == "exhaustive":
        batches = _exhaustive_batches(cfg.ring, cfg.n)
    else:
        batches = _random_batches(cfg)
    raw = Counter()
    for codes in batches:
        raw.update(zip(*(cls.coker_partition(c) for cls, c in zip(classifiers, codes))))
    counts = {
        ModuleType(cfg.ring, tuple(Partition(p) for p in key)): c
        for key, c in raw.items()
    }
    return EmpiricalDist(counts, sum(raw.values()), cfg)


def empirical_moment(cfg: SampleConfig, a: ModuleType):
    """Mean of #Surj(coker, A) over the draws; exact rational in exhaustive
    mode, float otherwise."""
    if a.ring != cfg.ring:
        raise ValueError("ring mismatch")
    dist = sample_cokernels(cfg)
    total = sum(c * surj_count(t, a) for t, c in dist.counts.items())
    if cfg.mode == "exhaustive":
        return Fraction(total, dist.total)
    return total / dist.total


@lru_cache(maxsize=None)
def _theory_truncation(ring: RingSpec):
    """Types with mass at least MASS_FLOOR, as numeric values, and the mass
    they leave out; built once per ring.  The dict is shared by every
    caller, so it leaves this module only behind a read-only view."""
    out = {}
    dim = 0
    idle = 0
    while dim <= 200 and idle < 4:
        dim_mass = 0.0
        for t in enumerate_module_types(ring, dim):
            v = mu(t).numeric(MASS_FLOOR / 100)
            dim_mass += v
            if v >= MASS_FLOOR:
                out[t] = v
        if dim_mass < MASS_FLOOR:
            idle += 1
        else:
            idle = 0
        dim += 1
    return out, max(0.0, 1.0 - sum(out.values()))


def tv_distance(emp: EmpiricalDist):
    """Total variation between the empirical distribution and the exact
    measure truncated at MASS_FLOOR; the truncation deficit is reported
    alongside, never hidden.  The truncated measure is built once per ring
    and returned as a read-only view."""
    theory, deficit = _theory_truncation(emp.config.ring)
    # set() of the dict itself, not of a view: a set built from a dict is
    # sized up front, and its iteration order fixes tv's last bits
    support = set(theory) | set(emp.counts)
    tv = 0.5 * sum(
        abs(emp.counts.get(t, 0) / emp.total - theory.get(t, 0.0)) for t in support
    )
    return tv, deficit, MappingProxyType(theory)


def finite_n_constant_demo(Q: int, j: int, n_range) -> list[dict]:
    """Prelimit normalizing constants: the number of dimension-j subspaces
    times |GL_{n-j}| over |M_{n x (n-j)}|, converging to the closed form."""
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
