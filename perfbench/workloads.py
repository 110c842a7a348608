"""The benchmark's four workloads: how each op list is generated from the
workload seed, how an op runs against cokernel_lab, and how its output is
checked.

An op is a JSON-able dict.  A workload's op list is a fixed number of
rounds; every round holds the same mix of op kinds with seeded parameters,
so a run that stops on a round boundary always measures the whole mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from cokernel_lab import chainring, cli, curves, measure, modules, montecarlo
from cokernel_lab.algebra import LocalRingSpec, Poly, RingSpec
from cokernel_lab.modules import ModuleType, Partition
from tracer import package_modules

WORKLOADS = ("cokernel-small-ring", "cokernel-large-ring", "curve-stats", "exact-queries")

# Rounds per op list; a run that outlasts them starts over at round 0.
ROUNDS = {
    "cokernel-small-ring": 60,
    "cokernel-large-ring": 30,
    "curve-stats": 16,
    "exact-queries": 64,
}
# A run stops only after a whole cycle of rounds: in a cycle every cokernel
# slot takes each (trials, workers) pair once, so every run times the same
# multiset of request sizes and its percentiles do not depend on the seed.
CYCLE = {
    "cokernel-small-ring": 6,
    "cokernel-large-ring": 6,
    "curve-stats": 1,
    "exact-queries": 1,
}

# CRT factors as (l, p low degree first, e).  X^2+1 is irreducible over F_3,
# so (3, (1, 0, 1), e) is F_9[t]/(t^e).
SMALL_RINGS = {
    "F3[X]/(X^2)": ((3, (0, 1), 2),),
    "F3[X]/(X^2)xF3[X]/(X+1)": ((3, (0, 1), 2), (3, (1, 1), 1)),
    "F9[t]/(t^3)": ((3, (1, 0, 1), 3),),
    "F11[X]/(X^3)": ((11, (0, 1), 3),),
}
LARGE_RINGS = {
    "F9[t]/(t^4)": ((3, (1, 0, 1), 4),),
    "F3[X]/(X^8)": ((3, (0, 1), 8),),
    "F5[X]/(X^5)": ((5, (0, 1), 5),),
}
RINGS = {**SMALL_RINGS, **LARGE_RINGS}
# Largest local ring the small-ring workload may build tables for.
MAX_TABLE_RING = 1331

CURVE_GRID = ((1, 5), (2, 5), (2, 7), (3, 7), (3, 11), (4, 13))
CENSUS_GRID = ((1, 5), (2, 5))
# Curves per sampled request by genus; genus 3 asks for fewer so that its
# requests take about as long as genus 2's and the median op does not sit
# on a gap between two kinds.
CURVE_TRIALS = {1: 30, 2: 30, 3: 10, 4: 2}

F3_RING_JSON = '{"l":3,"factors":[{"p":[0,1],"e":2}]}'

# (label, argv, accepted exit codes).  Every input must be rejected with
# exit code 1; the last two exit with code 2 at the seed commit, which is
# accepted as a rejection and reported separately as a known defect.
INVALID_INPUTS = (
    ("reducible-p", ("rank-dist", "--l", "3", "--p", "X^2-1", "--e", "2", "--m", "2"), (1,)),
    (
        "hypothesis-violated",
        ("simulate", "curves", "--l", "3", "--q", "13", "--g", "1", "--cond", "X-1:1",
         "--trials", "10", "--seed", "1"),
        (1,),
    ),
    (
        "over-cap-exhaustive",
        ("simulate", "cokernel", "--ring", F3_RING_JSON, "--n", "4", "--exhaustive"),
        (1,),
    ),
    ("default-trials-zero", ("simulate", "cokernel", "--ring", F3_RING_JSON, "--n", "2"), (1, 2)),
    ("measure-bare-int-types", ("measure", "--ring", F3_RING_JSON, "--types", "[3]"), (1, 2)),
)
KNOWN_EXIT2 = {label for label, _, codes in INVALID_INPUTS if 2 in codes}

# Every round of exact-queries runs each lattice and oracle case once, which
# keeps the slow kinds' share fixed, and samples the fast kinds.
EXACT_FULL = ("lattice", "aut-oracle", "bfs-oracle")
EXACT_SAMPLED = {"mu": 12, "rank": 8, "moment": 4, "density": 4}
EXACT_KINDS = frozenset(EXACT_FULL) | frozenset(EXACT_SAMPLED)

DIGESTS_PATH = Path(__file__).with_name("digests.json")


# -- polynomials and rings --------------------------------------------------


def _has_root(coeffs, l: int) -> bool:
    return any(sum(c * x**i for i, c in enumerate(coeffs)) % l == 0 for x in range(l))


def monic_irreducibles(l: int) -> list[tuple]:
    """Monic irreducibles of degree 1 and 2 over F_l (degree 2: no root)."""
    out = [(a, 1) for a in range(l)]
    out += [(a, b, 1) for b in range(l) for a in range(l) if not _has_root((a, b, 1), l)]
    return out


def valid_conditions(l: int, q: int) -> list[tuple]:
    """Condition polynomials P with P(q) != 0 mod l, the curve hypothesis."""
    return [p for p in monic_irreducibles(l) if not _has_root_at(p, l, q)]


def _has_root_at(coeffs, l: int, q: int) -> bool:
    return sum(c * (q % l) ** i for i, c in enumerate(coeffs)) % l == 0


def ring_spec(factors) -> RingSpec:
    return RingSpec(tuple(LocalRingSpec(l, Poly(l, p), e) for l, p, e in factors))


def _conds(l: int, conds) -> list:
    return [(Poly(l, p), m) for p, m in conds]


# -- exact query catalogue ----------------------------------------------------

# Lattices whose cold enumeration takes 2 to 50 ms, as (l, d, type); together
# they take about as long as the BFS cases.
LATTICES = (
    (3, 1, (2, 1)), (3, 1, (3, 2)), (3, 1, (2, 2, 1)), (3, 1, (3, 3)), (3, 1, (2, 1, 1, 1)),
    (3, 1, (5, 2)), (5, 1, (2, 2)), (5, 1, (3, 2)), (7, 1, (2, 2)), (11, 1, (2, 1)),
    (3, 2, (2, 1)), (3, 2, (2, 2)),
)
# brute_force_aut_order cases of F_l-dimension at most 4, as (l, type).
AUT_CASES = (
    (3, (1,)), (3, (2,)), (3, (3,)), (3, (1, 1)), (3, (2, 1)), (3, (2, 2)), (3, (3, 1)),
    (3, (1, 1, 1)), (5, (2,)), (5, (1, 1)), (5, (2, 1)), (7, (2,)), (7, (1, 1)), (7, (2, 1)),
)
# bfs_submodules cases, as (l, d, e, ambient type).
BFS_CASES = (
    (3, 1, 1, (1,)), (3, 1, 1, (1, 1)), (3, 1, 2, (2,)), (3, 1, 2, (1, 1)),
    (3, 1, 2, (2, 1)), (5, 1, 1, (1, 1)), (5, 1, 2, (2,)), (3, 2, 1, (1,)),
)
# Residue fields for the local rings of mu, rank and density queries, as
# (l, p) with p low degree first.
RESIDUES = {3: ((0, 1), (1, 1), (2, 1), (1, 0, 1)), 5: ((0, 1), (1, 1), (2, 1), (2, 0, 1))}


def _random_partition(rng: random.Random, size: int, max_part: int) -> tuple:
    parts = []
    while size > 0:
        p = rng.randint(1, min(size, max_part))
        parts.append(p)
        size -= p
    return tuple(sorted(parts, reverse=True))


def _build_catalogue() -> dict[str, list[dict]]:
    rng = random.Random("perfbench-exact-catalogue")
    cat: dict[str, list[dict]] = {k: [] for k in EXACT_KINDS}
    for _ in range(48):
        l = rng.choice((3, 5))
        k = rng.randint(1, 3)
        ps = rng.sample(RESIDUES[l], k)
        factors = [[l, list(p), rng.randint(1, 3)] for p in ps]
        types = [list(_random_partition(rng, rng.randint(0, 4), f[2])) for f in factors]
        cat["mu"].append({"kind": "mu", "factors": factors, "types": types})
    for l, p, es, ms in (
        (3, (0, 1), (1, 2, 3), range(0, 9)),
        (3, (1, 0, 1), (1, 2), range(0, 9, 2)),
        (5, (0, 1), (1, 2, 3), range(0, 7)),
        (7, (0, 1), (2, 3), range(2, 7)),
    ):
        for e in es:
            for m in ms:
                cat["rank"].append({"kind": "rank", "l": l, "p": list(p), "e": e, "m": m})
    for Q in (3, 5, 7, 9):
        for e in (1, 2, 3):
            for k in range(1, 7):
                cat["moment"].append({"kind": "moment", "Q": Q, "e": e, "k": k})
    for _ in range(32):
        l = rng.choice((3, 5, 7))
        polys = rng.sample(monic_irreducibles(l), rng.randint(1, 2))
        cat["density"].append(
            {"kind": "density", "l": l, "conds": [[list(p), rng.randint(0, 2)] for p in polys]}
        )
    for l, d, lam in LATTICES:
        cat["lattice"].append({"kind": "lattice", "l": l, "d": d, "type": list(lam)})
    for l, lam in AUT_CASES:
        cat["aut-oracle"].append({"kind": "aut-oracle", "l": l, "type": list(lam)})
    for l, d, e, lam in BFS_CASES:
        cat["bfs-oracle"].append({"kind": "bfs-oracle", "l": l, "d": d, "e": e, "type": list(lam)})
    return cat


EXACT_CATALOGUE = _build_catalogue()


# -- op lists -----------------------------------------------------------------


def _cokernel_round(rng, r, phases, rings: dict, ns, trials) -> list[dict]:
    # slot i takes pair (r + phases[i]) % 6 in round r
    combos = [(t, w) for t in trials for w in (1, 2)]
    slots = [(name, n) for name in rings for n in ns]
    ops = []
    for (name, n), phase in zip(slots, phases):
        t, w = combos[(r + phase) % len(combos)]
        ops.append(
            {"kind": "cokernel", "ring": name, "n": n, "trials": t, "workers": w,
             "seed": rng.randrange(2**31)}
        )
    return ops


def _curve_round(rng) -> list[dict]:
    # per grid point: both request kinds, once with each worker count
    slots = [
        (g, q, kind, n_conds, workers)
        for g, q in CURVE_GRID
        for workers in (1, 2)
        for kind, n_conds in (("divisibility", 1), ("independence", 2))
    ]
    ops = []
    for g, q, kind, n_conds, workers in slots:
        l = rng.choice([l for l in (3, 5) if q % l])
        polys = rng.sample(valid_conditions(l, q), n_conds)
        ops.append(
            {
                "kind": kind,
                "l": l,
                "q": q,
                "g": g,
                "conds": [[list(p), rng.randint(0, 1)] for p in polys],
                "trials": CURVE_TRIALS[g],
                "workers": workers,
                "seed": rng.randrange(2**31),
            }
        )
    for g, q in CENSUS_GRID:
        p = rng.choice(valid_conditions(3, q))
        ops.append({"kind": "census", "l": 3, "q": q, "g": g, "conds": [[list(p), rng.randint(0, 1)]]})
    return ops


def _exact_round(rng) -> list[dict]:
    ops = [op for kind in EXACT_FULL for op in EXACT_CATALOGUE[kind]]
    ops += [rng.choice(EXACT_CATALOGUE[kind]) for kind, count in EXACT_SAMPLED.items() for _ in range(count)]
    return ops


def op_rounds(workload: str, seed: int) -> list[list[dict]]:
    """The op list of a workload: a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    phase_rng = random.Random(f"{workload}:{seed}")
    phases = [phase_rng.randrange(6) for _ in range(32)]
    rounds = []
    for r in range(ROUNDS[workload]):
        rng = random.Random(f"{workload}:{seed}:{r}")
        if workload == "cokernel-small-ring":
            ops = _cokernel_round(rng, r, phases, SMALL_RINGS, (6, 8), (150, 300, 450))
        elif workload == "cokernel-large-ring":
            ops = _cokernel_round(rng, r, phases, LARGE_RINGS, (3, 4, 5), (4, 8, 12))
        elif workload == "curve-stats":
            ops = _curve_round(rng)
        else:
            ops = _exact_round(rng)
        label, argv, codes = INVALID_INPUTS[r % len(INVALID_INPUTS)]
        ops.append({"kind": "invalid", "label": label, "argv": list(argv), "accept": list(codes)})
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def check_load(workload: str, rounds, nproc: int) -> None:
    """Refuse op lists that exceed the machine or the size limits; nothing
    runs before this passes."""
    for ops in rounds:
        for op in ops:
            if op.get("workers", 1) > nproc:
                raise ValueError(f"op uses {op['workers']} workers, above nproc = {nproc}")
            if op["kind"] == "cokernel":
                local = [l ** ((len(p) - 1) * e) for l, p, e in RINGS[op["ring"]]]
                if workload == "cokernel-small-ring" and max(local) > MAX_TABLE_RING:
                    raise ValueError(f"table ring of {max(local)} elements above {MAX_TABLE_RING}")
                if op["n"] > 8:
                    raise ValueError("matrix size above 8")
            if op["kind"] == "census" and (op["g"], op["q"]) not in CENSUS_GRID:
                raise ValueError("census outside the census grid")


# -- running ops ----------------------------------------------------------------


def _mv(v) -> list:
    return [f"{v.rational.numerator}/{v.rational.denominator}", list(v.eta_factors)]


def _types(t: ModuleType) -> list:
    return [list(lam.parts) for lam in t.local_types]


def _local(l: int, d: int, lam) -> ModuleType:
    spec = LocalRingSpec(l, _residue_poly(l, d), max(lam))
    return ModuleType(RingSpec((spec,)), (Partition(tuple(lam)),))


def _residue_poly(l: int, d: int) -> Poly:
    return Poly(l, (0, 1)) if d == 1 else Poly(l, next(p for p in monic_irreducibles(l) if len(p) == d + 1))


def _run_cokernel(op):
    ring = ring_spec(RINGS[op["ring"]])
    cfg = montecarlo.SampleConfig(ring, op["n"], op["trials"], op["seed"], workers=op["workers"])
    dist = montecarlo.sample_cokernels(cfg)
    tv, deficit, _ = montecarlo.tv_distance(dist)
    counts = sorted([_types(t), c] for t, c in dist.counts.items())
    return {"total": dist.total, "counts": counts, "tv": repr(tv), "deficit": repr(deficit)}, op["trials"]


def _run_divisibility(op):
    """A sampled request, or with kind "census" the exhaustive one."""
    rep = curves.divisibility_stats(
        op["l"], _conds(op["l"], op["conds"]), op["q"], op["g"], op.get("trials", 0),
        op.get("seed", 0), workers=op.get("workers", 1), exhaustive=op["kind"] == "census",
    )
    return {"hits": rep.hits, "trials": rep.trials, "predicted": _mv(rep.predicted),
            "empirical": repr(rep.empirical)}, rep.trials


def _run_independence(op):
    (ca, cb) = _conds(op["l"], op["conds"])
    res = curves.independence_stats(
        op["l"], ca, cb, op["q"], op["g"], op["trials"], op["seed"], workers=op["workers"]
    )
    return {"table": res["table"], "trials": res["trials"]}, res["trials"]


def _run_mu(op):
    ring = ring_spec(op["factors"])
    t = ModuleType(ring, tuple(Partition(tuple(x)) for x in op["types"]))
    return {"mu": _mv(measure.mu(t))}, 1


def _run_rank(op):
    local = LocalRingSpec(op["l"], Poly(op["l"], op["p"]), op["e"])
    direct = measure.rank_distribution(local, op["m"])
    pf = measure.rank_distribution_partition_form(local.Q, local.e, op["m"], local.residue_degree)
    return {"direct": _mv(direct), "partition_form": _mv(pf)}, 1


def _run_moment(op):
    return {"moment": measure.moment_rank(op["Q"], op["e"], op["k"])}, 1


def _run_density(op):
    return {"density": _mv(measure.divisor_density(op["l"], _conds(op["l"], op["conds"])))}, 1


def _run_lattice(op):
    a = _local(op["l"], op["d"], op["type"])
    m = _local(op["l"], op["d"], [max(op["type"])] * len(op["type"]))
    subs = modules.enumerate_submodules(a)
    surj = modules.surj_count(m, a)
    return {"subs": sorted([_types(b), c] for b, c in subs.items()), "surj": surj}, 1


def _run_aut(op):
    a = _local(op["l"], 1, op["type"])
    return {"closed": modules.aut_order(a),
            "brute": chainring.brute_force_aut_order(op["l"], tuple(op["type"]))}, 1


def _run_bfs(op):
    spec = LocalRingSpec(op["l"], _residue_poly(op["l"], op["d"]), op["e"])
    ring = chainring.chain_ring_for(spec)
    chain = chainring.enumerate_submodules_chain(ring, tuple(op["type"]))
    bfs = chainring.bfs_submodules(ring, tuple(op["type"]))
    return {"chain": sorted([list(k), v] for k, v in chain.items()),
            "bfs": sorted([list(k), v] for k, v in bfs.items())}, 1


def _run_invalid(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op["argv"]))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue().strip()[-200:]}, 0


RUNNERS = {
    "cokernel": _run_cokernel,
    "divisibility": _run_divisibility,
    "census": _run_divisibility,
    "independence": _run_independence,
    "mu": _run_mu,
    "rank": _run_rank,
    "moment": _run_moment,
    "density": _run_density,
    "lattice": _run_lattice,
    "aut-oracle": _run_aut,
    "bfs-oracle": _run_bfs,
    "invalid": _run_invalid,
}


def clear_library_caches() -> None:
    """Empty every lru_cache in the package, as a fresh CLI process has
    them; exact queries each start cold."""
    for m in package_modules():
        for value in list(vars(m).values()):
            fn = getattr(value, "__perfbench_original__", value)
            if callable(getattr(fn, "cache_clear", None)):
                fn.cache_clear()


def run_op(op: dict):
    """Run one op; returns (output, items).  Exceptions propagate."""
    return RUNNERS[op["kind"]](op)


def digest(output) -> str:
    blob = json.dumps(output, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def op_key(op: dict) -> str:
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


# -- checks -------------------------------------------------------------------------


def _galois_number(Q: int, k: int) -> int:
    """Number of subspaces of F_Q^k, by the recursion G_{k+1} = 2 G_k +
    (Q^k - 1) G_{k-1}."""
    prev, cur = 1, 2
    if k == 0:
        return 1
    for i in range(1, k):
        prev, cur = cur, 2 * cur + (Q**i - 1) * prev
    return cur


def check_op(op: dict, out: dict) -> str | None:
    """Seed-free invariants and independent routes; returns what is wrong,
    or None."""
    kind = op["kind"]
    if kind == "cokernel":
        factors = RINGS[op["ring"]]
        if sum(c for _, c in out["counts"]) != op["trials"] or out["total"] != op["trials"]:
            return "counts do not sum to trials"
        for types, _ in out["counts"]:
            for lam, (_, _, e) in zip(types, factors):
                if any(p > e for p in lam) or lam != sorted(lam, reverse=True) or len(lam) > op["n"]:
                    return f"impossible cokernel type {types}"
        if not (0.0 <= float(out["tv"]) <= 1.0 and 0.0 <= float(out["deficit"]) < 1.0):
            return "TV or deficit out of range"
    elif kind in ("divisibility", "census"):
        want = op["trials"] if kind == "divisibility" else op["q"] ** (2 * op["g"] + 1) - op["q"] ** (2 * op["g"])
        if out["trials"] != want:
            return f"{out['trials']} curves, expected {want}"
        if not 0 <= out["hits"] <= out["trials"]:
            return "hits out of range"
        if _mv(measure.divisor_density(op["l"], _conds(op["l"], op["conds"]))) != out["predicted"]:
            return "predicted rational differs from divisor_density"
    elif kind == "independence":
        if out["trials"] != op["trials"] or sum(map(sum, out["table"])) != op["trials"]:
            return "contingency table does not sum to trials"
    elif kind == "mu":
        ring = ring_spec(op["factors"])
        product = measure.MeasureValue(Fraction(1))
        for lam, f in zip(op["types"], ring.factors):
            product = product * measure.mu(ModuleType(RingSpec((f,)), (Partition(tuple(lam)),)))
        if _mv(product) != out["mu"]:
            return "mass does not factor over the CRT factors"
    elif kind == "rank":
        if out["direct"] != out["partition_form"]:
            return "partition form disagrees with the direct sum"
    elif kind == "moment":
        if op["e"] == 1 and out["moment"] != _galois_number(op["Q"], op["k"]):
            return "moment differs from the Galois number"
    elif kind == "lattice":
        a = _local(op["l"], op["d"], op["type"])
        m = _local(op["l"], op["d"], [max(op["type"])] * len(op["type"]))
        lhs = sum(c * modules.surj_count(m, ModuleType(a.ring, (Partition(tuple(b[0])),)))
                  for b, c in out["subs"])
        if lhs != modules.hom_count(m, a):
            return "sum of #Sub * #Surj differs from #Hom"
    elif kind == "aut-oracle":
        if out["closed"] != out["brute"]:
            return "closed-form |Aut| differs from brute force"
    elif kind == "bfs-oracle":
        if out["chain"] != out["bfs"]:
            return "canonical enumeration differs from BFS"
    elif kind == "invalid":
        if out["exit"] not in op["accept"]:
            return f"{op['label']}: exit code {out['exit']} ({out['stderr']})"
        if out["stdout"]:
            return f"{op['label']}: a report was printed for invalid input"
    return None


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {"seeded": {}, "exact": {}}
    return json.loads(DIGESTS_PATH.read_text())


def expected_digest(digests: dict, workload: str, seed: int, round_idx: int, pos: int, op: dict):
    """The digest recorded at the seed commit for this op, if any."""
    if op["kind"] == "invalid":
        return None
    if op["kind"] in EXACT_KINDS:
        return digests["exact"].get(op_key(op))
    table = digests["seeded"].get(workload, {}).get(str(seed))
    if table is None:
        return None
    return table[round_idx % len(table)][pos]


# -- set-up ---------------------------------------------------------------------------


def setup_ops(workload: str) -> list[dict]:
    """One minimal request per ring or field the workload uses, so tables
    and fields are built before timing starts."""
    if workload in ("cokernel-small-ring", "cokernel-large-ring"):
        rings = SMALL_RINGS if workload == "cokernel-small-ring" else LARGE_RINGS
        return [{"kind": "cokernel", "ring": name, "n": 1, "trials": 1, "workers": 1, "seed": 0} for name in rings]
    if workload == "curve-stats":
        ops = []
        for g, q in CURVE_GRID:
            l = 3 if q % 3 else 5
            cond = [[list(valid_conditions(l, q)[0]), 0]]
            ops.append({"kind": "divisibility", "l": l, "q": q, "g": g, "conds": cond,
                        "trials": 1, "workers": 1, "seed": 0})
        return ops
    return [EXACT_CATALOGUE[kind][0] for kind in sorted(EXACT_KINDS)]


def setup(workload: str, between=None) -> None:
    """Run the set-up ops of `workload`, calling `between()` after each."""
    for op in setup_ops(workload):
        run_op(op)
        if between is not None:
            between()
