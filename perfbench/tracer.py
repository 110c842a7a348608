"""Span recording around calls into cokernel_lab's public functions.

Wrappers are installed by patching a function's name in every namespace of
the package that holds it (or only in the named caller namespaces), so the
library itself is never edited.  Calls are aggregated per (parent record,
function): one record holds the call count and summed duration of all calls
of that function made under the same parent, so hot inner calls cost one
dictionary update each, not one span object.  Each timed op opens a root
record, and every record carries the id of the op that caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# (metric name, owner of the original, attribute, caller namespaces or None
# for every package namespace that holds the same object)
TARGETS = [
    ("chainring.LocalTables.coker_partition", "cokernel_lab.chainring:LocalTables", "coker_partition", None),
    ("chainring.local_tables_for", "cokernel_lab.chainring", "local_tables_for", None),
    ("chainring.enumerate_submodules_chain", "cokernel_lab.chainring", "enumerate_submodules_chain", None),
    ("chainring.brute_force_aut_order", "cokernel_lab.chainring", "brute_force_aut_order", None),
    ("chainring.bfs_submodules", "cokernel_lab.chainring", "bfs_submodules", None),
    ("modules.coker_type", "cokernel_lab.modules", "coker_type", None),
    ("modules.surj_count", "cokernel_lab.modules", "surj_count", None),
    ("modules.enumerate_submodules", "cokernel_lab.modules", "enumerate_submodules", None),
    ("modules.aut_order", "cokernel_lab.modules", "aut_order", None),
    ("montecarlo.sample_cokernels", "cokernel_lab.montecarlo", "sample_cokernels", None),
    ("montecarlo.tv_distance", "cokernel_lab.montecarlo", "tv_distance", None),
    ("measure.mu", "cokernel_lab.measure", "mu", None),
    ("measure.rank_distribution", "cokernel_lab.measure", "rank_distribution", None),
    ("measure.rank_distribution_partition_form", "cokernel_lab.measure", "rank_distribution_partition_form", None),
    ("measure.moment_rank", "cokernel_lab.measure", "moment_rank", None),
    ("measure.divisor_density", "cokernel_lab.measure", "divisor_density", None),
    ("curves.point_counts", "cokernel_lab.curves", "point_counts", None),
    ("curves.char_poly_from_counts", "cokernel_lab.curves", "char_poly_from_counts", None),
    ("curves.all_squarefree_monic", "cokernel_lab.curves", "all_squarefree_monic", None),
    ("curves.sample_curve", "cokernel_lab.curves", "sample_curve", None),
    ("curves.divisibility_stats", "cokernel_lab.curves", "divisibility_stats", None),
    ("curves.independence_stats", "cokernel_lab.curves", "independence_stats", None),
    # the algebra helpers are timed only as the curve harness calls them
    ("algebra.poly_gcd", "cokernel_lab.algebra", "poly_gcd", ("cokernel_lab.curves",)),
    ("algebra.factor_multiplicity", "cokernel_lab.algebra", "factor_multiplicity", ("cokernel_lab.curves",)),
    ("cli.main", "cokernel_lab.cli", "main", None),
]

MARK = "__perfbench_original__"


@dataclass
class Record:
    """One span, or the aggregate of all calls of `name` under `parent`."""

    id: int
    parent: int | None
    op: int
    name: str
    calls: int = 0
    total: float = 0.0
    children: list = field(default_factory=list)


def _resolve(path: str):
    mod_name, _, cls_name = path.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


def package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "cokernel_lab" or name.startswith("cokernel_lab."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.records: list[Record] = []
        self._index: dict = {}
        self._stack: list[Record] = []
        self._t_op = 0.0
        self._patched: list = []
        self.active = False
        # eta lru_cache lookups during traced ops, read by the caller
        self.eta_hits = 0
        self.eta_misses = 0

    # -- spans -------------------------------------------------------------

    def _child(self, parent: Record, name: str) -> Record:
        key = (parent.id, name)
        rec = self._index.get(key)
        if rec is None:
            rec = Record(len(self.records), parent.id, parent.op, name)
            self.records.append(rec)
            parent.children.append(rec.id)
            self._index[key] = rec
        return rec

    def begin_op(self, op_id: int, name: str = "op") -> None:
        root = Record(len(self.records), None, op_id, name)
        self.records.append(root)
        self._stack = [root]
        self._t_op = time.perf_counter()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        root = self._stack[0]
        root.calls = 1
        root.total = time.perf_counter() - self._t_op
        self._stack = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._child(tracer._stack[-1], name)
            tracer._stack.append(rec)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.total += time.perf_counter() - t0
                rec.calls += 1
                tracer._stack.pop()

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        for name, owner_path, attr, only in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                holders = [(owner, attr)]
            else:
                holders = [
                    (m, key)
                    for m in package_modules()
                    if only is None or m.__name__ in only
                    for key, value in list(vars(m).items())
                    if value is original
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._patched.append((holder, key, original))

    def remove(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []


def leftover_wrappers() -> list[str]:
    """Names in the package (modules and the classes they define) that still
    hold a wrapper."""
    out = []
    for m in package_modules():
        for key, value in vars(m).items():
            if hasattr(value, MARK):
                out.append(f"{m.__name__}.{key}")
            if inspect.isclass(value) and value.__module__ == m.__name__:
                for ckey, cvalue in vars(value).items():
                    if hasattr(cvalue, MARK):
                        out.append(f"{m.__name__}.{key}.{ckey}")
    return out


def self_times(records: list[Record]) -> dict[int, float]:
    """Self time of each record: its duration minus the time its child
    records cover.  Calls in one thread nest, so children never overlap."""
    by_id = {r.id: r for r in records}
    return {
        r.id: r.total - sum(by_id[c].total for c in r.children) for r in records
    }


def layer_stats(records: list[Record]) -> dict[str, dict]:
    """Per function name: calls, total time counting nested calls of the
    same function once, and self time."""
    by_id = {r.id: r for r in records}
    selfs = self_times(records)
    out: dict[str, dict] = {}
    for r in records:
        s = out.setdefault(r.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += r.calls
        s["self_s"] += selfs[r.id]
        p = r.parent
        nested = False
        while p is not None:
            if by_id[p].name == r.name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            s["total_s"] += r.total
    return out
