"""In-process span tracer for the traced replay.

Spans are recorded from the benchmark's side only: `install` wraps the public
functions of each modiso module (and the F_q matmul and echelon methods) and
rebinds every module attribute that refers to an original, so a call made
through a `from .groups import char_series` style import is traced too. The
program's source is not touched.

A span's self time is its duration minus the time covered by its child spans.
Counts are taken at the same boundaries, from arguments and return values.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

MODULES = ("words", "families", "groups", "invariants", "modalg", "gfq", "iso")

# Span names that make up the echelon engine.
ECHELON = ("gfq.EchelonBuilder.add", "gfq.EchelonBuilder.add_block",
           "gfq.TaggedEchelon.add", "gfq.TaggedEchelon.solve")


def _count_todd_coxeter(t, args, result):
    t.counts["words.todd_coxeter.elements"] += result.n


def _count_augmentation_powers(t, args, result):
    # Depth of the filtration built for this algebra: nonzero powers returned,
    # maximised over calls (later calls return the cached chain).
    levels = sum(1 for ideal in result if ideal.dim > 0)
    key = id(args[0])
    t.levels[key] = max(t.levels.get(key, 0), levels)


def _count_quotient_algebra(t, args, result):
    t.counts["modalg.quotient_algebra.dim_sum"] += result.dim


def _count_kernel_size(t, args, result):
    t.counts["modalg.kernel_size_power_map.elements"] += sum(result)


def _count_matmul(t, args, result):
    # Computed from argument shapes, not measured: field MACs of an
    # (m, r) @ (r, n) product and the uint8 code bytes read and written.
    m, r = np.shape(args[1])
    n = np.shape(args[2])[1]
    t.counts["gfq.matmul.macs"] += m * r * n
    t.counts["gfq.matmul.bytes"] += m * r + r * n + m * n


def _count_echelon_row(t, args, result):
    t.counts["gfq.echelon.rows_offered"] += 1
    t.counts["gfq.echelon.rank_gained"] += int(result)


def _count_echelon_block(t, args, result):
    t.counts["gfq.echelon.rows_offered"] += np.shape(args[1])[0]
    t.counts["gfq.echelon.rank_gained"] += int(result)


COUNTERS = {
    "words.todd_coxeter": _count_todd_coxeter,
    "modalg.augmentation_powers": _count_augmentation_powers,
    "modalg.quotient_algebra": _count_quotient_algebra,
    "modalg.kernel_size_power_map": _count_kernel_size,
    "gfq.FiniteField.matmul": _count_matmul,
    "gfq.EchelonBuilder.add": _count_echelon_row,
    "gfq.EchelonBuilder.add_block": _count_echelon_block,
    "gfq.TaggedEchelon.add": _count_echelon_row,
}

METHODS = (("FiniteField", "matmul"), ("EchelonBuilder", "add"),
           ("EchelonBuilder", "add_block"), ("TaggedEchelon", "add"),
           ("TaggedEchelon", "solve"))


class Tracer:
    def __init__(self):
        self.stack = []                  # child time accumulated per open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.levels = {}                 # id(algebra) -> filtration depth

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        stack, self_s, calls = self.stack, self.self_s, self.calls

        @wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(self, args, result)
            return result

        return span

    def install(self):
        """Wrap the traced functions and rebind every reference to them."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"modiso.{short}")
            for attr, value in vars(mod).items():
                traceable = inspect.isfunction(value) or hasattr(value, "cache_clear")
                if (traceable and not attr.startswith("_")
                        and getattr(value, "__module__", None) == mod.__name__):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        gfq = importlib.import_module("modiso.gfq")
        for cls_name, meth in METHODS:
            cls = getattr(gfq, cls_name)
            setattr(cls, meth, self.wrap(f"gfq.{cls_name}.{meth}", getattr(cls, meth)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "modiso" or mod_name.startswith("modiso."):
                for attr, value in list(vars(mod).items()):
                    try:
                        wrapper = wrappers.get(value)
                    except TypeError:  # unhashable module attribute
                        continue
                    if wrapper is not None:
                        setattr(mod, attr, wrapper)

    def end_command(self):
        self.counts["modalg.augmentation_powers.levels"] += sum(self.levels.values())
        self.levels.clear()

    def summary(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def per_layer(summary, command_wall_s):
    """The per-layer metric values, from one traced replay's summary."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    out = {}

    def module_total(short):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == short)

    for short in MODULES:
        out[f"{short}.self_s"] = module_total(short)
    for name in ("words.todd_coxeter", "families.build", "groups.char_series",
                 "groups.conjugacy_classes", "groups.jennings_ranks",
                 "groups.maximal_elem_abelian_classes", "invariants.hh1_dimension",
                 "invariants.transfer_sections", "invariants.class_power_stats",
                 "invariants.fingerprint", "invariants.compare",
                 "modalg.augmentation_powers", "modalg.quotient_algebra",
                 "modalg.small_group_ring", "modalg.lie_power_ideals",
                 "modalg.zassenhaus_ideal", "modalg.kernel_size_power_map",
                 "iso.group_isomorphic", "iso.nilpotent_algebra_iso", "iso.verify_witness"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["gfq.matmul.self_s"] = self_s.get("gfq.FiniteField.matmul", 0.0)
    out["gfq.matmul.calls"] = calls.get("gfq.FiniteField.matmul", 0)
    out["gfq.echelon.self_s"] = sum(self_s.get(k, 0.0) for k in ECHELON)
    out["iso.verify_witness.calls"] = calls.get("iso.verify_witness", 0)
    for name in ("words.todd_coxeter.elements", "modalg.augmentation_powers.levels",
                 "modalg.quotient_algebra.dim_sum", "modalg.kernel_size_power_map.elements",
                 "gfq.matmul.macs", "gfq.matmul.bytes", "gfq.echelon.rows_offered",
                 "gfq.echelon.rank_gained"):
        out[name] = counts.get(name, 0)
    offered = out["gfq.echelon.rows_offered"]
    out["gfq.echelon.useful_ratio"] = out["gfq.echelon.rank_gained"] / offered if offered else 0.0
    out["trace.coverage"] = sum(self_s.values()) / command_wall_s
    return out
