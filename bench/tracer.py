"""Outside-in tracer: spans around calls into frobcat's public functions.

The library is not edited. Installing the tracer swaps each traced function
for a timing wrapper everywhere the function is reachable at run time:

* a module-level function is rebound in every ``frobcat.*`` module that holds
  it, because modules import each other's functions by name
  (``from .algebra_repr import hom_basis``);
* class attributes and method default values that hold it are rebound too
  (``PredicateSet`` keeps the predicates as dataclass defaults);
* a method (``Matrix.rref``, ``Morphism.__init__``) is replaced on its class.

Leaving the ``with`` block restores every original. Spans stay in memory as
flat arrays (name, parent, start, end) and are summarised, or written out,
after the run.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("exact_linalg", "algebra_repr", "homological", "rigid_model", "localization",
          "axiom_suite")


@dataclass(frozen=True)
class Target:
    """One traced entry point: ``attr`` of module ``frobcat.<layer>``, where
    ``attr`` is a function name or ``Class.method``. Spans are named
    ``<layer>.<group>``; several entry points may share a group."""

    layer: str
    group: str
    attr: str
    probe: Optional[str] = None


def _cells(args, kwargs):
    return args[0].rows * args[0].cols


def _hom_cache_size(args, kwargs):
    return len(args[0].algebra._hom_cache)


def _replacement_cache_size(args, kwargs):
    return len(args[0]._caches["replacement"])


def _ho_hom_cache_size(args, kwargs):
    return len(args[0]._caches.get("ho_hom", ()))


def _check_name(args, kwargs):
    return kwargs["name"] if "name" in kwargs else args[1]


# probe name -> (kind, function of the call's arguments). "amount" adds the
# value to <span>.cells; "cache" counts a call as a miss when the cache grew
# across it; "label" appends the value to the span name.
PROBES: Dict[str, Tuple[str, Callable]] = {
    "cells": ("amount", _cells),
    "hom_cache": ("cache", _hom_cache_size),
    "replacement_cache": ("cache", _replacement_cache_size),
    "ho_hom_cache": ("cache", _ho_hom_cache_size),
    "check_name": ("label", _check_name),
}

TARGETS: Tuple[Target, ...] = (
    Target("exact_linalg", "rref", "Matrix.rref", "cells"),
    Target("exact_linalg", "kernel", "Matrix.kernel"),
    Target("exact_linalg", "rowspan_add", "RowSpan.add"),
    Target("exact_linalg", "matmul", "Matrix.__matmul__"),
    Target("algebra_repr", "hom_basis", "hom_basis", "hom_cache"),
    Target("algebra_repr", "morphism_new", "Morphism.__init__"),
    Target("algebra_repr", "kernel_cokernel", "kernel"),
    Target("algebra_repr", "kernel_cokernel", "cokernel"),
    Target("algebra_repr", "sum_pushout_pullback", "direct_sum"),
    Target("algebra_repr", "sum_pushout_pullback", "pushout"),
    Target("algebra_repr", "sum_pushout_pullback", "pullback"),
    Target("algebra_repr", "enumerate_submodules", "enumerate_submodules"),
    Target("homological", "cover_envelope", "projective_cover"),
    Target("homological", "cover_envelope", "injective_envelope"),
    Target("homological", "factors_through_add", "factors_through_add"),
    Target("homological", "stable_hom", "stable_hom"),
    Target("homological", "ext1", "ext1_dim"),
    Target("homological", "ext1", "ext1_dim_via_copresentation"),
    Target("rigid_model", "build_context", "build_context"),
    Target("rigid_model", "cofibrant_replacement", "cofibrant_replacement",
           "replacement_cache"),
    Target("rigid_model", "predicates", "is_weak_equivalence"),
    Target("rigid_model", "predicates", "is_fibration"),
    Target("rigid_model", "predicates", "is_trivial_fibration"),
    Target("rigid_model", "predicates", "is_cofibrant"),
    Target("rigid_model", "predicates", "are_homotopic"),
    Target("rigid_model", "factorize", "factorize1"),
    Target("rigid_model", "factorize", "factorize2"),
    Target("localization", "ho_hom", "ho_hom", "ho_hom_cache"),
    Target("localization", "G", "G_object"),
    Target("localization", "G", "G_morphism"),
    Target("localization", "dl_verify", "dl_verify"),
    Target("axiom_suite", "rlp_holds", "rlp_holds"),
    Target("axiom_suite", "check", "run_check", "check_name"),
)


def groups(targets=TARGETS) -> List[str]:
    """Span group names in target order, each once."""
    return list(dict.fromkeys(f"{t.layer}.{t.group}" for t in targets))


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


@dataclass
class Tracer:
    """Context manager recording one span per call of each target."""

    targets: Tuple[Target, ...] = TARGETS
    names: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    _name_ids: Dict[str, int] = field(default_factory=dict)
    _patches: List[_Patch] = field(default_factory=list)

    def __post_init__(self):
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, fn, span: str, probe: Optional[str]):
        stack, names, parents = self._stack, self.span_name, self.parent
        starts, ends, counters = self.start, self.end, self.counters
        clock = time.perf_counter
        fixed_id = self._name_id(span)
        kind, measure = PROBES[probe] if probe else (None, None)
        if kind == "amount":
            counters.setdefault(f"{span}.cells", 0)
        if kind == "cache":
            counters.setdefault(f"{span}.misses", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id = fixed_id
            before = None
            if kind == "label":
                name_id = self._name_id(f"{span}.{measure(args, kwargs)}")
            elif kind == "amount":
                counters[f"{span}.cells"] += measure(args, kwargs)
            elif kind == "cache":
                before = measure(args, kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if kind == "cache" and measure(args, kwargs) > before:
                    counters[f"{span}.misses"] += 1

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append(_Patch(owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "frobcat" or n.startswith("frobcat.")) and m is not None]
        swaps: Dict[int, Tuple[object, object]] = {}
        try:
            for t in self.targets:
                module = sys.modules[f"frobcat.{t.layer}"]
                span = f"{t.layer}.{t.group}"
                if "." in t.attr:
                    cls_name, meth = t.attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(original, span, t.probe))
                else:
                    original = getattr(module, t.attr)
                    swaps[id(original)] = (original, self._wrap(original, span, t.probe))
            self._rebind(modules, swaps)
        except BaseException:
            self._restore()
            raise
        return self

    def _rebind(self, modules, swaps) -> None:
        """Rebind every module and class attribute that holds a wrapped
        function, and the method defaults that hold one (the dataclass
        PredicateSet keeps its predicates in __init__.__defaults__)."""
        def swap(value):
            hit = swaps.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module in modules:
            for attr, value in list(vars(module).items()):
                new = swap(value)
                if new is not None:
                    self._set(module, attr, new)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        cnew = swap(cvalue)
                        if cnew is not None:
                            self._set(value, cattr, cnew)
                            continue
                        defaults = getattr(cvalue, "__defaults__", None)
                        if defaults and any(swap(d) for d in defaults):
                            self._set(cvalue, "__defaults__",
                                      tuple(swap(d) or d for d in defaults))

    def _restore(self) -> None:
        while self._patches:
            self._patches.pop().restore()

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total time and self time (total minus
        the time covered by direct child spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
