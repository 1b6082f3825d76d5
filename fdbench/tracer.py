"""Span tracer for one fockdual CLI process, installed from outside the package.

The tracer replaces the module attributes through which fockdual's own
callers reach each layer (``from .fenchel import truncated_sup`` makes
``laplace.truncated_sup`` a separate alias, ``run_all`` dispatches through
``cli._COMMANDS``) with wrappers that open and close spans. Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1); spans stay in memory until ``export``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs wrapped with a span. Every entry is called on each
# workload that runs the `all` command; duality.laplace_integral and
# duality.scale_fn are imported too but only used by
# monomial_orthogonality_check, which no CLI suite calls, so they are left out.
SPAN_ALIASES = {
    "scan.conjugate_lines": [("fenchel", "conjugate_lines")],
    "fenchel.truncated_sup": [
        ("fenchel", "truncated_sup"), ("laplace", "truncated_sup"),
        ("moments", "truncated_sup"), ("duality", "truncated_sup"),
    ],
    "fenchel.conjugate_nd": [("fenchel", "conjugate_nd")],
    "fenchel.numeric_dual_weight": [("fenchel", "numeric_dual_weight")],
    "laplace.laplace_integral": [("laplace", "laplace_integral"),
                                 ("moments", "laplace_integral")],
    "laplace.sublevel_volume": [("laplace", "sublevel_volume"),
                                ("moments", "sublevel_volume"),
                                ("duality", "sublevel_volume")],
    "moments.moment_table": [("moments", "moment_table")],
    "duality.k_condition_scan": [("duality", "k_condition_scan")],
    "duality.isomorphism_bound_check": [("duality", "isomorphism_bound_check")],
}

# Factories of the GridFn objectives that reach truncated_sup; wrapped without a
# span to tag each GridFn with a value key and to count objective evaluations.
FACTORY_ALIASES = {
    "log_image": [("fenchel", "log_image"), ("moments", "log_image"),
                  ("duality", "log_image")],
    "symmetrized_fn": [("fenchel", "symmetrized_fn")],
    "scale_fn": [("moments", "scale_fn")],
}

SUITES = ("conjugate", "identities", "sandwich", "moments", "duality")

_KEY_ATTR = "_fdbench_key"


class TraceError(RuntimeError):
    """The trace cannot be trusted: an alias moved or a GridFn escaped tagging."""


def _weight_key(w) -> tuple:
    """A weight by value: its terms define it (fock:2 and its structural dual
    fock:2* are one function); weights without terms are known by label."""
    return (w.n, w.terms if w.terms is not None else w.label)


class Tracer:
    """Records spans and counters for one process; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.sup_keys: set = set()
        self.reached: set = set()
        self._stack: list = []
        self._patches: list = []  # (owner, key, original, is_dict)
        self._in_eval = False

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, before=None, after=None, alias=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` and ``after(result)``
        hook the counters."""

        def wrapper(*args, **kwargs):
            if alias is not None:
                self.reached.add(alias)
            if before is not None:
                before(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return after(result) if after is not None else result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span (not tied to a module alias)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- counters -----------------------------------------------------------

    def _count_scan(self, args, kwargs) -> None:
        y, vals, x = args[:3]
        rows = np.shape(vals)[0] if np.ndim(vals) == 2 else 1
        self.counts["scan.conjugate_lines.work"] += int(rows * (np.size(y) + np.size(x)))

    def _sup_key(self, bound) -> None:
        fn = bound.arguments["fn"]
        key = getattr(fn, _KEY_ATTR, None)
        if key is None:
            raise TraceError("truncated_sup reached with an untagged GridFn; "
                             "a GridFn factory is missing from FACTORY_ALIASES")
        y = tuple(float(v) for v in np.atleast_1d(bound.arguments["y"]))
        self.sup_keys.add((key, y, bound.arguments["cfg"], bound.arguments["floor"]))

    def _counted(self, f):
        """Count the objective values ``f`` returns against the open span."""

        def g(*args, **kwargs):
            if self._in_eval:  # an outer GridFn already counts this evaluation
                return f(*args, **kwargs)
            self._in_eval = True
            try:
                out = f(*args, **kwargs)
            finally:
                self._in_eval = False
            if self._stack:
                self.counts[self.spans[self._stack[-1]][0] + ".points"] += int(np.size(out))
            return out

        return g

    def _tag(self, fn, key: tuple):
        setattr(fn, _KEY_ATTR, key)
        fn.at = self._counted(fn.at)
        fn.on_axes = self._counted(fn.on_axes)
        if fn.axis_profiles is not None:
            fn.axis_profiles = tuple(self._counted(p) for p in fn.axis_profiles)
        return fn

    def _factory(self, kind: str, original, alias: str):
        def wrapper(*args, **kwargs):
            self.reached.add(alias)
            fn = original(*args, **kwargs)
            if kind == "scale_fn":
                inner = args[0] if args else kwargs["fn"]
                c = args[1] if len(args) > 1 else kwargs["c"]
                inner_key = getattr(inner, _KEY_ATTR, None)
                if inner_key is None:
                    raise TraceError("scale_fn applied to an untagged GridFn")
                key = ("scale", inner_key, float(c))
            else:
                w = args[0] if args else kwargs["w"]
                key = (kind, _weight_key(w))
            return self._tag(fn, key)

        wrapper.__wrapped__ = original
        return wrapper

    def _numeric_dual(self, w):
        wrap = lambda f: None if f is None else self.span("fenchel.numeric_dual", f)  # noqa: E731
        return dataclasses.replace(
            w, eval=wrap(w.eval), grid_eval=wrap(w.grid_eval),
            separable_profile=wrap(w.separable_profile),
        )

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, key, new, original, is_dict=False) -> None:
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._patches.append((owner, key, original, is_dict))

    def aliases(self) -> list:
        """Every alias name the tracer wraps, as reported in ``reached``."""
        names = [f"{m}.{a}" for group in (SPAN_ALIASES, FACTORY_ALIASES)
                 for pairs in group.values() for m, a in pairs]
        return names + [f"cli._COMMANDS[{s}]" for s in SUITES]

    def install(self) -> None:
        mods = {m: importlib.import_module(f"fockdual.{m}")
                for m in ("_scan", "fenchel", "laplace", "moments", "duality", "cli")}

        def original(name: str):
            layer, func = name.split(".")
            return getattr(mods["_scan" if layer == "scan" else layer], func)

        sup_sig = inspect.signature(original("fenchel.truncated_sup"))

        def sup_before(args, kwargs):
            bound = sup_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._sup_key(bound)

        hooks = {
            "scan.conjugate_lines": (self._count_scan, None),
            "fenchel.truncated_sup": (sup_before, None),
            "fenchel.numeric_dual_weight": (None, self._numeric_dual),
        }
        try:
            for name, pairs in SPAN_ALIASES.items():
                fn = original(name)
                before, after = hooks.get(name, (None, None))
                for m, attr in pairs:
                    self._check_alias(mods[m], attr, fn)
                    self._patch(mods[m], attr,
                                self.span(name, fn, before, after, f"{m}.{attr}"), fn)
            for kind, pairs in FACTORY_ALIASES.items():
                fn = original(f"fenchel.{kind}")
                for m, attr in pairs:
                    self._check_alias(mods[m], attr, fn)
                    self._patch(mods[m], attr, self._factory(kind, fn, f"{m}.{attr}"), fn)
            commands = mods["cli"]._COMMANDS
            for suite in SUITES:
                fn = commands[suite]
                self._patch(commands, suite,
                            self.span(f"cli.{suite}", fn, alias=f"cli._COMMANDS[{suite}]"),
                            fn, is_dict=True)
        except BaseException:
            self.uninstall()
            raise

    @staticmethod
    def _check_alias(module, attr: str, original) -> None:
        current = getattr(module, attr, None)
        if current is not original:
            raise TraceError(
                f"{module.__name__}.{attr} is not the function the tracer wraps; "
                "update fdbench/tracer.py")

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def export(self) -> dict:
        return {
            "run": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "sup_distinct": len(self.sup_keys),
            "reached": sorted(self.reached),
            "aliases": self.aliases(),
        }


def span_totals(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    spans of one thread nest, so the children's intervals do not overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict = {}
    for s, covered in zip(spans, child_time):
        t = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - covered
    return out
