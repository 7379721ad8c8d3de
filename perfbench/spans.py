"""Spans around the public calls of hawkmass, wrapped from outside.

The traced callables are the public functions (no leading underscore)
defined in ``warp``, ``sphere``, ``graph``, ``variation`` and ``sweeps``,
plus the methods in METHODS.  The tracer replaces each one at every
name it is bound to: the defining module, the ``hawkmass`` package and
every module that imported it by name (``sweeps`` holds its own
``hawking_mass_deficit``, ``sobolev_norms`` and ``get_grid``).  Methods
are wrapped on their class.
``install`` and ``uninstall`` swap the wrappers in and out, so untraced
rounds run the program's own functions with no added call.

Each wrapper records, per span name, the call count, the total time and
the self time: its duration minus the time of the traced calls it made.
Spans are aggregated in memory, not stored one by one.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types

TRACED_MODULES = ("warp", "sphere", "graph", "variation", "sweeps")

# public functions whose span name is not "<module>.<function>"
RENAMED = {("warp", "solve_warp_factor"): "warp.solve"}

# the module-level ``sphere.analyze`` and ``sphere.synthesize`` are one-line
# wrappers over the SphereGrid methods below, whose spans count their calls
SKIPPED = {("sphere", "analyze"), ("sphere", "synthesize")}

METHODS = (
    ("warp", "WarpFactor", "__init__", "warp.factor_build"),
    ("warp", "WarpFactor", "evaluate", "warp.evaluate"),
    ("warp", "WarpFactor", "taylor_patch", "warp.taylor_patch"),
    ("sphere", "SphereGrid", "__init__", "sphere.grid_build"),
    ("sphere", "SphereGrid", "synthesize", "sphere.synthesize"),
    ("sphere", "SphereGrid", "synthesize_jet", "sphere.synthesize_jet"),
    ("sphere", "SphereGrid", "analyze", "sphere.analyze"),
    ("sphere", "SphereGrid", "basis_matrix", "sphere.basis_matrix"),
)


class Tracer:
    """Aggregated spans over the hawkmass modules loaded in this process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.patch_keys: set = set()
        self.grid_hits = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sites = self._binding_sites()

    # -- wrapping ------------------------------------------------------------

    def _binding_sites(self):
        """(namespace, attribute, original, wrapper) for every binding."""
        package = sys.modules["hawkmass"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hawkmass" or n.startswith("hawkmass."))]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and (short, attr) not in SKIPPED):
                    name = RENAMED.get((short, attr), f"{short}.{attr}")
                    wrappers[fn] = self._wrap(name, fn)
        sites = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    sites.append((mod, attr, value, wrappers[value]))
        for short, cls_name, attr, name in METHODS:
            cls = getattr(getattr(package, short), cls_name)
            fn = cls.__dict__[attr]
            sites.append((cls, attr, fn, self._wrap(name, fn)))
        return sites

    def _wrap(self, name, fn):
        for table in (self.calls, self.total_s, self.self_s):
            table.setdefault(name, 0)
        clock = time.perf_counter
        local = self._local
        lock = self._lock
        before = after = None
        if name == "warp.taylor_patch":
            # a patch is fixed by the profile, the base point and the order
            def before(args, kwargs):
                w = args[0]
                r0 = args[1] if len(args) > 1 else kwargs["r0"]
                order = args[2] if len(args) > 2 else kwargs.get("order")
                self.patch_keys.add((w.a, w.r_max, float(r0), order))
        elif name == "sphere.get_grid":
            def before(args, kwargs):
                return self.calls["sphere.grid_build"]

            def after(builds_before):
                if self.calls["sphere.grid_build"] == builds_before:
                    self.grid_hits += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with lock:
                    self.calls[name] += 1
                    self.total_s[name] += dt
                    self.self_s[name] += dt - child
                    if after is not None:
                        after(token)

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def snapshot(self):
        return dict(self.total_s), dict(self.self_s)

    def scale_since(self, snapshot, factor: float) -> None:
        """Multiply the span time recorded since ``snapshot`` by ``factor``."""
        for table, before in zip((self.total_s, self.self_s), snapshot):
            for name, t0 in before.items():
                table[name] = t0 + factor * (table[name] - t0)

    # -- results -------------------------------------------------------------

    def span_table(self) -> dict:
        """Every span: calls, total and self milliseconds."""
        return {name: {"calls": self.calls[name],
                       "total_ms": 1e3 * self.total_s[name],
                       "self_ms": 1e3 * self.self_s[name]}
                for name in sorted(self.calls)}

    def layer_metrics(self, items: int) -> dict:
        """Per-layer values: counts and self times per item, plus ratios."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name] / items
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / items
        solves = self.calls["warp.solve"]
        out["warp.solve.attempts"] = (self.calls["warp.factor_build"] / solves
                                      if solves else 0.0)
        patches = self.calls["warp.taylor_patch"]
        out["warp.taylor_patch.distinct_ratio"] = (len(self.patch_keys) / patches
                                                   if patches else 0.0)
        grids = self.calls["sphere.get_grid"]
        out["sphere.get_grid.hit_ratio"] = self.grid_hits / grids if grids else 0.0
        return out
