"""Spans and counters around dyckmotz's layers, for the traced run only.

install() wraps the package's functions where the consuming modules
look them up (verifier.phi, bijection.is_constrained, genfun.
enumerate_constrained, series._div, ...) and a few methods on the
classes themselves, then returns the Tracer that collects them.

A span is one call: its name, its duration and the span open when it
started. Spans are aggregated in memory as they close, per name (calls,
inclusive time, self time) and per (parent, name) edge, because a
campaign makes about a million of them. A generator's span is one
next() call, so time the consumer spends between items is not charged
to enumeration. A hook whose target no longer exists is skipped and
listed under "unhooked", and its metrics read 0.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, time covered by child spans]
        self.spans = {}  # name -> [calls, inclusive s, self s]
        self.edges = {}  # (parent, name) -> [calls, inclusive s]
        self.counts = Counter()
        self.passes = set()  # distinct (family, n) enumerated
        self.unhooked = []

    def timed(self, name, fn, failures=None):
        """fn wrapped in a span; exceptions raised count under `failures`."""
        stack, spans, edges, counts = self.stack, self.spans, self.edges, self.counts
        spans.setdefault(name, [0, 0.0, 0.0])

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if failures:
                    counts[failures] += 1
                raise
            finally:
                took = _clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                record = spans[name]
                record[0] += 1
                record[1] += took
                record[2] += took - frame[1]
                edge = edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += took
                if parent:
                    parent[1] += took
        return span

    def counted(self, name, fn):
        counts = self.counts

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return count

    def enumeration(self, family, fn):
        """A family generator whose every next() is an enumeration span."""
        counts, passes = self.counts, self.passes

        def walk(n, *args, **kwargs):
            counts["enumeration.passes"] += 1
            passes.add((family, n))
            return self._items(fn(n, *args, **kwargs))
        return walk

    def _items(self, it):
        step = self.timed("enumeration.next", it.__next__)
        counts = self.counts
        while True:
            try:
                item = step()
            except StopIteration:
                return
            counts["enumeration.paths"] += 1
            yield item

    def report(self) -> dict:
        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        def inclusive_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        hits = misses = entries = 0
        cached = getattr(sys.modules.get("dyckmotz.bijection"), "_phi", None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            hits, misses, entries = info.hits, info.misses, info.currsize
        profile_counts = c["patterns.profile_counts"]
        metrics = {
            "paths.constructed": c["paths.constructed"],
            "paths.is_constrained_calls": calls("paths.is_constrained"),
            "paths.is_constrained_s": self_s("paths.is_constrained"),
            "paths.last_arch_calls": calls("paths.last_arch"),
            "paths.last_arch_s": self_s("paths.last_arch"),
            "enumeration.passes": c["enumeration.passes"],
            "enumeration.useful_pass_ratio": ratio(len(self.passes), c["enumeration.passes"]),
            "enumeration.paths": c["enumeration.paths"],
            "enumeration.busy_s": self_s("enumeration.next"),
            "bijection.phi_calls": calls("bijection.phi"),
            "bijection.phi_s": self_s("bijection.phi"),
            "bijection.phi_inverse_calls": calls("bijection.phi_inverse"),
            "bijection.phi_inverse_s": self_s("bijection.phi_inverse"),
            "bijection.check_bijectivity_s": self_s("bijection.check_bijectivity"),
            "bijection.phi_cache_entries": entries,
            "bijection.phi_cache_hit_ratio": ratio(hits, hits + misses),
            "bijection.failed": c["bijection.failed"],
            "patterns.profiles": calls("patterns.profile"),
            "patterns.profile_s": self_s("patterns.profile"),
            "patterns.evaluate_calls": calls("patterns.evaluate"),
            "patterns.evaluate_s": self_s("patterns.evaluate"),
            "patterns.generic_counts": c["patterns.generic_counts"],
            "patterns.profile_answer_ratio": ratio(
                profile_counts - c["patterns.generic_counts"], profile_counts),
            "series.mul_calls": calls("series.mul"),
            "series.mul_s": self_s("series.mul"),
            "series.div_calls": calls("series.div"),
            "series.div_s": self_s("series.div"),
            "series.sqrt_calls": calls("series.sqrt"),
            "series.sqrt_s": self_s("series.sqrt"),
            "genfun.closed_s": inclusive_s("genfun.closed"),
            "genfun.fixed_s": inclusive_s("genfun.fixed"),
            "genfun.brute_s": inclusive_s("genfun.brute"),
            "genfun.popularity_s": inclusive_s("genfun.popularity"),
            "genfun.fixed_point_passes": c["genfun.fixed_point_passes"],
            "verifier.checks": c["verifier.checks"],
            "verifier.self_s": self_s("verifier.run_full_verification"),
        }
        return {
            "metrics": metrics,
            "spans": {name: {"calls": r[0], "inclusive_s": r[1], "self_s": r[2]}
                      for name, r in sorted(self.spans.items())},
            "edges": [{"parent": parent, "name": name, "calls": r[0], "inclusive_s": r[1]}
                      for (parent, name), r in sorted(self.edges.items())],
            "unhooked": self.unhooked,
        }


def _replace(target, wrapper, skip=()):
    """Point every dyckmotz module name bound to `target` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "dyckmotz" or mod_name in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)


def install() -> Tracer:
    t = Tracer()
    for name in ("paths", "enumeration", "bijection", "patterns", "series",
                 "genfun", "verifier", "cli"):
        try:
            importlib.import_module(f"dyckmotz.{name}")
        except ModuleNotFoundError:
            t.unhooked.append(name)
    mods = sys.modules

    def find(module, attr):
        target = getattr(mods.get(f"dyckmotz.{module}"), attr, None)
        if target is None:
            t.unhooked.append(f"{module}.{attr}")
        return target

    def function(module, attr, make, skip=()):
        target = find(module, attr)
        if target is not None:
            _replace(target, make(target), skip)

    def method(module, cls, attr, make, wrap=lambda f: f):
        klass = find(module, cls)
        target = getattr(klass, attr, None) if klass is not None else None
        if target is None:
            if klass is not None:
                t.unhooked.append(f"{module}.{cls}.{attr}")
            return
        setattr(klass, attr, wrap(make(target)))

    def span(name, failures=None):
        return lambda fn: t.timed(name, fn, failures)

    def count_checks(fn):
        def run(*args, **kwargs):
            report = fn(*args, **kwargs)
            t.counts["verifier.checks"] += len(report["checks"])
            return report
        return t.timed("verifier.run_full_verification", run)

    def count_passes(fn):
        # the first right-hand side is evaluated once per pass
        def solve(N, rhs, *more):
            return fn(N, t.counted("genfun.fixed_point_passes", rhs), *more)
        return solve

    method("paths", "LatticePath", "__new__",
           lambda f: t.counted("paths.constructed", f), staticmethod)
    # is_constrained recurses through its own module's name: hook callers only
    function("paths", "is_constrained", span("paths.is_constrained"),
             skip=("dyckmotz.paths",))
    function("paths", "last_arch_decompose", span("paths.last_arch"))
    for family in ("constrained", "dyck", "motzkin"):
        function("enumeration", f"enumerate_{family}",
                 lambda f, family=family: t.enumeration(family, f))
    function("bijection", "phi", span("bijection.phi", "bijection.failed"))
    function("bijection", "phi_inverse", span("bijection.phi_inverse", "bijection.failed"))
    function("bijection", "check_bijectivity", span("bijection.check_bijectivity"))
    method("patterns", "PathProfile", "__init__", span("patterns.profile"))
    method("patterns", "PathProfile", "count",
           lambda f: t.counted("patterns.profile_counts", f))
    function("patterns", "evaluate_statistic", span("patterns.evaluate"))
    function("patterns", "count_occurrences",
             lambda f: t.counted("patterns.generic_counts", f))
    method("series", "TruncatedSeries", "__mul__", span("series.mul"))
    ring = find("series", "TruncatedSeries")
    if ring is not None:
        ring.__rmul__ = ring.__mul__
    method("series", "TruncatedSeries", "sqrt_unit", span("series.sqrt"))
    function("series", "_div", span("series.div"))
    function("genfun", "distribution_gf_closed", span("genfun.closed"))
    function("genfun", "distribution_gf_fixed_point", span("genfun.fixed"))
    function("genfun", "distribution_brute_force", span("genfun.brute"))
    function("genfun", "popularity_gf", span("genfun.popularity"))
    function("genfun", "_fp_single", count_passes)
    function("genfun", "_fp_pair", count_passes)
    function("verifier", "run_full_verification", count_checks)
    function("cli", "main", span("cli.main"))
    return t
