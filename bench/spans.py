"""Span tracing of the grpd layers, installed from outside the package.

``Tracer.install`` wraps every public function (the names in a module's
``__all__``) of each ``grpd`` module, and the ``suites.suite_*`` functions,
then rebinds every copy of those functions that a ``grpd`` module holds: its
own global, the names other modules imported, and dispatch tables such as
``suites._SUITES``.  Nothing under ``src/`` changes; ``uninstall`` puts the
originals back.

Each call opens a span (name, parent, start, end) kept in memory.  Runs of
consecutive calls of one leaf function under the same parent are folded into
one record with a count, which keeps hot helpers such as ``core.action_mor``
(millions of calls on EG(S5)) from filling memory; calls, self time and
peak growth add up the same either way.  A generator function gets one span per
resumption, so its self time covers only the time spent inside it.

With ``memory=True`` every span also records how far the process's peak
resident memory (``ru_maxrss``) rose while its own code ran, children
excluded; summed over a layer, this splits the growth of ``peak_rss_mb`` by
layer.  The peak never falls, so only the first pass in a process sees the
growth.  tracemalloc would give allocation peaks instead, but it slows the
allocation-heavy table builds some twentyfold, which puts EG(S5) out of reach.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import resource
import types

LAYERS = ("groups", "core", "gamma", "cohomology", "twisted", "colimit",
          "presheaf", "corpus", "suites", "jsonio", "cli")

# the size of each result of these functions is summed: composition entries
# of the groupoids built, morphisms of the fixed-point groupoids
_RESULT_SIZES = {
    "core.build_action_groupoid": lambda g: len(g.comp),
    "gamma.hfp": lambda fp: fp.groupoid.n_morphisms,
}

# record fields
_NAME, _PARENT, _START, _END, _COUNT, _DUR, _CHILD, _GROW, _LEAF = range(9)


def _grpd_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if name == "grpd" or name.startswith("grpd.")]


def _public_functions():
    """{function: "layer.name"} for every function to wrap, keyed by the
    module that defines it."""
    out = {}
    for modname, mod in _grpd_modules():
        names = list(getattr(mod, "__all__", ()))
        if modname == "grpd.suites":
            names += [n for n in vars(mod) if n.startswith("suite_")]
        for n in names:
            f = getattr(mod, n, None)
            if isinstance(f, types.FunctionType) and f.__module__ == modname:
                out[f] = f"{modname[len('grpd.'):]}.{f.__name__}"
    return out


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.records: list[list] = []
        self.sizes = dict.fromkeys(_RESULT_SIZES, 0)
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._t0 = 0.0
        self._hwm = 0

    # -- spans --------------------------------------------------------------

    def _enter(self, i: int) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        if self.memory:
            hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if parent is not None:
                parent[4] += hwm - self._hwm
            self._hwm = hwm
        self.records.append([i, parent[2] if parent is not None else -1,
                             0.0, 0.0, 1, 0.0, 0.0, 0, True])
        ri = len(self.records) - 1
        prev = -1
        if parent is not None:
            parent[5] = True
            prev = parent[7]
            parent[7] = ri
        # frame: name, start, record, child time, own peak-RSS growth (KiB),
        # has children, previous sibling record, last child record
        stack.append([i, time.perf_counter(), ri, 0.0, 0, False, prev, -1])

    def _leave(self) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        i, t0, ri, child, grow, has_children, prev, _ = stack.pop()
        if self.memory:
            hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            grow += hwm - self._hwm
            self._hwm = hwm
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        records = self.records
        if not has_children and prev >= 0:
            r = records[prev]
            if r[_NAME] == i and r[_LEAF] and ri == len(records) - 1:
                # fold into the previous sibling: same leaf, same parent
                records.pop()
                parent[7] = prev
                r[_END] = t1 - self._t0
                r[_COUNT] += 1
                r[_DUR] += dur
                r[_GROW] += grow
                return
        r = records[ri]
        r[_START] = t0 - self._t0
        r[_END] = t1 - self._t0
        r[_DUR] = dur
        r[_CHILD] = child
        r[_GROW] = grow
        r[_LEAF] = not has_children

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, f, qualname: str):
        i = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.yields.append(0)
        enter, leave, calls = self._enter, self._leave, self.calls
        tracer = self

        if inspect.isgeneratorfunction(f):
            def resume(inner):
                while True:
                    enter(i)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    tracer.yields[i] += 1
                    yield item

            def wrapper(*args, **kwargs):
                calls[i] += 1
                return resume(f(*args, **kwargs))
        else:
            size = _RESULT_SIZES.get(qualname)

            def wrapper(*args, **kwargs):
                calls[i] += 1
                enter(i)
                try:
                    result = f(*args, **kwargs)
                finally:
                    leave()
                if size is not None:
                    tracer.sizes[qualname] += size(result)
                return result
        return functools.update_wrapper(wrapper, f)

    def _swap(self, value, wrappers):
        """value with every wrapped function replaced, or None if unchanged."""
        if isinstance(value, types.FunctionType):
            return wrappers.get(value)
        if isinstance(value, dict):
            changed = {k: self._swap(v, wrappers) for k, v in value.items()}
            if not any(v is not None for v in changed.values()):
                return None
            for k, v in changed.items():
                if v is not None:
                    self._restore.append((value, k, value[k]))
                    value[k] = v
            return None
        if isinstance(value, tuple):
            parts = [self._swap(v, wrappers) for v in value]
            if all(p is None for p in parts):
                return None
            return tuple(v if p is None else p for v, p in zip(value, parts))
        return None

    def install(self) -> None:
        wrappers = {f: self._wrap(f, q)
                    for f, q in sorted(_public_functions().items(),
                                       key=lambda kv: kv[1])}
        for _, mod in _grpd_modules():
            for k, v in list(vars(mod).items()):
                new = self._swap(v, wrappers)
                if new is not None:
                    self._restore.append((mod, k, v))
                    setattr(mod, k, new)
        self._t0 = time.perf_counter()
        self._hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def uninstall(self) -> None:
        for target, key, old in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Per-layer and per-function aggregates; ``wall`` is the traced wall time."""
        n = len(self.names)
        self_s = [0.0] * n
        total_s = [0.0] * n
        grow = [0] * n
        spans = [0] * n
        for r in self.records:
            i = r[_NAME]
            self_s[i] += r[_DUR] - r[_CHILD]
            total_s[i] += r[_DUR]
            spans[i] += r[_COUNT]
            grow[i] += r[_GROW]
        index = {q: i for i, q in enumerate(self.names)}
        layers = {}
        for L in LAYERS:
            ids = [i for i, q in enumerate(self.names) if q.split(".")[0] == L]
            s = sum(self_s[i] for i in ids)
            layers[L] = {
                "calls": sum(self.calls[i] for i in ids),
                "self_s": s,
                "share": s / wall if wall > 0 else 0.0,
                "rss_growth_mb": sum(grow[i] for i in ids) / 1024,
            }
        ef = index.get("suites.enumerate_functors")
        vf = index.get("core.validate_functor")
        vf_under_ef = sum(r[_COUNT] for r in self.records
                          if r[_NAME] == vf and r[_PARENT] >= 0
                          and self.records[r[_PARENT]][_NAME] == ef)
        functions = {q: {"calls": self.calls[i], "self_s": self_s[i],
                         "total_s": total_s[i], "spans": spans[i],
                         "rss_growth_mb": grow[i] / 1024}
                     for q, i in index.items() if self.calls[i] or spans[i]}
        return {
            "layers": layers,
            "functions": functions,
            "counters": {
                "core.build_action_groupoid.comp_entries":
                    self.sizes["core.build_action_groupoid"],
                "gamma.hfp.out_morphisms": self.sizes["gamma.hfp"],
                "suites.enumerate_functors.yields": self.yields[ef] if ef is not None else 0,
                "core.validate_functor.calls_under_enumerate_functors": vf_under_ef,
            },
        }

    def write(self, path, wall: float) -> None:
        """Write every span record and the summary, once, as gzipped JSON."""
        doc = {
            "fields": ["name", "parent", "start_s", "end_s", "count", "dur_s",
                       "child_s", "rss_growth_kib", "leaf"],
            "names": self.names,
            "records": self.records,
            "wall_s": wall,
            "summary": self.summary(wall),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
