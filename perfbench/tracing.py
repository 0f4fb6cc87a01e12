"""Spans around the benchmark's calls into finmeas, and cProfile grouping.

Every library call a workload makes goes through `tracer.call(name, fn,
*args)`, inside one "request" span per request. `Untraced.call` only
forwards, so end-to-end runs pay one extra Python call per library call
and per request, and nothing else. `Spans` records
(span id, request id, name, start, end, parent) in memory; the rows are
written out once, after the run.
"""

import json
import os
import pstats
from time import perf_counter

LAYERS = ("scalars", "dist", "strength", "pairing", "line", "probability",
          "quantities", "jsonio", "cli", "laws")


class Untraced:
    request = None

    def call(self, name, fn, *args):
        return fn(*args)


class Spans:
    def __init__(self):
        self.rows = []
        self._stack = []
        self.request = None

    def call(self, name, fn, *args):
        sid = len(self.rows)
        self.rows.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.rows[sid] = (sid, self.request, name, start, end, parent)

    def totals(self):
        """Summed duration per span name."""
        out = {}
        for sid, req, name, start, end, parent in self.rows:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write(self, path, meta):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "request", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.rows}, fh)


def layer_of(filename, package_dir, fractions_file):
    if filename == fractions_file:
        return "fractions"
    if os.path.dirname(filename) == package_dir:
        name = os.path.splitext(os.path.basename(filename))[0]
        if name in LAYERS:
            return name
    return None


def profile_metrics(stats):
    """Per-layer self time and call counts from a pstats.Stats of finmeas.

    `.self_s` is tottime summed over the functions a module defines;
    `.calls` is their total call count, recursive calls included.
    `dist.isinstance_calls` counts only the isinstance calls made from
    dist.py.
    """
    import fractions

    import finmeas
    from finmeas.dist import Dist

    package_dir = os.path.dirname(os.path.abspath(finmeas.__file__))
    fractions_file = os.path.abspath(fractions.__file__)
    dist_init_line = Dist.__init__.__code__.co_firstlineno
    self_s = dict.fromkeys(LAYERS + ("fractions",), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts = {"scalars.fraction_new_calls": 0, "dist.init_calls": 0,
              "dist.as_point_calls": 0, "dist.point_key_calls": 0,
              "dist.isinstance_calls": 0}
    dist_file = os.path.join(package_dir, "dist.py")
    for (filename, line, func), (cc, nc, tt, ct, callers) in stats.stats.items():
        layer = layer_of(filename, package_dir, fractions_file)
        if layer is not None:
            self_s[layer] += tt
            if layer in calls:
                calls[layer] += nc
        if layer == "fractions" and func == "__new__":
            counts["scalars.fraction_new_calls"] += nc
        elif filename == dist_file:
            if func == "__init__" and line == dist_init_line:
                counts["dist.init_calls"] += nc
            elif func == "as_point":
                counts["dist.as_point_calls"] += nc
            elif func == "point_key":
                counts["dist.point_key_calls"] += nc
        elif filename == "~" and func == "<built-in method builtins.isinstance>":
            counts["dist.isinstance_calls"] += sum(
                c[0] for f, c in callers.items() if f[0] == dist_file)
    out = {f"{k}.self_s": v for k, v in self_s.items()}
    out.update({f"{k}.calls": v for k, v in calls.items()})
    out.update(counts)
    return out


def load_stats(paths):
    stats = pstats.Stats(paths[0])
    for path in paths[1:]:
        stats.add(path)
    return stats
