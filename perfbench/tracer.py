"""In-memory span tracer installed around the package's public functions.

Each wrapped call records a span (name, start, end, parent span, request
id).  The package imports names with ``from .critical import ...``, so a
function object can be bound in several modules; ``install`` replaces every
binding of each traced function in every loaded ``cuspidal`` module, and
``uninstall`` puts the originals back.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) pairs whose calls become spans.  A dotted attribute
# names a method of a class in that module.
SPANNED = (
    ("cli", "main"),
    ("critical", "trace_critical_points"),
    ("critical", "critical_values"),
    ("critical", "find_cusps"),
    ("critical", "genericity_check"),
    ("critical", "find_nodes"),
    ("critical", "region_census"),
    ("topology", "is_cuspidal"),
    ("topology", "build_topology"),
    ("topology", "compute_aspects"),
    ("topology", "compute_pseudosingularities"),
    ("topology", "compute_reduced_aspects"),
    ("topology", "label_solutions"),
    ("topology", "find_nonsingular_path"),
    ("topology", "verify_path"),
    ("reduction", "solve_ik"),
    ("reduction", "solve_ik_cross_section"),
    ("reduction", "ik_counts"),
    ("reduction", "f_coefficients"),
    ("reduction", "conic_coefficients"),
    ("reduction", "solve_quartic"),
    ("report", "build_report"),
    ("report", "dumps"),
    ("svgplot", "render_workspace"),
)

# Called too often for a span each; only their calls are counted, and their
# time stays in the caller's self time.
COUNTED = (
    ("dh", "forward_kinematics"),
    ("dh", "det_jacobian"),
    ("geometry", "TorusCurveIndex.dist"),
)


def _counters(name, args, result, add):
    """Work counters derived from a traced call's arguments and result."""
    if name == "critical.trace_critical_points":
        add("critical.curve_vertices", sum(len(c) for c in result))
    elif name == "critical.find_cusps":
        add("critical.cusps_found", len(result))
    elif name == "critical.find_nodes":
        add("critical.nodes_found", len(result))
    elif name == "critical.genericity_check":
        add("critical.generic_refused", 0 if result.is_generic else 1)
    elif name == "critical.region_census":
        add("critical.census_audited_pairs", int(result.audited_pairs))
    elif name == "topology.compute_pseudosingularities":
        add("topology.ps_points", int(result.total_points()))
    elif name == "topology.find_nonsingular_path":
        add("topology.paths_found", 0 if result is None else 1)
    elif name == "topology.is_cuspidal":
        add("topology.cross_validation_points", int(result.cross_validation.points_examined))
    elif name == "reduction.ik_counts":
        add("reduction.ik_counts.points", len(args[1]) if hasattr(args[1], "__len__") else 1)
    elif name == "reduction.solve_ik":
        add("reduction.ik_solutions", len(result.solutions))
        add("reduction.ik_flagged_roots", len(result.flagged))


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, request]
        self.counts = defaultdict(int)
        self.request = -1
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def add(self, key, value):
        self.counts[key] += value

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            _counters(name, args, result, self.add)
            return result
        return wrapper

    def _counted(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "cuspidal" or k.startswith("cuspidal."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for modname, attr in table:
                name = f"{modname}.{attr}"
                owner = sys.modules[f"cuspidal.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(owner, attr)
                wrapped = make(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, key, orig))
                            setattr(mod, key, wrapped)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """{name: (calls, self seconds)}; self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0])
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += (t1 - t0) - child[sid]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def calls_under(self, name, ancestor):
        """Spans called `name` that have a span called `ancestor` above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req}) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.sid = -1

    def __enter__(self):
        self.sid = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False
