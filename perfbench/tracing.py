"""Spans for the traced run, recorded from outside the program.

The child process calls :meth:`Tracer.install` before it runs a command. That
replaces each public function of the six layer modules with a wrapper that
records a span (name, start, end, parent), in the defining module and in every
module namespace that imported the function (``strings.divisors``,
``oracle.apply``, ``cli.dihedral_orbit`` and so on). Spans stay in memory and
are exported once, when the command ends; the run attaches the command id.

Each wrapper spends some time outside the span it records (the call into the
wrapper, bookkeeping before the start and after the end) and some inside it
(forwarding the arguments). Without a correction that time would count as
the caller's and the callee's own. :meth:`Tracer.calibrate` measures both
parts on a wrapped no-op in the same process, and :func:`self_times`
subtracts them.

The rest of this module is the analysis the run applies to exported spans.
"""

from __future__ import annotations

import base64
import functools
import importlib
import inspect
import resource
import statistics
import time
from array import array
from collections import defaultdict

LAYERS = ("formulas", "strings", "oracle", "bijections", "verify", "cli")

# Leaf helpers called inside the hottest loops (564k binomial calls for
# `table lambda-v --max 1500`). A span each would multiply the tracing
# overhead; their time stays in the caller's self time, which for binomial is
# the reflective sum inside lambda_vertex_orbit_total.
UNWRAPPED = frozenset(
    {"formulas.binomial", "strings.is_fibonacci", "strings.is_lucas", "strings.rotate"}
)


def _key(args, kwargs, result):
    return {"key": repr((args, sorted(kwargs.items())))}


def _build(args, kwargs, graph):
    return {**_key(args, kwargs, graph), "vertices": len(graph.vertices), "edges": len(graph.edges)}


# Counts taken at the boundary where the work happens, from arguments and results.
DESCRIBE = {
    "formulas.lucas_string_classes": _key,
    "oracle.build": _build,
    "oracle.edge_orbits": lambda args, kwargs, partition: {"orbits": len(partition.orbits)},
    "strings.enumerate_strings": lambda args, kwargs, items: {"items": len(items)},
    "verify.run_suite": lambda args, kwargs, result: {"checks": len(result[2])},
}

# Spans that also record how much the process's peak RSS grew during the call.
RSS_SPANS = frozenset({"oracle.build"})


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span store for one command's process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records one span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        start, end, stack, attrs = self.start, self.end, self._stack, self.attrs
        describe = DESCRIBE.get(name)
        rss = name in RSS_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            add_name(name_id)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(sid)
            before = _maxrss_kb() if rss else 0
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if describe is not None:
                attrs[sid] = describe(args, kwargs, result)
            if rss:
                attrs.setdefault(sid, {})["rss_growth_kb"] = _maxrss_kb() - before
            return result

        return traced

    @staticmethod
    def calibrate(calls: int = 5000, repeats: int = 5) -> dict:
        """Per-span wrapper cost in this process, in seconds: ``inside`` the
        recorded span and ``outside`` it (charged to the caller).

        Times ``calls`` calls of an empty loop, of a bare two-argument no-op
        and of the no-op wrapped as :meth:`wrap` wraps a layer function
        without counts; the median of ``repeats`` rounds is taken. The extra
        cost of the counted spans (``DESCRIBE``, ``RSS_SPANS``) is not included.
        """

        def noop(a, b):
            return None

        clock = time.perf_counter
        inside, outside = [], []
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe.wrap("probe", noop)
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                noop(1, 2)
            t2 = clock()
            for _ in range(calls):
                wrapped(1, 2)
            t3 = clock()
            loop, bare = (t1 - t0) / calls, (t2 - t1 - (t1 - t0)) / calls
            spans = sum(e - s for s, e in zip(probe.start, probe.end)) / calls
            inside.append(spans - bare)
            outside.append((t3 - t2) / calls - loop - spans)
        return {"inside": statistics.median(inside), "outside": statistics.median(outside)}

    def install(self) -> None:
        """Wrap every public layer function wherever the package refers to it."""
        package = importlib.import_module("cube_orbits")
        modules = [importlib.import_module(f"cube_orbits.{layer}") for layer in LAYERS]
        wrapped: dict[int, tuple] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(name, obj))
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def export(self, origin: float) -> dict:
        """Spans as base64-coded columns (see :func:`decode`); times are
        ``time.perf_counter`` readings and ``origin`` is the one taken when
        ``cli.main`` was called. ``wrapper`` is :meth:`calibrate`'s result."""
        return {
            "origin": origin,
            "wrapper": self.calibrate(),
            "names": self.names,
            "count": len(self.start),
            **{col: base64.b64encode(getattr(self, col).tobytes()).decode("ascii") for col in COLUMNS},
            "attrs": {str(sid): a for sid, a in self.attrs.items()},
        }


COLUMNS = {"name": "i", "parent": "i", "start": "d", "end": "d"}


def decode(trace: dict) -> dict:
    """Exported spans with each column back as an array, times relative to ``origin``."""
    out = dict(trace)
    for col, typecode in COLUMNS.items():
        column = array(typecode)
        column.frombytes(base64.b64decode(trace[col]))
        out[col] = column
    origin = trace["origin"]
    out["start"] = [t - origin for t in out["start"]]
    out["end"] = [t - origin for t in out["end"]]
    return out


def self_times(parent, start, end, inside: float = 0.0, outside: float = 0.0) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread and a call stack, so children nest inside
    their parent and never overlap each other. ``inside`` and ``outside``
    are the wrapper's cost per span (see :meth:`Tracer.calibrate`): each span
    loses ``inside``, and its parent loses ``outside`` for each child.
    """
    own = [e - s - inside for s, e in zip(start, end)]
    for sid, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[sid] - start[sid] + outside
    return own


def summarize(trace: dict) -> dict[str, dict]:
    """Per span name for one command: calls, self_s, distinct keys, summed counts.

    ``trace`` has plain columns, as :func:`decode` returns them. ``self_s``
    is corrected for the wrapper cost that ``trace["wrapper"]`` gives, and
    ``wrapper_s`` is what the correction took off the spans of that name.
    """
    cost = trace.get("wrapper", {"inside": 0.0, "outside": 0.0})
    name_of, parent = trace["name"], trace["parent"]
    own = self_times(parent, trace["start"], trace["end"], cost["inside"], cost["outside"])
    names = trace["names"]
    calls = [0] * len(names)
    children = [0] * len(names)
    self_s = [0.0] * len(names)
    for sid, name_id in enumerate(name_of):
        calls[name_id] += 1
        self_s[name_id] += own[sid]
        if parent[sid] >= 0:
            children[name_of[parent[sid]]] += 1
    stats = {
        name: {
            "calls": calls[i],
            "self_s": self_s[i],
            "wrapper_s": calls[i] * cost["inside"] + children[i] * cost["outside"],
        }
        for i, name in enumerate(names)
        if calls[i]
    }
    keys: dict[str, set] = defaultdict(set)
    for sid, fields in trace["attrs"].items():
        name = names[trace["name"][int(sid)]]
        for field, value in fields.items():
            if field == "key":
                keys[name].add(value)
            else:
                stats[name][field] = stats[name].get(field, 0) + value
    for name, seen in keys.items():
        stats[name]["distinct"] = len(seen)
    return stats
