"""Spans around calls into the workbench's layers, installed from outside.

A span is recorded by replacing a public name at the place where callers
look it up: a module-level function in every package namespace that
holds it (so `weakening.closure_saturate`, imported from `terms`, is
wrapped too), or a method on its class (`EndOperad.compose`). Calls the
benchmark makes itself go through the same module attributes. Nothing
in the package's files changes, and `uninstall` puts every original back.

Spans stay in memory as [name, start_ns, end_ns, parent, task, count]
and are written out after the run.
"""

from __future__ import annotations

import json
import time


def _checked(report) -> int:
    return sum(getattr(report, "checked", {}).values())


# (module, function, count of the result); the span name is module.function
FUNCTIONS = [
    ("finmaps", "block_compose", None),
    ("finmaps", "comb_compose", None),
    ("terms", "closure_saturate", None),
    ("terms", "enumerate_terms", len),
    ("terms", "parse_presentation", None),
    ("trees", "enumerate_trees", len),
    ("trees", "to_tree", None),
    ("clones", "roundtrip_check", _checked),
    ("clones", "clone_roundtrip_check", _checked),
    ("weakcat", "coherence_check", _checked),
    ("weakcat", "load_weakcat", None),
    ("strictify", "strictify", lambda S: len(S.objects)),
    ("strictify", "check_strictness", _checked),
    ("strictify", "check_equivalence", _checked),
    ("strictify", "universal_property_check",
     lambda report: report.checked.get("uniqueness pins", 0)),
    ("cli", "main", None),
]

# (module, class, method, span name from the instance, count of the result)
METHODS = [
    ("operads", "SymmetryOperad", "compose",
     lambda self: f"operads.compose.{self.name}", None),
    ("operads", "CommMonoidFPOperad", "compose",
     lambda self: f"operads.compose.{self.name}", None),
    ("operads", "EndOperad", "compose",
     lambda self: f"operads.compose.{self.name}", None),
    ("operads", "CommMonoidFPOperad", "act_fn",
     lambda self: f"operads.act_fn.{self.name}", None),
    ("operads", "EndOperad", "act_fn",
     lambda self: f"operads.act_fn.{self.name}", None),
    ("operads", "Interpretation", "eval_tree",
     lambda self: "operads.eval_tree", None),
    ("clones", "EndClone", "ccompose",
     lambda self: f"clones.ccompose.end-{self.carrier}", None),
    ("terms", "SaturationResult", "explain",
     lambda self: "terms.explain", None),
    ("weakening", "WeakeningContext", "two_cell",
     lambda self: "weakening.two_cell", None),
    ("weakening", "WeakeningContext", "enumerate_classes",
     lambda self: "weakening.enumerate_classes", len),
    ("weakening", "WeakeningContext", "saturation",
     lambda self: "weakening.saturation", None),
    ("weakcat", "WeakPCategoryData", "derive_delta",
     lambda self: "weakcat.derive_delta", None),
]

FIELDS = ["name", "start_ns", "end_ns", "parent", "task", "count"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name_of, count_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span = [name_of(args), clock(), 0, stack[-1] if stack else -1,
                    tracer.task, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_of is not None:
                span[5] = count_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, ow) -> list[str]:
        """Wrap every boundary that exists in this version of the package;
        returns the boundaries that were not found."""
        missing = []
        namespaces = list(vars(ow).values())
        for module, attr, count_of in FUNCTIONS:
            original = getattr(getattr(ow, module), attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            name = f"{module}.{attr}"
            wrapper = self._wrap(original, lambda args, name=name: name,
                                 count_of)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._undo.append((namespace, key, original))
        for module, cls_name, method, name_of, count_of in METHODS:
            cls = getattr(getattr(ow, module), cls_name, None)
            original = None if cls is None else vars(cls).get(method)
            if original is None:
                missing.append(f"{module}.{cls_name}.{method}")
                continue
            wrapper = self._wrap(original, lambda args, f=name_of: f(args[0]),
                                 count_of)
            setattr(cls, method, wrapper)
            self._undo.append((cls, method, original))
        return missing

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            header = {"fields": FIELDS, "clock": "perf_counter_ns"}
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_stats(spans: list[list]) -> dict:
    """Per span name: calls, total, busy (outermost spans of the name
    only) and self time (minus direct children) in ns, and summed counts."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    stats: dict = {}
    for i, (name, start, end, parent, _task, count) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_ns": 0,
                                        "busy_ns": 0, "self_ns": 0,
                                        "count": 0})
        duration = end - start
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["count"] += count
        entry["self_ns"] += duration - sum(spans[c][2] - spans[c][1]
                                           for c in children[i])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_ns"] += duration
    reuse = [not _has_descendant(spans, children, i, "terms.closure_saturate")
             for i, span in enumerate(spans)
             if span[0] == "weakening.saturation"]
    stats["weakening.saturation"] = dict(
        stats.get("weakening.saturation", {}),
        reuse_ratio=sum(reuse) / len(reuse) if reuse else 0.0)
    return stats


def _has_descendant(spans, children, i, name) -> bool:
    todo = list(children[i])
    while todo:
        j = todo.pop()
        if spans[j][0] == name:
            return True
        todo.extend(children[j])
    return False


_COUNT_STATS = {"objects", "classes", "instances", "pins"}


def layer_metric(name: str, stats: dict, traced_wall_s: float,
                 overhead: float) -> float:
    """The value of one per-layer metric named in BENCHMARK.json."""
    if name == "trace.overhead_frac":
        return overhead
    if name == "terms.universe_terms":
        return float(stats.get("terms.enumerate_terms", {}).get("count", 0))
    span, stat = name.rsplit(".", 1)
    entry = stats.get(span, {})
    calls = entry.get("calls", 0)
    if stat == "calls":
        return float(calls)
    if stat == "busy_s":
        return entry.get("busy_ns", 0) / 1e9
    if stat == "share":
        return entry.get("busy_ns", 0) / 1e9 / traced_wall_s
    if stat == "reuse_ratio":
        return entry.get("reuse_ratio", 0.0)
    if stat in _COUNT_STATS:
        return float(entry.get("count", 0))
    per_call = {"us_per_call": ("total_ns", 1e3),
                "self_us_per_call": ("self_ns", 1e3),
                "self_ms_per_call": ("self_ns", 1e6)}
    if stat in per_call:
        key, scale = per_call[stat]
        return entry.get(key, 0) / scale / calls if calls else 0.0
    raise ValueError(f"no rule for per-layer metric {name!r}")


def layer_table(stats: dict) -> list:
    rows = ["span\tcalls\tbusy_s\tself_s\tus_per_call\tcount"]
    for name in sorted(stats):
        entry = stats[name]
        if "calls" not in entry:
            continue
        rows.append(f"{name}\t{entry['calls']}\t{entry['busy_ns'] / 1e9:.6f}"
                    f"\t{entry['self_ns'] / 1e9:.6f}"
                    f"\t{entry['total_ns'] / 1e3 / entry['calls']:.3f}"
                    f"\t{entry['count']}")
    return rows
