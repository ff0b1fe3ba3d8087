"""In-memory span tracer for the optbench benchmark, and the arithmetic on its spans.

Recording (inside the traced ``optbench`` process): ``Tracer.install`` wraps
the functions a layer map names, in every loaded ``optbench`` module that
binds them, so a call is traced whichever namespace the caller looks the
function up in. Each call appends one span (name, tag, parent, start, end,
flags) to parallel arrays; ``dump`` writes them once, at exit. A function the
map names but the package no longer defines is recorded as absent instead of
failing the run.

Analysis (in the benchmark process): ``load_spans`` reads a dump,
``self_times`` gives each span's duration minus the part of it its direct
children cover, and ``self_check`` verifies that arithmetic on a small
synthetic span tree.
"""

from __future__ import annotations

import array
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

FLAG_RAISED = 1
FLAG_TRUE = 2        # returned True, e.g. should_prune fired
FLAG_NONFINITE = 4   # raised a NonFinite* error or returned a non-finite loss

_ARRAYS = (("name_id", "H"), ("tag_id", "H"), ("parent", "q"),
           ("start", "d"), ("end", "d"), ("flags", "B"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _suggest_phase(args, kwargs):
    study = _arg(args, kwargs, 0, "study")
    n_startup = getattr(sys.modules.get("optbench.tuning"), "N_STARTUP_TRIALS", 10)
    return "startup" if len(study.trials) < n_startup else "tpe"


# Span name -> tag computed from the call's arguments (model family,
# optimizer kind, metric kind, sampler phase).
TAGGERS = {
    "tasks.loss_and_grad": lambda a, k: _arg(a, k, 3, "spec").model,
    "optimizers.apply_step": lambda a, k: _arg(a, k, 0, "config").kind.value,
    "metrics.evaluate": lambda a, k: _arg(a, k, 0, "spec").metric.value,
    "tuning.suggest": _suggest_phase,
}


def _flags(result, exc) -> int:
    if exc is not None:
        nonfinite = FLAG_NONFINITE if "NonFinite" in type(exc).__name__ else 0
        return FLAG_RAISED | nonfinite
    if result is True:
        return FLAG_TRUE
    if (isinstance(result, tuple) and result and isinstance(result[0], float)
            and not math.isfinite(result[0])):
        return FLAG_NONFINITE
    return 0


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self._tag_index = {"": 0}
        self.arrays = {field: array.array(code) for field, code in _ARRAYS}
        self._stack: list[int] = []
        self.absent: list[str] = []

    def install(self, layer_map: dict, package: str = "optbench") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, entry in layer_map["layers"].items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in entry["functions"]:
                span = f"{layer}.{fname}"
                func = getattr(home, fname, None)
                if not callable(func):
                    self.absent.append(span)
                    continue
                traced = self._wrap(func, span)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, traced)

    def _tag(self, tagger, args, kwargs) -> int:
        try:
            tag = str(tagger(args, kwargs))
        except (AttributeError, IndexError, KeyError, TypeError):
            return 0
        index = self._tag_index.get(tag)
        if index is None:
            index = self._tag_index[tag] = len(self.tags)
            self.tags.append(tag)
        return index

    def _wrap(self, func, span: str):
        name_id = len(self.names)
        self.names.append(span)
        tagger = TAGGERS.get(span)
        a = self.arrays
        names, tags, parents = a["name_id"], a["tag_id"], a["parent"]
        starts, ends, flags = a["start"], a["end"], a["flags"]
        stack, clock, tag = self._stack, time.perf_counter, self._tag

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            tags.append(tag(tagger, args, kwargs) if tagger else 0)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            flags.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                flags[index] = _flags(None, exc)
                raise
            ends[index] = clock()
            stack.pop()
            flags[index] = _flags(result, None)
            return result

        return traced

    def dump(self, path) -> None:
        header = {"names": self.names, "tags": self.tags, "absent": self.absent,
                  "count": len(self.arrays["start"])}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for field, _ in _ARRAYS:
                self.arrays[field].tofile(fh)


@dataclass
class Spans:
    names: list
    tags: list
    absent: list
    name_id: array.array
    tag_id: array.array
    parent: array.array
    start: array.array
    end: array.array
    flags: array.array


def load_spans(path) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in _ARRAYS:
            arrays[field] = array.array(code)
            arrays[field].fromfile(fh, header["count"])
    return Spans(names=header["names"], tags=header["tags"], absent=header["absent"],
                 **arrays)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered, run_start, run_end = 0.0, None, None
        for s, e in sorted((max(starts[i], lo), min(ends[i], hi)) for i in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def self_check() -> None:
    """Raise AssertionError unless ``self_times`` is right on a tree with
    nested, overlapping and overhanging children."""
    #        index:  0 root  1 a    2 b    3 c     4 a.x  5 leaf under c
    starts = [0.0, 1.0, 3.0, 8.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 9.5]
    parents = [-1, 0, 0, 0, 1, 3]
    # root: 10 - |[1,6] U [8,10]| = 3; a: 3 - 1; b: 3; c: 4 - 0.5; a.x: 1; leaf: 0.5
    expected = [3.0, 2.0, 3.0, 3.5, 1.0, 0.5]
    got = self_times(starts, ends, parents)
    if any(not math.isclose(g, e) for g, e in zip(got, expected)):
        raise AssertionError(f"self_times gave {got}, expected {expected}")
