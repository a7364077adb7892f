"""In-memory spans around the public functions of the ncskew modules.

The benchmark measures the package from outside: `instrument` replaces
selected public functions with wrappers that record a span per call.  A
wrapper is bound in every loaded `ncskew` module that holds the original
function, so a name that `classify` imported with `from .ncsym import ...`
is traced as well as the one in its home module.  Spans stay in memory;
`Tracer.dump` writes them out when the pass ends.

Worker processes started by `verify_exhaustive(..., jobs=2)` are forked
copies: whatever they record is lost when they exit, so the work they do is
untraced and shows up as time inside the parent's `classify.verify` span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable

# (module, function, span name).  Span names are "<layer>.<group>"; the
# layer is the part before the first dot.
TRACED = (
    ("diagrams", "connected_diagrams", "diagrams.enumerate"),
    ("sym", "skew_schur", "sym.expand"),
    ("sym", "overlap_partitions_agree", "sym.overlap"),
    ("ncsym", "source_skew_schur", "ncsym.expand"),
    ("ncsym", "act", "ncsym.act"),
    ("ncsym", "to_commutative", "ncsym.commute"),
    ("classify", "verify_exhaustive", "classify.verify"),
    ("classify", "failing_condition", "classify.predicate"),
    ("classify", "expansions_equal", "classify.oracle"),
    ("classify", "same_diagram_verdict", "classify.same_diagram"),
    ("textio", "parse_diagram", "textio.parse"),
    ("textio", "parse_permutation", "textio.parse"),
    ("textio", "parse_partition", "textio.parse"),
    ("textio", "format_nc_expansion", "textio.format"),
    ("textio", "format_sym_expansion", "textio.format"),
    ("textio", "format_permutation", "textio.format"),
    ("textio", "format_parenthesized", "textio.format"),
    ("textio", "machine_lines", "textio.format"),
    ("cli", "main", "cli.main"),
)

# Counters taken from a traced call's result, keyed by span name.
_RESULT_COUNTERS: dict[str, Callable[[Counter, object], None]] = {
    "diagrams.enumerate": lambda c, r: c.update({"diagrams.count": len(r)}),
    "ncsym.expand": lambda c, r: c.update({"ncsym.expand_terms": len(r)}),
    "sym.overlap": lambda c, r: c.update({"sym.overlap_pruned": 0 if r else 1}),
}


class Tracer:
    """Records spans as [name, start, end, parent index, op id, tag]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.tag: str | None = None
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        on_result = _RESULT_COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, self.tag]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w") as out:
            for name, start, end, parent, op, tag in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op, "tag": tag}
                    )
                    + "\n"
                )


def instrument(tracer: Tracer) -> None:
    """Replace every function in TRACED, in each loaded ncskew module that
    holds it, by a wrapper recording spans into tracer."""
    modules = [m for key, m in sys.modules.items() if key == "ncskew" or key.startswith("ncskew.")]
    for module_name, attr, span_name in TRACED:
        original = getattr(sys.modules[f"ncskew.{module_name}"], attr)
        wrapper = tracer.wrap(original, span_name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def summarize(spans: list[list]) -> dict[str, float]:
    """Additive per-span-name and per-layer figures.

    `<name>.s` is the time inside outermost spans of that name (a span
    nested in one of the same name is already covered), `<name>.calls`
    counts those outermost spans, and `<layer>.self_s` sums each span's
    duration minus the time its direct children cover.  `<name>.tag.<tag>.s`
    splits `<name>.s` by the tag the harness set for the operation.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for index, (name, start, end, parent, _op, tag) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        out[f"{name}.s"] += duration
        out[f"{name}.calls"] += 1
        if tag is not None:
            out[f"{name}.tag.{tag}.s"] += duration
    return dict(out)
