"""Tracing from outside the program: wrappers around adjmon's public
functions that record spans (name, start, end, parent) and counts.

A wrapper replaces the function at its module attribute and at every
same-named binding other adjmon modules imported (``monoid.normalize``,
``confluence.reduction_graph``, ...), so nested calls are seen.  Spans
stay in memory and are written once, at the end of the traced pass.  A
span's self time is its duration minus the time its child spans cover.

``match_rule`` and ``redexes`` run hundreds of thousands of times per
pass; they get a counting wrapper without a span, and their time stays
in their caller's self time.
"""

from __future__ import annotations

import json
import time

import checker

# Functions that get a span, with the work count (if any) read from each
# call's arguments and result.
SPANNED = {
    "words.parse": None,
    "words.render": None,
    "rewrite.normalize": ("steps", lambda args, r: checker.derived_steps(args[0], r)),
    "rewrite.normalize_trace": ("steps", lambda args, r: checker.derived_steps(args[0], r.end)),
    "rewrite.reduction_graph": ("nodes", lambda args, r: len(r.successors)),
    "rewrite.is_normal": None,
    "monoid.element": None,
    "monoid.mul": None,
    "monoid.apply_f": None,
    "monoid.in_N": ("members", lambda args, r: int(r.member)),
    "monoid.normal_words_of_degree": ("words", lambda args, r: len(r)),
    "monoid.check_axioms": None,
    "monoid.check_N_closure": None,
    "monoid.answer_open_question": None,
    "confluence.audit_termination": ("words", lambda args, r: r.words_checked, "steps", lambda args, r: r.steps_checked),
    "confluence.audit_local_confluence": ("pairs", lambda args, r: sum(row.instances for row in r.rows)),
    "confluence.enumerate_overlaps": None,
    "confluence.common_reducts": None,
    "confluence.cross_check_oracle": ("pairs", lambda args, r: r.pairs_checked),
    "confluence.connected_components": ("universe", lambda args, r: len(r)),
    "cli.main": None,
}
COUNTED = ("rewrite.match_rule", "rewrite.redexes")

# The per-layer metrics, by name, with unit and the better direction.
LAYER_METRICS = (
    ("words.parse.calls", "count", "lower"),
    ("words.parse.self_s", "s", "lower"),
    ("words.render.calls", "count", "lower"),
    ("words.render.self_s", "s", "lower"),
    ("rewrite.normalize.calls", "count", "lower"),
    ("rewrite.normalize.self_s", "s", "lower"),
    ("rewrite.normalize.steps", "count", "lower"),
    ("rewrite.match_rule.calls", "count", "lower"),
    ("rewrite.match_rule.hit_ratio", "ratio", "higher"),
    ("rewrite.normalize_trace.self_s", "s", "lower"),
    ("rewrite.normalize_trace.steps", "count", "lower"),
    ("rewrite.reduction_graph.calls", "count", "lower"),
    ("rewrite.reduction_graph.self_s", "s", "lower"),
    ("rewrite.reduction_graph.nodes", "count", "lower"),
    ("rewrite.redexes.calls", "count", "lower"),
    ("rewrite.is_normal.self_s", "s", "lower"),
    ("monoid.element.self_s", "s", "lower"),
    ("monoid.mul.self_s", "s", "lower"),
    ("monoid.apply_f.self_s", "s", "lower"),
    ("monoid.in_N.calls", "count", "lower"),
    ("monoid.in_N.self_s", "s", "lower"),
    ("monoid.in_N.member_ratio", "ratio", "higher"),
    ("monoid.normal_words_of_degree.words", "count", "lower"),
    ("monoid.check_axioms.self_s", "s", "lower"),
    ("monoid.check_N_closure.self_s", "s", "lower"),
    ("confluence.audit_termination.self_s", "s", "lower"),
    ("confluence.audit_termination.words", "count", "lower"),
    ("confluence.audit_termination.steps", "count", "lower"),
    ("confluence.audit_local_confluence.self_s", "s", "lower"),
    ("confluence.audit_local_confluence.pairs", "count", "lower"),
    ("confluence.enumerate_overlaps.self_s", "s", "lower"),
    ("confluence.common_reducts.calls", "count", "lower"),
    ("confluence.common_reducts.per_pair", "calls/pair", "lower"),
    ("confluence.cross_check_oracle.self_s", "s", "lower"),
    ("confluence.cross_check_oracle.pairs", "count", "lower"),
    ("confluence.connected_components.self_s", "s", "lower"),
    ("confluence.connected_components.universe", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    def __init__(self):
        # [name, parent span or None, start, end, time covered by children]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, int] = {}
        self.restore: list[tuple] = []

    def spanned(self, name, fn, work=()):
        """``fn`` recording a span per call, and the work counts ``work``
        (pairs of count name and function of (args, result)).  Safe when a
        signal handler's own spanned call interrupts it."""
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else None, clock(), 0.0, 0.0]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if record[1] is not None:
                    record[1][4] += record[3] - record[2]
            for n in range(0, len(work), 2):
                key = f"{name}.{work[n]}"
                counts[key] = counts.get(key, 0) + work[n + 1](args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        calls, hits = f"{name}.calls", f"{name}.hits"
        counts[calls] = counts[hits] = 0

        def wrapper(*args):
            counts[calls] += 1
            result = fn(*args)
            if result:
                counts[hits] += 1
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the functions everywhere adjmon binds them."""
        modules = [package] + [getattr(package, m) for m in ("words", "rewrite", "monoid", "confluence", "cli")]
        for qualified in list(SPANNED) + list(COUNTED):
            module, attr = qualified.split(".")
            original = getattr(getattr(package, module), attr)
            if qualified in COUNTED:
                wrapper = self._counted(qualified, original)
            else:
                wrapper = self.spanned(qualified, original, SPANNED[qualified] or ())
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, binding, wrapper)
                        self.restore.append((m, binding, original))

    def uninstall(self) -> None:
        for m, binding, original in reversed(self.restore):
            setattr(m, binding, original)
        self.restore.clear()

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, start, end, covered in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can give (the cli.* process
        figures and the overhead ratio are measured by the caller)."""
        self_s = self.self_times()
        calls: dict[str, int] = dict(self.counts)
        for name, *_ in self.spans:
            calls[f"{name}.calls"] = calls.get(f"{name}.calls", 0) + 1
        c = lambda key: calls.get(key, 0)  # noqa: E731
        out = {}
        for metric, _, _ in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif field in ("calls", "steps", "nodes", "words", "pairs", "universe"):
                out[metric] = c(metric)
        out["rewrite.match_rule.hit_ratio"] = _ratio(c("rewrite.match_rule.hits"), c("rewrite.match_rule.calls"))
        out["monoid.in_N.member_ratio"] = _ratio(c("monoid.in_N.members"), c("monoid.in_N.calls"))
        out["confluence.common_reducts.per_pair"] = _ratio(
            c("confluence.common_reducts.calls"), c("confluence.audit_local_confluence.pairs")
        )
        return out

    def self_sum(self) -> float:
        """Self time of all the spans of adjmon functions."""
        return sum(t for name, t in self.self_times().items() if name in SPANNED)

    def write(self, path: str, origin: float) -> None:
        names = sorted({s[0] for s in self.spans})
        name_index = {n: i for i, n in enumerate(names)}
        span_index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [name_index[n], -1 if p is None else span_index[id(p)], start - origin, end - origin]
            for n, p, start, end, _ in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"names": names, "fields": ["name", "parent", "start_s", "end_s"], "spans": rows, "counts": self.counts}, f)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
