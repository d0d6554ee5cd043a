"""The four workloads: seeded inputs, one timed pass, and the check of
every answer against the independent model in :mod:`checker`.

A pass runs a workload's fixed list of operations once, in a fresh
interpreter (see ``worker.py``), as one closed-loop client.  Answers are
held until the pass ends and are checked after the timed region.
Calls go through module attributes (``A.rewrite.normalize``) so that the
tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import time

import checker
from checker import EPS, ETA

WORKLOADS = ("queries", "long_words", "audit", "cli")

# Cost of one pass on the reference machine (see NOTES.md).  --seconds is
# turned into a fixed number of passes with it, so every run of a workload
# times the same operations whatever the machine's speed that minute.
NOMINAL_PASS_S = {"queries": 1.6, "long_words": 5.5, "audit": 5.0, "cli": 7.0}
MIN_PASSES = 3  # an op's latency is the median of its repeats, one per pass


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"adjmon-bench:{workload}:{seed}")


# --- input generation --------------------------------------------------------

def random_word(rng: random.Random, length: int, max_index: int):
    return tuple((rng.choice((ETA, EPS)), rng.randrange(max_index)) for _ in range(length))


def word_of_degree(rng: random.Random, d: int):
    """A random word of degree exactly d."""
    out = []
    while d:
        k = rng.randrange(d)
        out.append((rng.choice((ETA, EPS)), k))
        d -= k + 1
    return tuple(out)


def with_identities(rng: random.Random, word, count: int):
    """Insert copies of e_k h_k or e_k h_(k+1); both act as the identity
    map, so the result denotes the same element."""
    out = list(word)
    for _ in range(count):
        k = rng.randrange(12)
        p = rng.randrange(len(out) + 1)
        out[p:p] = [(EPS, k), (ETA, k + rng.randrange(2))]
    return tuple(out)


QUERY_MIX = (("normalize", 50), ("eq", 15), ("mul", 15), ("apply_f", 10), ("in_N", 10))
QUERIES_PER_PASS = 4000
IN_N_BOUND = 6
QUERY_MAX_LEN, QUERY_INDICES = 24, 12


def _short(rng):
    return random_word(rng, rng.randint(1, QUERY_MAX_LEN), QUERY_INDICES)


def query_ops(seed: int) -> list[tuple]:
    """Short library queries in a fixed mix; in_N inputs are half members
    (eps*f(m) with m of degree <= IN_N_BOUND, so the witness is within the
    bound) and half non-members (h0*m, which moves 0)."""
    rng = rng_for("queries", seed)
    T = checker.render_text
    ops = []
    for kind, percent in QUERY_MIX:
        for n in range(QUERIES_PER_PASS * percent // 100):
            if kind == "eq":
                u = _short(rng)
                v = with_identities(rng, u, rng.randint(1, 3)) if n % 2 else _short(rng)
                ops.append(("eq", T(u), T(v)) if rng.random() < 0.5 else ("eq", T(v), T(u)))
            elif kind == "mul":
                ops.append(("mul", T(_short(rng)), T(_short(rng))))
            elif kind == "in_N" and n % 2:
                m = word_of_degree(rng, rng.randint(0, IN_N_BOUND))
                ops.append(("in_N", T(checker.E0 + checker.shift(m)), True))
            elif kind == "in_N":
                ops.append(("in_N", T(checker.H0 + random_word(rng, rng.randint(0, 4), 6)), False))
            else:
                ops.append((kind, T(_short(rng))))
    rng.shuffle(ops)
    return ops


# With the ascending trace, the blocks from 300 up are the eleven slowest
# ops, so the tail (the eleventh-slowest) does not depend on the seeded
# random words.
ASCENDING_SIZES = (*range(100, 701, 50), 800)
CANCELLING_SIZES = (1000, 2000, 4000)
RANDOM_LONG = 16  # lengths spread evenly over 200..400, indices below 200
TRACE_SIZE = 150


def long_word_ops(seed: int) -> list[tuple]:
    """Worst cases of the rewrite loop.  Each op is (function, word,
    exact expected canonical form or None)."""
    rng = rng_for("long_words", seed)
    ops = [("normalize", checker.ascending_eps(n), ((EPS, 0),) * n) for n in ASCENDING_SIZES]
    ops += [("normalize", checker.cancelling(n), ()) for n in CANCELLING_SIZES]
    for text, nf in checker.HEADLINE_NORMAL_FORMS.items():
        ops.append(("normalize", checker.parse_text(text), checker.parse_text(nf)))
    for n in range(RANDOM_LONG):
        ops.append(("normalize", random_word(rng, 200 + 200 * n // (RANDOM_LONG - 1), 200), None))
    ops.append(("normalize_trace", checker.ascending_eps(TRACE_SIZE), ((EPS, 0),) * TRACE_SIZE))
    ops.append(("normalize_trace", checker.cancelling(TRACE_SIZE // 2), ()))
    # No shuffle: the answers held so far, which the garbage collector
    # walks during the allocation-heavy traces, are then the same every run.
    return ops


AUDIT_BATTERY = (
    ("confluence", "audit_termination", (4, 6)),
    ("confluence", "audit_local_confluence", (6,)),
    ("confluence", "audit_local_confluence", (10,)),
    ("confluence", "cross_check_oracle", (3, 2, 9)),
    ("confluence", "connected_components", (11,)),
    ("monoid", "check_axioms", (4, 3)),
    ("monoid", "check_N_closure", (3, 2)),
    ("monoid", "answer_open_question", ()),
)


def audit_ops(seed: int) -> list[tuple]:
    """The verification battery at default bounds and one larger bound;
    the seed only sets the order."""
    ops = list(AUDIT_BATTERY)
    rng_for("audit", seed).shuffle(ops)
    return ops


# Six of each query command and four of ``answer`` (about twice as slow):
# p50 and the tail (the eleventh-slowest op) both fall inside the query
# commands, away from the boundary between the two costs, where the
# per-op medians of three passes would flip between them.
CLI_QUERY_REPEATS = 6
CLI_ANSWERS = 4


def cli_ops(seed: int) -> list[tuple]:
    """argv lists for ``python -m adjmon.cli``."""
    rng = rng_for("cli", seed)
    T = checker.render_text
    ops = [("answer",)] * CLI_ANSWERS
    for n in range(CLI_QUERY_REPEATS):
        u = _short(rng)
        v = with_identities(rng, u, 2) if n % 2 else _short(rng)
        ops += [
            ("normalize", T(_short(rng))),
            ("eq", T(u), T(v)),
            ("trace", T(random_word(rng, rng.randint(1, 12), 6))),
            ("mul", T(_short(rng)), T(_short(rng))),
            ("iso",),
        ]
    rng.shuffle(ops)
    return ops


MAKE_OPS = {"queries": query_ops, "long_words": long_word_ops, "audit": audit_ops, "cli": cli_ops}


def label(workload: str, op: tuple) -> str:
    """The op's kind, for per-kind latencies in the result file."""
    if workload == "long_words":
        fn, word, _ = op
        if word == checker.ascending_eps(len(word)):
            return f"{fn} ascending {len(word)}"
        if word and word == checker.cancelling(len(word) // 2):
            return f"{fn} cancelling {len(word) // 2}"
        return f"{fn} other"
    if workload == "audit":
        return f"{op[1]}{op[2]}"
    return op[0]


# --- one pass ----------------------------------------------------------------

def prepare(workload: str, ops: list[tuple], A) -> list:
    """Turn generated inputs into call arguments, outside the timed region."""
    if workload == "long_words":
        G = A.words.Generator
        return [(fn, tuple(G(kind, k) for kind, k in word)) for fn, word, _ in ops]
    return ops


def _query(A, op):
    kind = op[0]
    parse = A.words.parse
    if kind == "normalize":
        return A.words.render(A.rewrite.normalize(parse(op[1])))
    if kind == "eq":
        return A.rewrite.normalize(parse(op[1])) == A.rewrite.normalize(parse(op[2]))
    if kind == "mul":
        return str(A.monoid.mul(A.monoid.element(parse(op[1])), A.monoid.element(parse(op[2]))))
    if kind == "apply_f":
        return str(A.monoid.apply_f(A.monoid.element(parse(op[1]))))
    result = A.monoid.in_N(A.monoid.element(parse(op[1])), IN_N_BOUND)
    return result.member, None if result.witness is None else str(result.witness)


def _long(A, op):
    fn, word = op
    if fn == "normalize":
        return A.rewrite.normalize(word)
    return A.rewrite.normalize_trace(word)


def _audit(A, op):
    module, fn, args = op
    return getattr(getattr(A, module), fn)(*args)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cli_subprocess(root: str, env: dict):
    def run(A, argv):
        done = subprocess.run(
            [sys.executable, "-m", "adjmon.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout
    return run


def _cli_inprocess(A, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = A.cli.main(list(argv))
    return code, out.getvalue()


def run_pass(workload: str, calls: list, A, root: str, in_process_cli: bool = False, between=None):
    """Run every call once; returns (answers, per-op (start, end) clock
    readings, pass start, pass end).  An op that raises is recorded as its
    exception and counted as failed.  ``between`` is called before each op
    and after the last, outside the ops' time."""
    if workload == "cli":
        call = _cli_inprocess if in_process_cli else _cli_subprocess(root, cli_env(root))
    else:
        call = {"queries": _query, "long_words": _long, "audit": _audit}[workload]
    answers, stamps = [], []
    clock = time.perf_counter
    start = clock()
    for op in calls:
        if between is not None:
            between()
        t0 = clock()
        try:
            answer = call(A, op)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            answer = exc
        stamps.append((t0, clock()))
        answers.append(answer)
    if between is not None:
        between()
    return answers, stamps, start, clock()


# --- checking ------------------------------------------------------------------

def _check_query(op, answer) -> bool:
    P = checker.parse_text
    kind = op[0]
    if kind == "normalize":
        return isinstance(answer, str) and checker.normal_form_ok(P(op[1]), P(answer))
    if kind == "eq":
        return answer is checker.same(P(op[1]), P(op[2]))
    if kind == "mul":
        return isinstance(answer, str) and checker.product_ok(P(op[1]), P(op[2]), P(answer))
    if kind == "apply_f":
        return isinstance(answer, str) and checker.image_ok(P(op[1]), P(answer))
    member, witness = answer
    return member is op[2] and checker.membership_ok(P(op[1]), member, None if witness is None else P(witness))


def _check_long(op, answer) -> bool:
    fn, word, expected = op
    end = answer.end if fn == "normalize_trace" else answer
    if expected is not None and tuple(end) != expected:
        return False
    if fn == "normalize_trace":
        steps = [(s.position, s.before, s.after) for s in answer.steps]
        return answer.start == word and checker.trace_ok(word, steps, end)
    # a hand-written expected form is exact; otherwise ask the model
    return expected is not None or checker.normal_form_ok(word, end)


def universe_size(max_degree: int) -> int:
    """Words of degree <= max_degree: a letter of index k has weight k+1
    and comes in two kinds."""
    count = [1]
    for d in range(1, max_degree + 1):
        count.append(sum(2 * count[d - w] for w in range(1, d + 1)))
    return sum(count)


def components_ok(component: dict, max_degree: int) -> bool:
    """Two words share a component exactly when they act as the same map."""
    if len(component) != universe_size(max_degree):
        return False
    size = max_degree + 2  # max index + length <= degree
    images = {(): tuple(range(size))}
    for w in sorted(component, key=len):
        if w:
            images[w] = checker.apply_letter(w[0][0], w[0][1], images[w[1:]])
    by_component, by_map = {}, {}
    for w, c in component.items():
        m = images[w]
        if by_component.setdefault(c, m) != m or by_map.setdefault(m, c) != c:
            return False
    return True


def _check_audit(op, report) -> bool:
    _, fn, args = op
    if fn == "audit_termination":
        want = checker.TERMINATION_4_6 if args == (4, 6) else None
        got = {"words": report.words_checked, "steps": report.steps_checked, "longest_chain": report.longest_chain}
        return report.passed and (want is None or got == want)
    if fn == "audit_local_confluence":
        overlaps = checker.overlap_pairs(args[0])
        instances = sum(r.instances for r in report.rows)
        return (
            report.passed
            and report.all_subcases_instantiated
            and instances == overlaps + checker.LOCAL_CONFLUENCE_DISJOINT
            and all(r.joinable == r.instances for r in report.rows)
            and (args[0] != 6 or overlaps == checker.LOCAL_CONFLUENCE_6_OVERLAPS)
        )
    if fn == "cross_check_oracle":
        got = {"population": report.population, "pairs": report.pairs_checked, "discrepancies": len(report.discrepancies)}
        return report.passed and got == checker.CROSS_CHECK_3_2_9
    if fn == "connected_components":
        return components_ok(report, args[0])
    if fn in ("check_axioms", "check_N_closure"):
        pop = checker.canonical_words(*args)
        counts = [r.instances for r in report.results]
        want = [1, 1, 1] + [pop] * 4 if fn == "check_axioms" else [pop * pop, pop]
        return report.passed and counts == want
    return (
        report.verdict == "NOT_ISO"
        and checker.render_text(report.eta_eps_nf) == "h0 e0"
        and report.eps_eta_nf == ()
        and report.eta_eps_idempotent
        and not report.criteria.derived_holds
        and checker.model_verdict_ok()
    )


def _check_cli(op, answer) -> bool:
    code, stdout = answer
    lines = stdout.splitlines()
    P = checker.parse_text
    verb = op[0]
    if code != 0:
        return False
    if verb == "normalize":
        return len(lines) == 1 and checker.normal_form_ok(P(op[1]), P(lines[0]))
    if verb == "eq":
        return lines == (["equal"] if checker.same(P(op[1]), P(op[2])) else ["not-equal"])
    if verb == "trace":
        return checker.trace_text_ok(P(op[1]), lines)
    if verb == "mul":
        return len(lines) == 1 and checker.product_ok(P(op[1]), P(op[2]), P(lines[0]))
    if verb == "iso":
        return checker.iso_text_ok(lines)
    return checker.answer_text_ok(lines)


CHECKS = {"queries": _check_query, "long_words": _check_long, "audit": _check_audit, "cli": _check_cli}


def check(workload: str, ops: list[tuple], answers: list) -> list[str]:
    """Descriptions of the ops whose answer raised or was wrong."""
    bad = []
    for op, answer in zip(ops, answers):
        try:
            ok = not isinstance(answer, Exception) and CHECKS[workload](op, answer)
        except Exception as exc:  # a malformed answer the check could not read
            ok, answer = False, exc
        if not ok:
            bad.append(f"{op[:2]!r}: {answer!r}"[:300])
    return bad
