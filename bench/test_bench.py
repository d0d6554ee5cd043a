"""Self-tests of the benchmark itself.  Run with

    python3 -m pytest bench
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import adjmon  # noqa: E402
import adjmon.cli  # noqa: E402,F401
import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _word(text):
    return adjmon.parse(text)


def test_checker_accepts_true_normal_forms():
    for text in ("e1 h3 e0 h0 h2 e4", "h5 h1 e0 e3", "e0 h0", "h0 e0", "e2 e2 h1 h7"):
        w = _word(text)
        assert checker.normal_form_ok(w, adjmon.normalize(w))


@pytest.mark.parametrize("text", ["e1 h3 e0 h0 h2 e4", "h5 h1 e0 e3 e9 h2", "e2 e2 h1 h7 h0"])
def test_checker_rejects_corrupted_normal_form(text):
    w = _word(text)
    nf = adjmon.normalize(w)
    assert len(nf) >= 2
    for p in range(len(nf) - 1):
        if nf[p] != nf[p + 1]:
            swapped = nf[:p] + (nf[p + 1], nf[p]) + nf[p + 2 :]
            assert not checker.normal_form_ok(w, swapped)
    for p, (kind, k) in enumerate(nf):
        for changed in {k + 1, k - 1} - {-1}:
            bumped = nf[:p] + ((kind, changed),) + nf[p + 1 :]
            assert not checker.normal_form_ok(w, bumped)


def _off_by_one(normalize):
    def corrupted(w):
        nf = normalize(w)
        return nf[:-1] + ((nf[-1].kind, nf[-1].index + 1),) if nf else nf
    return corrupted


def test_corrupted_normal_form_counts_as_failure(monkeypatch):
    """A pass whose normal forms are off by one fails its ops."""
    monkeypatch.setattr(adjmon.rewrite, "normalize", _off_by_one(adjmon.rewrite.normalize))
    ops = [op for op in workloads.query_ops(5) if op[0] == "normalize"][:50]
    answers, stamps, _, _ = workloads.run_pass("queries", ops, adjmon, ROOT)
    failures = workloads.check("queries", ops, answers)
    assert len(stamps) == 50
    assert len(failures) == sum(1 for a in answers if a != "1")  # the identity has no last letter
    assert len(failures) > 40


def test_corrupted_long_word_counts_as_failure(monkeypatch):
    monkeypatch.setattr(adjmon.rewrite, "normalize", _off_by_one(adjmon.rewrite.normalize))
    ops = [op for op in workloads.long_word_ops(5) if op[0] == "normalize" and len(op[1]) <= 300]
    answers, _, _, _ = workloads.run_pass("long_words", workloads.prepare("long_words", ops, adjmon), adjmon, ROOT)
    failures = workloads.check("long_words", ops, answers)
    assert len(failures) == sum(1 for a in answers if a)


def test_raising_op_counts_as_failure(monkeypatch):
    def broken(w):
        raise RuntimeError("broken")

    monkeypatch.setattr(adjmon.rewrite, "normalize", broken)
    ops = [op for op in workloads.query_ops(5) if op[0] == "eq"][:10]
    answers, _, _, _ = workloads.run_pass("queries", ops, adjmon, ROOT)
    assert len(workloads.check("queries", ops, answers)) == 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    make = workloads.MAKE_OPS[workload]
    assert make(11) == make(11)
    if workload != "audit":  # the audit battery has fixed bounds; its seed only orders it
        assert make(11) != make(12)


def test_query_mix_and_membership_inputs():
    ops = workloads.query_ops(3)
    kinds = [op[0] for op in ops]
    for kind, percent in workloads.QUERY_MIX:
        assert kinds.count(kind) == workloads.QUERIES_PER_PASS * percent // 100
    members = [op for op in ops if op[0] == "in_N"]
    assert sum(op[2] for op in members) == len(members) // 2
    for _, text, member in members:
        a = checker.parse_text(text)
        assert (checker.evaluate(a, 1)[0] == 0) is member


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def _traced(workload, ops, in_process_cli=False):
    """A traced pass with the speed sampler interrupting it, as in a run."""
    tracer = spans.Tracer()
    probe = speed.SpeedProbe(tracer.spanned("speed.kernel", speed.kernel))
    calls = workloads.prepare(workload, ops, adjmon)
    tracer.install(adjmon)
    probe.start()
    try:
        answers, _, start, end = workloads.run_pass(workload, calls, adjmon, ROOT, in_process_cli)
    finally:
        probe.stop()
        tracer.uninstall()
    return tracer, answers, end - start


@pytest.mark.parametrize(
    "workload, ops",
    [
        ("queries", workloads.query_ops(4)[:400]),
        ("audit", [("confluence", "audit_local_confluence", (6,)), ("monoid", "check_axioms", (4, 3))]),
        ("cli", [op for op in workloads.cli_ops(4) if op[0] in ("answer", "trace", "mul")][:6]),
    ],
)
def test_traced_self_times_within_wall(workload, ops):
    originals = {name: getattr(adjmon.rewrite, name) for name in ("normalize", "match_rule", "redexes")}
    tracer, answers, wall = _traced(workload, ops, in_process_cli=True)
    assert workloads.check(workload, ops, answers) == []
    assert any(s[0] == "speed.kernel" and s[1] is not None for s in tracer.spans)  # sampled inside spans
    assert 0.0 < tracer.self_sum() <= wall
    metrics = tracer.layer_metrics()
    expected = {name for name, _, _ in spans.LAYER_METRICS} - {"cli.import_s", "cli.process_s", "trace.overhead_ratio"}
    assert set(metrics) == expected
    assert all(getattr(adjmon.rewrite, n) is f for n, f in originals.items())  # wrappers removed
    assert adjmon.monoid.normalize is originals["normalize"]


def test_tracer_sees_nested_calls():
    tracer, _, _ = _traced("audit", [("confluence", "audit_local_confluence", (6,))])
    m = tracer.layer_metrics()
    assert m["confluence.audit_local_confluence.pairs"] == 364 + 32
    assert m["confluence.common_reducts.calls"] > 0
    assert m["rewrite.reduction_graph.calls"] > 0 and m["rewrite.redexes.calls"] > 0
    assert m["rewrite.match_rule.calls"] > 0


def test_tail_is_rank_n_minus_ten():
    samples = [float(x) for x in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_components_check_rejects_a_merge():
    component = adjmon.confluence.connected_components(4)
    assert workloads.components_ok(component, 4)
    a, b = next(w for w in component if len(w) == 1), ()
    merged = dict(component)
    merged[a] = merged[b]
    assert not workloads.components_ok(merged, 4)
