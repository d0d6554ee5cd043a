"""adjmon benchmark: one command, four workloads, end-to-end metrics by
name with units, and a traced run for per-layer metrics.

    python3 bench/run.py --workload queries --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload

Run from the repository root or anywhere: the program is imported from
``src/`` next to this directory, never from an installed copy.  Each pass
runs in a fresh interpreter (``worker.py``); ``--seconds`` fixes how many
passes (see ``workloads.NOMINAL_PASS_S``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A result file with provenance is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 5  # extra fresh-interpreter imports, besides one per pass
PROCESS_PROBES = 7  # bare and importing interpreters, for cli.process_s / cli.import_s
DEADLINE_S = 170.0


class Run:
    """Starts workers one at a time and waits for each before the next."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.errors: list[str] = []

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - self.start))

    def worker(self, mode: str) -> dict | None:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), self.workload, str(self.seed), mode]
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker timed out")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            self.errors.append(f"{mode} worker exit {done.returncode}: {done.stderr.strip()[-500:]}")
            return None
        return json.loads(lines[-1])

    def interpreter_s(self, code: str) -> float:
        env = workloads.cli_env(ROOT)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=self.remaining())
        return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile): the value of rank n-10 in ascending order, or the
    largest value when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "machine": {"cpu": cpu_model(), "arch": platform.machine(), "platform": platform.platform()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_lines": src_lines(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    run.worker("probe")  # untimed: leaves compiled bytecode for the timed imports
    # a traced run's untraced passes only give the overhead ratio its base
    passes = workloads.MIN_PASSES if trace else workloads.passes_for(workload, seconds)
    results = [r for r in (run.worker("pass") for _ in range(passes)) if r is not None]
    probes = [r for r in (run.worker("probe") for _ in range(SETUP_PROBES)) if r is not None]
    traced = run.worker("traced") if trace else None

    done = results + ([traced] if traced else [])
    ops = workloads.MAKE_OPS[workload](seed)
    planned = len(ops)
    attempted = planned * (passes + int(trace))
    failed = sum(r["failed"] for r in done) + planned * (passes + int(trace) - len(done))
    # Every pass runs the same ops; an op's latency is the median of its
    # repeats, which keeps a stall in one pass out of p50 and the tail.
    latencies = [statistics.median(op) for op in zip(*(r["latencies_s"] for r in results))]
    out = {
        "workload": workload,
        "provenance": provenance(seed),
        "passes": passes,
        "ops_per_pass": planned,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [f for r in done for f in r["failures"]][:10] + run.errors,
        "wall_s_per_pass": [r["wall_s"] for r in results],
        "raw_wall_s_per_pass": [r["raw_wall_s"] for r in results],
        "speed_per_pass": [r["speed"] for r in results],
    }
    if not results:
        return out
    by_kind: dict[str, list[float]] = {}
    for op, latency in zip(ops, latencies):
        by_kind.setdefault(workloads.label(workload, op), []).append(latency)
    out["op_median_ms_by_kind"] = {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())}
    tail_value, tail_percentile = tail(latencies)
    out["tail"] = {"percentile": tail_percentile, "samples": len(latencies), "repeats": len(results)}
    out["end_to_end"] = {
        "setup_s": statistics.median(r["import_s"] for r in results + probes),
        "wall_s": statistics.median(out["wall_s_per_pass"]),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    out["raw_medians"] = {
        "setup_s": statistics.median(r["raw_import_s"] for r in results + probes),
        "wall_s": statistics.median(out["raw_wall_s_per_pass"]),
    }
    if traced:
        bare = [run.interpreter_s("pass") for _ in range(PROCESS_PROBES)]
        loaded = [run.interpreter_s("import adjmon, adjmon.cli") for _ in range(PROCESS_PROBES)]
        layers = dict(traced["layers"])
        layers["cli.process_s"] = statistics.median(bare)
        layers["cli.import_s"] = statistics.median(loaded) - layers["cli.process_s"]
        untraced = traced.get("untraced_wall_s", out["end_to_end"]["wall_s"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / untraced
        out["per_layer"] = layers
        out["traced"] = {
            "wall_s": traced["wall_s"],
            "raw_wall_s": traced["raw_wall_s"],
            "elapsed_s": traced["elapsed_s"],
            "untraced_wall_s": untraced,
            "self_sum_s": traced["self_sum_s"],
            "spans_file": traced["spans_file"],
        }
    return out


def summary_lines(res: dict, trace: bool) -> list[str]:
    lines = [
        f"workload {res['workload']}: {res['passes']} passes x {res['ops_per_pass']} ops, "
        f"attempted {res['attempted']}, failed {res['failed']}, failed_ratio {res['failed_ratio']:.6g}"
    ]
    lines += [f"  FAILED {f}" for f in res["failures"]]
    if "end_to_end" in res:
        for name, unit in END_TO_END:
            lines.append(f"  {name:14s} {res['end_to_end'][name]:.6g} {unit}")
        t = res["tail"]
        lines.append(
            f"  op_tail_ms is p{t['percentile']:.4g} of {t['samples']} ops (each the median of {t['repeats']} repeats)"
        )
    if trace and "per_layer" in res:
        for name, unit, _ in spans.LAYER_METRICS:
            lines.append(f"  {name:44s} {res['per_layer'][name]:.6g} {unit}")
    return lines


def result_line(res: dict, trace: bool) -> dict:
    failed = res["failed"]
    if trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u, _ in spans.LAYER_METRICS}
    else:
        metrics = {n: {"value": res["end_to_end"][n], "unit": u} for n, u in END_TO_END}
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload, each in its own run.py process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adjmon", "__init__.py")):
        print(f"bench: no adjmon sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if "end_to_end" not in res or (args.trace and "per_layer" not in res):
        print("\n".join(summary_lines(res, False)), file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(res, f, indent=1)
    print("\n".join(summary_lines(res, bool(args.trace))))
    print(f"  result file {os.path.relpath(path, ROOT)}")
    print(json.dumps(result_line(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
