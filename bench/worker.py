"""One benchmark pass in a fresh interpreter; ``run.py`` starts it as

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is ``probe`` (import only), ``pass`` (one timed pass) or ``traced``
(one pass with the tracer installed).  The import of ``adjmon`` and
``adjmon.cli`` is timed first, before anything else is loaded, because
that is the start-up cost every command-line user pays.  Timings are
calibrated for machine speed (see ``speed.py``).  Prints one JSON object
on its last line.
"""

import os
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# The import is too short for the timer to sample inside it without
# disturbing it; the speed next to it is sampled just before and after.
PROBE = speed.SpeedProbe()
PROBE.sample(5)
_T0 = time.perf_counter()
import adjmon  # noqa: E402
import adjmon.cli  # noqa: E402,F401

_T1 = time.perf_counter()
PROBE.sample(5)
PROBE.start()

import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def bare_start_probe() -> speed.SpeedProbe:
    """Speed samples for commands run as child processes: a bare
    interpreter start, with the same environment, before each command."""
    argv, env = [sys.executable, "-c", "pass"], workloads.cli_env(ROOT)
    return speed.SpeedProbe(
        lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60),
        speed.REFERENCE_START_S, near=0.25, warmup=1,
    )


def timed_pass(workload, calls, in_process_cli):
    """The answers and the pass's figures: calibrated pass and per-op
    seconds, raw seconds (sampling left out), elapsed seconds and mean
    speed."""
    probe, between = PROBE, None
    if workload == "cli" and not in_process_cli:
        # The timer cannot sample inside a child process.  This process and
        # its children share one CPU, and a bare interpreter start on it
        # before each command (and after the last) gives the speed.
        PROBE.stop()
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        probe = bare_start_probe()
        between = lambda: probe.sample(1)  # noqa: E731
    answers, stamps, start, end = workloads.run_pass(workload, calls, adjmon, ROOT, in_process_cli, between)
    return answers, {
        "wall_s": probe.calibrated(start, end),
        "latencies_s": [probe.calibrated(t0, t1) for t0, t1 in stamps],
        "raw_wall_s": probe.raw(start, end),
        "elapsed_s": end - start,
        "speed": probe.speed(start, end),
    }


def main() -> int:
    if not os.path.abspath(adjmon.__file__).startswith(SRC + os.sep):
        print(f"adjmon imported from {adjmon.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    result = {"import_s": PROBE.calibrated(_T0, _T1), "raw_import_s": PROBE.raw(_T0, _T1)}
    if mode == "probe":
        PROBE.stop()
        print(json.dumps(result))
        return 0
    ops = workloads.MAKE_OPS[workload](seed)
    calls = workloads.prepare(workload, ops, adjmon)
    tracer = None
    if mode == "traced":
        if workload == "cli":  # untraced base for the overhead ratio: same process, same calls
            result["untraced_wall_s"] = timed_pass(workload, calls, True)[1]["wall_s"]
        tracer = spans.Tracer()
        tracer.install(adjmon)
        # the sampler's time then leaves the self time of the span it interrupts
        PROBE.kernel = tracer.spanned("speed.kernel", speed.kernel)
    answers, figures = timed_pass(workload, calls, mode == "traced")
    # the cli workload's operations run in child processes
    who = resource.RUSAGE_CHILDREN if workload == "cli" and mode == "pass" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = peak_rss_mb(who)
    PROBE.stop()
    if tracer is not None:
        tracer.uninstall()
    result.update(figures, attempted=len(ops))
    failures = workloads.check(workload, ops, answers)
    result.update(failed=len(failures), failures=failures[:5])
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_sum_s"] = tracer.self_sum()
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
        tracer.write(path, _T0)
        result["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
