"""The repository benchmark: gossip discovery runs to convergence, checked and timed.

Run from the repository root::

    python3 perfbench/run.py --workload push-cycle --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py             # every workload, untraced then traced, as tables
    python3 perfbench/run.py --self-test # the correctness gate rejects an early stop

One ``--workload`` run executes the workload's seeded trials (then repeats
them while ``--seconds`` allows) in this process, one at a time, and
prints one JSON object as the last line of standard output: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
trial with ``--trace 1``.  Any failed check makes the run exit with 1.
See ``NOTES.md`` for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: name -> (unit, better, kind); kind says how a per-layer figure is obtained
END_TO_END = {
    "setup_s": ("s", "lower", "timed"),
    "converge_cal": ("cal", "lower", "timed"),
    "rounds": ("count", "lower", "counted"),
    "rounds_per_cal": ("1/cal", "higher", "timed"),
    "peak_rss_mib": ("MiB", "lower", "measured"),
    "ok_frac": ("ratio", "higher", "counted"),
}
PER_LAYER = {
    "core.propose_s": ("s", "lower", "timed"),
    "core.apply_s": ("s", "lower", "timed"),
    "core.check_s": ("s", "lower", "timed"),
    "core.step_self_s": ("s", "lower", "timed"),
    "core.loop_self_s": ("s", "lower", "timed"),
    "core.round_ms.p50": ("ms", "lower", "timed"),
    "core.round_ms.p99": ("ms", "lower", "timed"),
    "core.proposals": ("count", "lower", "counted"),
    "core.useful_ratio": ("ratio", "higher", "counted"),
    "graphs.sample_s": ("s", "lower", "timed"),
    "graphs.insert_s": ("s", "lower", "timed"),
    "graphs.insert_useful_ratio": ("ratio", "higher", "counted"),
    "graphs.samples": ("count", "lower", "counted"),
    "graphs.capacity_growths": ("count", "lower", "counted"),
    "graphs.nbr_mib": ("MiB", "lower", "computed"),
    "graphs.bits_mib": ("MiB", "lower", "computed"),
    "graphs.or_words": ("count", "lower", "computed"),
    "graphs.or_gib": ("GiB", "lower", "computed"),
    "sharding.pool_s": ("s", "lower", "timed"),
    "sharding.merge_s": ("s", "lower", "timed"),
    "sharding.round_ms.p50": ("ms", "lower", "timed"),
    "sharding.shm_mib_per_round": ("MiB", "lower", "computed"),
    "sharding.pool_failures": ("count", "lower", "counted"),
    "sharding.worker_rss_mib": ("MiB", "lower", "measured"),
    "checkpoint.save_s": ("s", "lower", "timed"),
    "checkpoint.snapshots": ("count", "lower", "counted"),
    "checkpoint.mib": ("MiB", "lower", "computed"),
    "checkpoint.share": ("ratio", "lower", "timed"),
    "checkpoint.restore_s": ("s", "lower", "timed"),
    "network.check_s": ("s", "lower", "timed"),
    "network.send_s": ("s", "lower", "timed"),
    "network.protocol_s": ("s", "lower", "timed"),
    "network.loop_self_s": ("s", "lower", "timed"),
    "network.events": ("count", "lower", "counted"),
    "network.delivered_ratio": ("ratio", "higher", "counted"),
    "network.msgs_per_s": ("1/s", "higher", "timed"),
    "run.converge_s": ("s", "lower", "timed"),
    "run.reference_s": ("s", "lower", "timed"),
    "trace.overhead_frac": ("ratio", "lower", "timed"),
    "trace.coverage": ("ratio", "higher", "timed"),
}
#: root spans: one per converge phase, their self time is the run loop's own
ROOT_SPANS = ("core.run", "network.run")
IMPORT_SAMPLES = 5
TRACE_BASELINE_RUNS = 2
#: the reference runs for at least this share of the trial it follows
REFERENCE_SHARE = 0.1
REFERENCE_MIN_S = 0.1
#: one ``interp`` pass on the 2-core host the benchmark was tuned on;
#: ``setup_s`` is reported in seconds at that speed (see NOTES.md)
REFERENCE_HOST_S = 0.07
clock = time.perf_counter


class Reference:
    """A fixed loop that calibrates the host's current speed for one workload.

    The host's speed drifts by up to 2x over minutes (shared cores), so the
    bounded figures divide wall times by the mean of this loop's pass
    time, sampled before the first trial and after every trial: one
    ``cal`` is one pass of the loop.  Longer trials get longer samples
    (:data:`REFERENCE_SHARE`), so the samples cover a fixed share of the run.

    Interpreter-bound and memory-bound code slow down by different amounts,
    so each workload names the kind that matches its bottleneck:
    ``"interp"`` (small NumPy calls between Python statements) or
    ``"memory"`` (bulk passes over arrays larger than the L2 cache).  The
    loop is the benchmark's own code, so a change to the program moves the
    trials and not the reference.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._pass = self._interp_pass if kind == "interp" else self._memory_pass

    def _interp_pass(self, arrays) -> None:
        rows, pick = arrays
        rng = np.random.default_rng(1)
        for _ in range(400):
            cols = (rng.random(768) * 1000).astype(np.int64)
            np.unique(np.where(cols >= 0, rows[pick, cols], -1))
            total = 0
            for i in range(300):
                total += i

    def _memory_pass(self, arrays) -> None:
        words, other, out = arrays
        for _ in range(6):
            np.bitwise_or(words, other, out=out)
            out.sum()

    def _arrays(self):
        """Fresh inputs per sample, freed after it, so they never count in the
        run's peak RSS or get inherited by pool workers."""
        rng = np.random.default_rng(0)
        if self.kind == "interp":
            return rng.integers(0, 1 << 20, size=(768, 1024)), rng.integers(0, 768, size=768)
        words = rng.integers(0, 1 << 62, size=4 << 20, dtype=np.uint64)
        return words, words[::-1].copy(), np.empty_like(words)

    def seconds(self, at_least: float) -> float:
        """Seconds per pass of the loop, over whole passes lasting ``at_least``."""
        arrays = self._arrays()
        self._pass(arrays)  # untimed: page faults and cold caches
        passes = 0
        start = clock()
        while True:
            self._pass(arrays)
            passes += 1
            elapsed = clock() - start
            if elapsed >= at_least:
                return elapsed / passes


def _load_program():
    """Import the program from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _import_seconds() -> float:
    """Wall seconds for ``import repro`` in a fresh interpreter.

    Bytecode caching is forced on, so after the first call every sample
    times a cached import, whatever the caller's environment says.
    """
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**env, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _import_samples():
    """Import timings, with ``interp`` reference samples before, between and after."""
    _import_seconds()  # untimed: writes the bytecode cache
    reference = Reference("interp")
    references = [reference.seconds(REFERENCE_MIN_S)]
    imports = []
    for _ in range(IMPORT_SAMPLES):
        imports.append(_import_seconds())
        references.append(reference.seconds(REFERENCE_MIN_S))
    return imports, references


def _guarded_trial(workloads, workload, seed: int, index: int, tracer=None):
    """One trial; an exception is a failed trial, reported with its traceback."""
    try:
        return workloads.run_trial(workload, seed, index, OUT, tracer)
    except Exception:  # the run must report every failure, not stop at the first
        traceback.print_exc(file=sys.stderr)
        result = workloads.TrialResult(index=index)
        result.failures.append(f"trial {index} raised: {traceback.format_exc(limit=1)}")
        return result


def _run_trials(workloads, workload, seed: int, seconds: float, indices=None):
    """Run the workload's trials, then repeat them while ``seconds`` allows.

    A repeat of a trial must reproduce its first run exactly (identity),
    which is how sharded and checkpointed runs prove they are deterministic.
    Returns the trials and the reference-loop samples taken between them.
    """
    results, first = [], {}
    mandatory = max(workload.trials, workload.min_runs) if indices is None else len(indices)
    reference = Reference(workload.reference)
    references = [reference.seconds(REFERENCE_MIN_S)]
    start = clock()
    while True:
        done = len(results)
        if done >= mandatory:
            elapsed = clock() - start
            if indices is not None or elapsed + elapsed / done > seconds:
                break
        index = indices[done] if indices is not None else done % workload.trials
        trial = _guarded_trial(workloads, workload, seed, index)
        references.append(
            reference.seconds(max(REFERENCE_MIN_S, REFERENCE_SHARE * trial.converge_s))
        )
        original = first.setdefault(index, trial)
        if trial is not original and trial.identity != original.identity:
            trial.failures.append(f"trial {index} did not repeat its first run")
        results.append(trial)
    return results, references


def _end_to_end(results, references, import_s, import_references):
    by_index = {}
    for trial in results:
        by_index.setdefault(trial.index, []).append(trial)
    cal = statistics.fmean(references)
    converge = [statistics.median(t.converge_s for t in ts) / cal for ts in by_index.values()]
    rounds = [ts[0].rounds for ts in by_index.values()]
    failed = sum(1 for t in results if t.failures)
    setup = statistics.median(import_s) + statistics.median(t.setup_s for t in results)
    return {
        "setup_s": setup * REFERENCE_HOST_S / statistics.fmean(import_references),
        "converge_cal": statistics.fmean(converge),
        "rounds": statistics.fmean(rounds),
        "rounds_per_cal": sum(rounds) / sum(converge) if sum(converge) > 0 else 0.0,
        "peak_rss_mib": max(t.rss_mib for t in results),
        "ok_frac": (len(results) - failed) / len(results),
    }


def _percentile_ms(durations, q: float) -> float:
    return float(np.percentile(durations, q) * 1e3) if len(durations) else 0.0


def _per_layer(summary, counters, trial, untraced_s: float, reference_s: float):
    empty = {"self_s": 0.0, "durations": ()}

    def self_s(*names):
        return sum(summary.get(name, empty)["self_s"] for name in names)

    def durations(name):
        return summary.get(name, empty)["durations"]

    def ratio(a, b):
        return a / b if b else 0.0

    traced_s = sum(summary[name]["total_s"] for name in ROOT_SPANS if name in summary)
    named_self = sum(s["self_s"] for name, s in summary.items() if name not in ROOT_SPANS)
    count = counters.get
    info = trial.info
    rounds = count("sharding.rounds", 0)
    return {
        "core.propose_s": self_s("core.propose"),
        "core.apply_s": self_s("core.apply"),
        "core.check_s": self_s("core.check"),
        "core.step_self_s": self_s("core.step"),
        "core.loop_self_s": self_s("core.run"),
        "core.round_ms.p50": _percentile_ms(durations("core.step"), 50),
        "core.round_ms.p99": _percentile_ms(durations("core.step"), 99),
        "core.proposals": count("core.proposals", 0),
        "core.useful_ratio": ratio(count("core.added", 0), count("core.proposals", 0)),
        "graphs.sample_s": self_s("graphs.sample"),
        "graphs.insert_s": self_s("graphs.insert"),
        "graphs.insert_useful_ratio": ratio(count("graphs.added", 0), count("graphs.offered", 0)),
        "graphs.samples": count("graphs.samples", 0),
        "graphs.capacity_growths": count("graphs.capacity_growths", 0),
        "graphs.nbr_mib": info["graphs.nbr_mib"],
        "graphs.bits_mib": info["graphs.bits_mib"],
        "graphs.or_words": count("graphs.or_words", 0),
        "graphs.or_gib": count("graphs.or_words", 0) * 8 / float(1 << 30),
        "sharding.pool_s": self_s("sharding.step"),
        "sharding.merge_s": self_s("graphs.delta_or", "graphs.delta_extract"),
        "sharding.round_ms.p50": _percentile_ms(durations("sharding.step"), 50),
        "sharding.shm_mib_per_round": ratio(count("sharding.shm_bytes", 0), rounds) / (1 << 20),
        "sharding.pool_failures": info["sharding.pool_failures"],
        "sharding.worker_rss_mib": info.get("sharding.worker_rss_mib", 0.0),
        "checkpoint.save_s": self_s("checkpoint.callback", "checkpoint.save"),
        "checkpoint.snapshots": info["checkpoint.snapshots"],
        "checkpoint.mib": info["checkpoint.bytes"] / float(1 << 20),
        "checkpoint.share": ratio(self_s("checkpoint.callback", "checkpoint.save"), traced_s),
        "checkpoint.restore_s": info["checkpoint.restore_s"],
        "network.check_s": self_s("network.check"),
        "network.send_s": self_s("network.send"),
        "network.protocol_s": self_s("network.protocol"),
        "network.loop_self_s": self_s("network.loop", "network.run"),
        "network.events": info.get("network.events", 0),
        "network.delivered_ratio": ratio(
            info.get("network.delivered", 0), info.get("network.sent", 0)
        ),
        "network.msgs_per_s": ratio(info.get("network.sent", 0), untraced_s),
        "run.converge_s": untraced_s,
        "run.reference_s": reference_s,
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
        "trace.coverage": ratio(named_self, traced_s),
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that shared memory made multiprocessing start."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import host
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        results, references = _run_trials(
            workloads, workload, seed, seconds, indices=[0] * TRACE_BASELINE_RUNS
        )
        tracer = Tracer()
        traced = _guarded_trial(workloads, workload, seed, 0, tracer)
        if traced.identity != results[0].identity:
            traced.failures.append("the traced trial did not repeat the untraced one")
        results.append(traced)
        untraced_s = statistics.median(t.converge_s for t in results[:-1])
        metrics = _per_layer(
            tracer.summary(), tracer.counters, traced, untraced_s, statistics.fmean(references)
        )
        tracer.save(OUT / f"{name}-seed{seed}.spans.npz")
        table = PER_LAYER
    else:
        import_s, import_references = _import_samples()
        results, references = _run_trials(workloads, workload, seed, seconds)
        metrics = _end_to_end(results, references, import_s, import_references)
        record["import_s"] = import_s
        record["import_reference_s"] = import_references
        table = END_TO_END
    _stop_resource_tracker()
    leftover = host.child_pids()
    if leftover:
        results[-1].failures.append(f"child processes still running: {leftover}")
    failures = [f for t in results for f in t.failures]
    record["host"] = host.fingerprint(ROOT)
    record["reference_s"] = references
    record["trials"] = [
        {"index": t.index, "setup_s": t.setup_s, "converge_s": t.converge_s, "rounds": t.rounds}
        for t in results
    ]
    record["failures"] = failures
    line = {
        "correct": not failures,
        "attempted": len(results),
        "failed": sum(1 for t in results if t.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": table[k][0]} for k in table},
    }
    record["result"] = line
    suffix = "trace" if trace else "e2e"
    (OUT / f"{name}-seed{seed}-{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps(line))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced; print both tables."""
    import workloads

    status = 0
    rows = {False: [], True: []}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace={int(trace)}) failed with exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                rows[trace].append((name, metric, entry["value"], entry["unit"]))
    for trace, title, kinds in ((False, "end-to-end", END_TO_END), (True, "per-layer", PER_LAYER)):
        print(f"\n{title} metrics (seed {seed}, {seconds:g} s per run)")
        if trace:
            print("(layers a workload does not run read 0 and are left out)")
        print(f"{'workload':<18} {'metric':<28} {'value':>14} {'unit':<6} kind")
        for name, metric, value, unit in rows[trace]:
            if not (trace and value == 0):
                print(f"{name:<18} {metric:<28} {value:>14.6g} {unit:<6} {kinds[metric][2]}")
    return status


def self_test() -> int:
    """The gate must fail a run stopped one round early; BENCHMARK.json must match."""
    from repro import ArrayGraph, make_process

    import workloads

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    defined = {k: v[:2] for k, v in {**END_TO_END, **PER_LAYER}.items()}
    if listed != defined:
        problems.append("BENCHMARK.json metrics differ from the ones run.py reports")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the ones run.py runs")

    def push_run(max_rounds=None):
        us, vs = workloads.cycle_edges(32, np.random.default_rng(7))
        graph = ArrayGraph(32)
        graph.add_edges_batch_arrays(us, vs)
        process = make_process("push", graph, rng=7)
        result = process.run_to_convergence(max_rounds=max_rounds)
        return workloads.check_run("push", process, graph, result, 32), result.rounds

    full_failures, rounds = push_run()
    early_failures, _ = push_run(max_rounds=rounds - 1)
    if full_failures:
        problems.append(f"a complete run failed the gate: {full_failures}")
    if not early_failures:
        problems.append("a run stopped one round early passed the gate")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else f"passed (early stop caught: {early_failures})"))
    return 1 if problems else 0


def main(argv=None) -> int:
    spec_seconds = 10
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec_seconds = json.loads(spec_path.read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _load_program()
    sys.path.insert(0, str(HERE))
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
