"""Benchmark of the implang pipeline: one workload per process, on one core.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

The run sets up its inputs at least five times (the median is ``setup_s``),
then runs whole passes over the workload's fixed op set in a closed loop
until ``--seconds`` have passed.  Every output is checked; a failed check exits
with code 1.  Times are in reference seconds (see speed.py).  With
``--trace 1`` it instead runs one untraced and one traced pass and reports
per-layer figures from the spans, which it writes to ``perfbench/out/``.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# At least this many set-ups, spread over at least this many seconds, so
# that a set-up as short as an import is not timed in one burst of host noise.
SETUP_REPEATS = 5
SETUP_MIN_S = 4.0
SETUP_PROBES = 10  # kernel samples before and after each set-up
MIN_OPS = 100  # so that op_ms_p90 has at least ten samples beyond it
TASKS = ("state", "rule", "trace")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import implang\n"
    "print(time.perf_counter() - t)\n"
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    ``q`` of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, p90, max)."""
    return statistics.median(values), percentile(values, 0.9), max(values)


def pin_to_one_core() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_workloads():
    """Import implang from this checkout's src/, then the workloads."""
    sys.path.insert(0, str(SRC))
    import implang

    origin = Path(implang.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"implang was imported from {origin}, not from {SRC}")
    import workloads

    return workloads


def import_seconds() -> float:
    """Time to import implang in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                            capture_output=True, text=True, check=True, timeout=60)
    return float(result.stdout)


def timed_setup(workload, seed: int, tracer):
    """One set-up: a fresh import plus input generation, in reference
    seconds.  The kernel also runs between programs; its time is not
    counted."""
    probe = speed.SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    seconds = import_seconds()
    probed = len(probe.samples)
    t0 = perf_counter()
    inputs = workload.setup(seed, tracer, probe)
    seconds += perf_counter() - t0 - sum(probe.samples[probed:])
    for _ in range(SETUP_PROBES):
        probe.sample()
    return inputs, seconds * probe.scale()


def run_passes(workload, inputs, tracer, seconds: float | None) -> list:
    """Whole passes in a closed loop: one, or as many as the last pass's
    wall time says will fit in ``seconds``."""
    passes = []
    start = last = perf_counter()
    while not passes or (seconds is not None and 2 * perf_counter() - start - last <= seconds):
        last = perf_counter()
        gc.collect()  # every pass starts from the same heap
        probe = speed.SpeedProbe()
        result = workload.run_pass(inputs, tracer, probe)
        result.scale = probe.scale()
        passes.append(result)
    return passes


def check_passes(passes, check) -> None:
    """Every pass must produce the same outputs as the first."""
    first = passes[0].outputs
    for k, later in enumerate(passes[1:], start=2):
        differ = sorted(key for key in first.keys() | later.outputs.keys()
                        if first.get(key) != later.outputs.get(key))
        check(not differ, f"pass {k} outputs differ from pass 1 at {differ[:5]}")


def output_digest(outputs: dict[str, str], sha) -> str:
    return sha(*(f"{key}={value}" for key, value in sorted(outputs.items())))


def traffic(workload, inputs, first_pass) -> dict:
    return {
        **workload.traffic(),
        "ops_per_pass": len(first_pass.ops),
        "task_mix": dict(Counter(op.key.split(".")[1] for op in first_pass.ops if "." in op.key)),
        "source_bytes_median_p90_max": spread([len(s.encode("utf-8")) for s in inputs.sources]),
        "sos_steps_median_p90_max": spread(inputs.steps),
    }


def end_to_end(setup_s: float, passes) -> dict[str, tuple[float, str]]:
    ops = [op for p in passes for op in p.ops]
    done = [op.seconds * p.scale for p in passes for op in p.ops if not op.error]
    busy = sum(p.busy_s * p.scale for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / busy, "1/s"),
        "op_ms_p50": (percentile(done, 0.5) * 1e3, "ms"),
        "op_ms_p90": (percentile(done, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (len(done) / len(ops), "ratio"),
    }


def src_loc() -> dict[str, int]:
    return {path.stem: len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((SRC / "implang").glob("*.py"))}


def per_layer(summary: dict[str, dict], modules, counts, overhead: float,
              spans: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the tracer's summary (times already scaled)."""
    empty = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0}

    def row(name: str) -> dict:
        return summary.get(name, empty)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: dict[str, tuple[float, str]] = {}
    for task in TASKS:
        out[f"scoring.score_batch.{task}.self_s"] = (row(f"scoring.score_batch.{task}")["self_s"], "s")
    out["scoring.parse_trace_answer.calls"] = (row("scoring.parse_trace_answer")["calls"], "count")
    out["scoring.parse_trace_answer.self_s"] = (row("scoring.parse_trace_answer")["self_s"], "s")
    for module, fn in (("sos", "run"), ("kengine", "k_run")):
        r = row(f"{module}.{fn}")
        out[f"{module}.{fn}.calls"] = (r["calls"], "count")
        out[f"{module}.{fn}.steps"] = (r["amount"], "count")
        out[f"{module}.{fn}.self_s"] = (r["self_s"], "s")
        out[f"{module}.steps_per_s"] = (per(r["amount"], r["self_s"]), "1/s")
    r = row("syntax.tokenize")
    out["syntax.tokenize.self_s"] = (r["self_s"], "s")
    out["syntax.tokenize.mb_per_s"] = (per(r["amount"] / 1e6, r["self_s"]), "MB/s")
    out["syntax.parse.self_s"] = (row("syntax.parse")["self_s"], "s")
    for fn in ("static_metrics", "halstead", "dep_degree"):
        out[f"metrics.{fn}.self_s"] = (row(f"metrics.{fn}")["self_s"], "s")
    r = row("metrics.static_metrics")
    out["metrics.ms_per_program"] = (per(r["total_s"] * 1e3, r["calls"]), "ms")
    for name in ("syntax.render_program", "mutation.transform_program",
                 "documents.semantics_text", "documents.ebnf_text"):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    r = row("tasks.render_prompt")
    out["tasks.render_prompt.self_s"] = (r["self_s"], "s")
    out["tasks.prompt_bytes"] = (per(r["amount"], r["calls"]), "bytes")
    for task in TASKS:
        out[f"tasks.build_instance.{task}.self_s"] = (row(f"tasks.build_instance.{task}")["self_s"], "s")
    out["tasks.sample_pred_rule.self_s"] = (row("tasks.sample_pred_rule")["self_s"], "s")
    out["tasks.build_instance.failed"] = (
        sum(row(f"tasks.build_instance.{task}")["failed"] for task in TASKS), "count")
    r = row("tasks.gold_trace_xml")
    out["tasks.gold_trace_xml.bytes"] = (per(r["amount"], r["calls"]), "bytes")
    out["tasks.TaskInstance.json.self_s"] = (
        row("tasks.TaskInstance.to_json")["self_s"] + row("tasks.TaskInstance.from_json")["self_s"],
        "s")
    r = row("fuzzer.sample_program")
    out["fuzzer.sample_program.calls"] = (r["calls"], "count")
    out["fuzzer.sample_program.self_s"] = (r["self_s"], "s")
    out["fuzzer.accept_ratio"] = (per(counts.accepted, counts.samples), "ratio")
    for module in modules:
        out[f"{module}.self_s"] = (
            sum(r["self_s"] for name, r in summary.items() if name.split(".")[0] == module), "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.spans"] = (spans, "count")
    loc = src_loc()
    out["src.loc"] = (sum(loc.values()), "lines")
    for stem, lines in loc.items():
        if not stem.startswith("_"):
            out[f"{stem}.loc"] = (lines, "lines")
    return out


def report(workload, inputs, passes, digest: str, sha) -> None:
    """Human-readable lines: traffic, passes, digest and failed ops."""
    print("traffic " + json.dumps(traffic(workload, inputs, passes[0])))
    print(f"passes {len(passes)}, busy {sum(p.busy_s for p in passes):.3f} s measured, "
          f"speed scale per pass {[round(p.scale, 4) for p in passes]}")
    print(f"digest sha256:{output_digest(passes[0].outputs, sha)} (inputs sha256:{digest})")
    failed = [op for op in passes[0].ops if op.error]
    attempted = len(passes[0].ops)
    kinds = Counter(op.error for op in failed)
    print(f"fail_ratio {len(failed) / attempted} ratio ({len(failed)} of {attempted} ops per pass"
          + "".join(f"; {kind} x{n}" for kind, n in kinds.most_common()) + ")")
    for op in sorted(failed, key=lambda op: op.program_seed):
        print(f"  failed op {op.key}: {op.error} at program seed {op.program_seed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_core()
    try:
        workloads = load_workloads()
    except ImportError as exc:
        print(f"error: cannot import implang from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")

    tracer = tracing.Tracer()
    attempted = failed = 0
    try:
        setups, digests = [], []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            inputs = None  # every set-up starts from the same heap
            gc.collect()
            inputs, seconds = timed_setup(workload, args.seed, tracer)
            setups.append(seconds)
            digests.append(inputs.digest())
        if args.trace:
            with tracer:
                inputs = None
                gc.collect()
                inputs, _ = timed_setup(workload, args.seed, tracer)
            digests.append(inputs.digest())
        workloads.check(len(set(digests)) == 1, "set-up inputs differ between repeats")
        # The inputs live as long as the run: keep them out of the
        # collector's way, as a long-running caller would.
        gc.collect()
        gc.freeze()
        if args.trace:
            # Untraced then traced, back to back on the same inputs; the
            # ratio of the two is the tracing overhead.
            untraced = run_passes(workload, inputs, tracer, None)[0]
            tracer.install()
        passes = run_passes(workload, inputs, tracer, None if args.trace else args.seconds)
        tracer.uninstall()
        check_passes([untraced, *passes] if args.trace else passes, workloads.check)
        ops = [op for p in passes for op in p.ops]
        attempted, failed = len(ops), sum(1 for op in ops if op.error)
        workloads.check(attempted >= MIN_OPS, f"only {attempted} ops, fewer than {MIN_OPS}")
    except workloads.CheckFailed as exc:
        tracer.uninstall()
        print(f"CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 1

    report(workload, inputs, passes, digests[0], workloads.sha)
    if args.trace:
        traced = passes[0]
        overhead = (traced.busy_s * traced.scale) / (untraced.busy_s * untraced.scale) - 1
        summary = tracer.summary()
        for row in summary.values():
            row["self_s"] *= traced.scale
            row["total_s"] *= traced.scale
        metrics = per_layer(summary, tracing.MODULES, inputs.counts, overhead, len(tracer.names))
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(statistics.median(setups), passes)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
