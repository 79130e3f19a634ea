"""firedss benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a firedss checkout; the program is imported from its
``src/``. Inputs come from the seed; the workload's jobs repeat in a closed
loop (one caller, one thread) for about ``--seconds``; every output is
checked. Times are stated at a reference machine speed (see speed.py):
each timed segment is scaled by a speed probe run around it, so that the
host's changes of speed do not show as program changes; the report keeps
the raw figures too. Earlier stdout lines hold a report (machine, inputs,
the workload's own metrics); the last line is the result object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list, measured untraced; with
``--trace 1`` they are its ``per_layer`` list, per job, from a run that
alternates untraced and traced jobs so that the tracing overhead is
measured on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

OUT = HERE / "out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_program():
    """Import firedss from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "firedss" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no firedss sources under {src}")
    sys.path.insert(0, str(src))
    import firedss
    if Path(firedss.__file__).resolve().parent != (src / "firedss").resolve():
        raise SystemExit(f"perfbench: imported firedss from {firedss.__file__}")


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tail(samples):
    """(percentile, value) by nearest rank: the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n, 6) / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def probe_round_us(rounds=200):
    """Each speed probe's round time now, in microseconds, beside its time
    at the reference speed: the machine's speed at the start and end of a
    run."""
    return {kind: {"now": speed.probe(kind, rounds) * 1e6,
                   "reference": speed.REFERENCE_ROUND_S[kind] * 1e6}
            for kind in speed.ROUNDS}


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "loadavg_1m": os.getloadavg()[0]}


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seconds, trace, tracer_mod):
    """Run jobs until the time is spent, each after ``setup_reps`` fresh
    set-ups, so that set-up samples spread over the run as job samples do;
    a job's set-ups are one timed segment, and its set-up sample is that
    segment's time over ``setup_reps``. Returns the timings needed for
    either metric list."""
    setup_tracer = run_tracer = None
    if trace:
        workload.probed = False
        setup_tracer, run_tracer = tracer_mod.Tracer(), tracer_mod.Tracer()
        with tracer_mod.installed(setup_tracer):
            workload.setup()
    setup_clock = speed.LapClock(*workload.probe())
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        job_start = time.perf_counter()
        setup_clock.start()
        for _ in range(workload.setup_reps):
            state = workload.setup()
        setup_clock.lap()
        if trace and len(plain) > len(traced):
            with tracer_mod.installed(run_tracer):
                traced.append(workload.job(state, run_tracer))
        else:
            plain.append(workload.job(state))
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - job_start
        if elapsed + last > seconds and (traced or not trace):
            break
    return setup_clock, plain, traced, setup_tracer, run_tracer


def end_to_end(workload, setup_clock, jobs):
    """BENCHMARK.json's end-to-end metrics at the reference speed, the same
    as measured, and the operation tail, which is reported but not bounded
    (see README.md)."""
    op_ms = [ms for job in jobs for ms in job.op_ms]
    if not op_ms:
        raise RuntimeError("no operation completed; see the errors above")
    metrics = {
        "setup_s": _median(setup_clock.scaled) / workload.setup_reps,
        "items_per_s": _median([job.items / job.wall_s for job in jobs]),
        "op_p50_ms": _median(op_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": _median(setup_clock.raw) / workload.setup_reps,
        "items_per_s": _median([job.items / job.raw_wall_s for job in jobs]),
        "op_p50_ms": _median([ms for job in jobs for ms in job.raw_op_ms]),
    }
    return metrics, raw, tail(op_ms), len(op_ms)


_SPAN_MS = ("rules.evaluate", "stream.checkpoint_save", "stream.sink",
            "stream.record_facts", "fwi.compute_codes", "fwi.classify",
            "ingest.iter_records", "ingest.parse_dataset", "semweb.csv_to_graph",
            "semweb.serialize", "semweb.parse_ntriples", "semweb.execute",
            "retrieval.embed")
_SPAN_CALLS = ("rules.evaluate", "stream.checkpoint_save", "semweb.execute",
               "retrieval.embed", "retrieval.search")
_SPAN_SELF = ("stream.batch_evaluate", "retrieval.search")
_COUNTS = ("rules.facts_in", "rules.facts_derived", "stream.alerts_out",
           "ingest.records", "semweb.ntriples_bytes", "semweb.triples",
           "semweb.rows_out", "semweb.type_clashes", "retrieval.embed.bytes",
           "retrieval.docs_scanned")
_SETUP_SELF = ("rules", "fwi", "semweb", "retrieval")


def per_layer(plain, traced, setup_tracer, run_tracer, tracer_mod):
    """Per-job means over the traced jobs, plus the traced set-up."""
    jobs = len(traced)
    spans, layer_self, by_op = run_tracer.summary()

    def span(name, key):
        return spans.get(name, {}).get(key, 0) / jobs

    metrics = {}
    for name in _SPAN_MS:
        metrics[f"{name}.ms"] = span(name, "ms")
    for name in _SPAN_CALLS:
        metrics[f"{name}.calls"] = span(name, "calls")
    for name in _SPAN_SELF:
        metrics[f"{name}.self_ms"] = span(name, "self_ms")
    for name in _COUNTS:
        metrics[name] = run_tracer.counts.get(name, 0) / jobs
    from workloads import SHAPES
    for shape in SHAPES:
        metrics[f"semweb.execute.{shape}.ms"] = by_op.get(
            (f"op.{shape}", "semweb.execute"), 0.0) / jobs
    for layer in tracer_mod.LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self[layer] / jobs

    setup_spans, setup_layer_self, _ = setup_tracer.summary()
    for layer in _SETUP_SELF:
        metrics[f"setup.{layer}.self_ms"] = setup_layer_self[layer]
    metrics["setup.semweb.parse_query.ms"] = setup_spans.get(
        "semweb.parse_query", {}).get("ms", 0.0)
    metrics["setup.retrieval.embed.ms"] = setup_spans.get(
        "retrieval.embed", {}).get("ms", 0.0)

    # A traced run probes nothing (spans must not hold probes), so the
    # trace figures are raw wall times.
    traced_ms = statistics.mean(job.raw_wall_s for job in traced) * 1000.0
    plain_ms = statistics.mean(job.raw_wall_s for job in plain) * 1000.0
    metrics["trace.wall_ms"] = traced_ms
    metrics["trace.untraced_wall_ms"] = plain_ms
    metrics["trace.overhead_pct"] = (
        statistics.median(j.raw_wall_s for j in traced)
        / statistics.median(j.raw_wall_s for j in plain) - 1.0) * 100.0
    metrics["trace.self_sum_ms"] = sum(layer_self.values()) / jobs
    metrics["trace.spans"] = len(run_tracer.spans) / jobs

    named = {n: v["self_ms"] for n, v in spans.items() if not n.startswith("op.")}
    top = max(named, key=named.get) if named else None
    return metrics, {"largest_self_span": top, "traced_jobs": jobs,
                     "untraced_jobs": len(plain)}


def _number(value):
    return int(value) if isinstance(value, float) and value.is_integer() and abs(value) < 2**53 else value


def run(workload_name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (report, result)."""
    import tracer as tracer_mod
    import workloads

    sizes = sizes or workloads.FULL
    e2e_units, layer_units = metric_units()
    info = machine()
    info["pinned_cpu"] = speed.pin_to_one_cpu()
    info["probe_round_us"] = probe_round_us()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[workload_name](workdir, seed, sizes)
        setup_clock, plain, traced, setup_tracer, run_tracer = measure(
            workload, seconds, trace, tracer_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = plain + traced
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    e2e, raw, (tail_pct, tail_ms), op_samples = end_to_end(workload, setup_clock, plain)
    info["probe_round_end_us"] = probe_round_us()
    named = {
        f"{workload.item_name}_per_s": (e2e["items_per_s"], "1/s"),
        f"{workload.op_name}_p50_ms": (e2e["op_p50_ms"], "ms"),
        f"{workload.op_name}_tail_ms": (tail_ms, "ms"),
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "failed_ratio": (failed / attempted if attempted else 1.0, "ratio"),
    }
    phases = {}
    for job in plain:
        for name, values in job.phases.items():
            phases.setdefault(name, []).extend(values)
    for name, values in phases.items():
        named[name] = (_median(values), "s" if name.endswith("_s") else "ms")
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": info, "inputs": workload.inputs,
        "jobs": len(jobs), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": e2e[name], "unit": e2e_units[name]} for name in e2e},
        "workload_metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "raw_metrics": {name: {"value": raw[name], "unit": e2e_units[name]} for name in raw},
        "tail_percentile": tail_pct, "op_samples": op_samples,
    }
    if trace:
        metrics, detail = per_layer(plain, traced, setup_tracer, run_tracer, tracer_mod)
        units = layer_units
        path = OUT / f"trace-{workload_name}-seed{seed}.jsonl"
        setup_tracer.write(path.with_suffix(".setup.jsonl"))
        run_tracer.write(path)
        report.update(detail, trace_file=str(path.relative_to(ROOT)))
    else:
        metrics, units = e2e, e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One thread per workload: with its default, OpenBLAS keeps a worker
    # thread spinning on a second CPU during the matrix-vector product in
    # search, which makes advise timings depend on the other CPU's load.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
