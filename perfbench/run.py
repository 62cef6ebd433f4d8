#!/usr/bin/env python3
"""itfkan's benchmark: three workloads, their end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics measured with every span hook off; ``--trace 1`` runs
traced and untraced ops alternately and reports the per-layer metrics and
the tracing overhead. See README.md beside this file.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("train-ref", "forecast-ref", "pipeline-toy")
SETUP_REPEATS = 7  # and at least SETUP_SECONDS of them
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it

END_TO_END = {  # name -> unit; every workload reports each of them
    "op_p50_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics of the JSON line, reported for every workload. A layer
# that a workload never calls reads 0 there.
PER_LAYER = {
    "model.forward_ms": "ms",
    "model.forward_nograd_ms": "ms",
    "model.loss_ms": "ms",
    "tensor.backward_ms": "ms",
    "optim.adam_ms": "ms",
    "decomposition.embed_ms": "ms",
    "decomposition.decompose_ms": "ms",
    "taylorkan.trend_ms": "ms",
    "taylorkan.seasonal_ms": "ms",
    "tfsynergy.patch_ms": "ms",
    "tfsynergy.dft_expand_ms": "ms",
    "tfsynergy.patch_kans_ms": "ms",
    "tfsynergy.unpatch_ms": "ms",
    "model.forward_coverage_pct": "%",
    "interpret.calibrate_ms": "ms",
    "interpret.prune_ms": "ms",
    "interpret.fit_edge_p50_ms": "ms",
    "interpret.fit_edge_tail_ms": "ms",
    "interpret.good_fit_ratio": "ratio",
    "tensor.achieved_gflops": "GFLOP/s",
    "data.ingest_ms": "ms",
    "data.windows_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "metrics.metric_set_ms": "ms",
    "trace.overhead_pct": "%",
    "tensor.tape_nodes": "count",
    "tensor.ops.matmul": "count",
    "tensor.ops.mul": "count",
    "tensor.ops.add": "count",
    "tensor.ops.permute": "count",
    "tensor.ops.reshape": "count",
    "tensor.ops.slice": "count",
    "tensor.ops.concat": "count",
    "tensor.ops.sum": "count",
    "tensor.matmul_gflop": "GFLOP",
    "model.params": "count",
    "checkpoint.bytes": "bytes",
    "interpret.edges_at_ref_tau": "count",
}
# Busy time per op of each layer: sum of its spans' durations / traced ops.
PER_OP_SPANS = {
    "model.forward_ms": ["model.forward"],
    "model.forward_nograd_ms": ["model.forward_nograd"],
    "model.loss_ms": ["model.loss"],
    "tensor.backward_ms": ["tensor.backward"],
    "optim.adam_ms": ["optim.adam"],
    "decomposition.embed_ms": ["decomposition.embed"],
    "decomposition.decompose_ms": ["decomposition.decompose"],
    "taylorkan.trend_ms": ["taylorkan.trend"],
    "taylorkan.seasonal_ms": ["taylorkan.seasonal"],
    "tfsynergy.patch_ms": ["tfsynergy.patch"],
    "tfsynergy.dft_expand_ms": ["tfsynergy.dft", "tfsynergy.expand"],
    "tfsynergy.patch_kans_ms": ["tfsynergy.patch_kans"],
    "tfsynergy.unpatch_ms": ["tfsynergy.unpatch"],
    "interpret.calibrate_ms": ["interpret.calibrate"],
    "interpret.prune_ms": ["interpret.prune"],
    "interpret.fit_ms": ["interpret.fit_edge"],
}
COMPONENTS = [
    "decomposition.embed_ms", "decomposition.decompose_ms", "taylorkan.trend_ms",
    "taylorkan.seasonal_ms", "tfsynergy.patch_ms", "tfsynergy.dft_expand_ms",
    "tfsynergy.patch_kans_ms", "tfsynergy.unpatch_ms",
]
# Median duration of one call, over every call in the run.
PER_CALL_SPANS = {
    "data.ingest_ms": "data.ingest",
    "data.windows_ms": "data.windows",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "metrics.metric_set_ms": "metrics.metric_set",
}
# Counts that depend on the seed as well as on the code.
SEED_COUNTS = ("interpret.edges_at_ref_tau",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def limit_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)
    return nproc


def source_digest(*tops):
    """sha256 over the Python sources under the given directories."""
    digest = hashlib.sha256()
    for top in tops:
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".pyx")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def metadata(nproc):
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        from itfkan import kernels

        backend = kernels.BACKEND
    except (ImportError, AttributeError):
        backend = "none"
    return {
        "commit": commit,
        "source_sha256": source_digest(os.path.join(SRC, "itfkan")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernels_backend": backend,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def tail(samples):
    """(value, percentile, n) of the highest percentile with TAIL_BEYOND
    samples above it, or value None when that percentile is below 50."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None, None, n
    k = n - TAIL_BEYOND - 1
    return sorted(samples)[k], 100.0 * (k + 1) / n, n


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def fmt(value):
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_counts(workload, seed, counts, digest):
    """Counts must repeat exactly across runs of the same program and
    benchmark sources; the first run records them. Returns (ok, note)."""
    path = os.path.join(OUT_DIR, "counts.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    keys = {
        f"{digest}/{workload}": {k: v for k, v in counts.items() if k not in SEED_COUNTS},
        f"{digest}/{workload}/seed{seed}": {k: counts.get(k) for k in SEED_COUNTS},
    }
    diffs = []
    for key, values in keys.items():
        previous = known.setdefault(key, values)
        diffs += [f"{k}: {previous.get(k)} -> {v}" for k, v in values.items()
                  if previous.get(k) != v]
    if diffs:
        return False, "MISMATCH with an earlier run: " + "; ".join(diffs)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True, "repeat exactly"


def layer_metrics(tracer, traced, untraced, counts, rows):
    """Per-layer metrics from the spans of the traced ops."""
    ops = {i for i, _ in traced}
    n_ops = len(ops)
    busy = {name: 0.0 for name in PER_OP_SPANS}
    span_of = {s: m for m, names in PER_OP_SPANS.items() for s in names}
    calls = {name: [] for name in PER_CALL_SPANS}
    call_of = {s: m for m, s in PER_CALL_SPANS.items()}
    fit_ms, fwd_rows = [], {"model.forward": 0, "model.forward_nograd": 0}
    for name, start, end, parent, op, n_rows in tracer.spans:
        ms = 1e3 * (end - start)
        if name in call_of:
            calls[call_of[name]].append(ms)
        if op not in ops:
            continue
        if name in span_of:
            busy[span_of[name]] += ms / n_ops
        if name == "interpret.fit_edge":
            fit_ms.append(ms)
        if name in fwd_rows:
            fwd_rows[name] += n_rows
    out = dict(busy)
    forward = busy["model.forward_ms"] + busy["model.forward_nograd_ms"]
    out["model.forward_coverage_pct"] = (
        100.0 * sum(busy[c] for c in COMPONENTS) / forward if forward else 0.0
    )
    for metric, values in calls.items():
        out[metric] = statistics.median(values) if values else 0.0
    fit_tail, pct, n = tail(fit_ms)
    out["interpret.fit_edge_p50_ms"] = statistics.median(fit_ms) if fit_ms else 0.0
    out["interpret.fit_edge_tail_ms"] = fit_tail if fit_tail is not None else 0.0
    out["interpret.fit_edge_tail_pct"] = pct or 0.0
    out["interpret.fit_edge_samples"] = n
    # matmul FLOPs scale with batch rows; a taped forward that is
    # backpropagated runs its matmuls three times (forward, two gradients)
    per_row = counts.get("tensor.matmul_gflop", 0.0) / rows if rows else 0.0
    gflop = per_row * (3 * fwd_rows["model.forward"] + fwd_rows["model.forward_nograd"])
    seconds = (forward + busy["tensor.backward_ms"]) * n_ops / 1e3
    out["tensor.achieved_gflops"] = gflop / seconds if seconds else 0.0
    t_on = statistics.median(t for _, t in traced)
    t_off = statistics.median(t for _, t in untraced) if untraced else t_on
    out["trace.overhead_pct"] = 100.0 * (t_on - t_off) / t_off
    out["trace.overhead_s"] = t_on - t_off
    out.update(counts)
    return out


def run_workload(args):
    nproc = limit_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "itfkan", "__init__.py")):
        print(f"perfbench: no itfkan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import itfkan

    if not os.path.abspath(itfkan.__file__).startswith(SRC + os.sep):
        print(f"perfbench: itfkan resolved outside {SRC}", file=sys.stderr)
        return 2
    import workloads
    from hooks import GradGate, GraphCounter, Tracer

    meta = metadata(nproc)
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    counter, gate, tracer = GraphCounter(), GradGate(), Tracer()
    counter.patches.on()
    gate.patches.on()
    try:
        if args.workload == "train-ref":
            wl = workloads.TrainRef(work, args.seed, gate)
        elif args.workload == "forecast-ref":
            wl = workloads.ForecastRef(work, args.seed)
        else:
            wl = workloads.PipelineToy(work, args.seed, tracer)

        wl.prepare()  # the harness writes the inputs, untimed
        setup_times = []
        if args.trace:
            tracer.patches.on()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        tracer.patches.off()

        clock = time.perf_counter
        gc.collect()
        counter.arm()
        outcome = wl.op(0, clock)  # warm-up, untimed
        attempted = 1
        failed = int(not outcome.ok)
        # (op index, seconds) per op; with --trace 1 every other op is traced
        measured, traced, untraced, outcomes = [], [], [], []
        i = 1
        start = clock()
        while True:
            trace_this = args.trace == 1 and len(measured) % 2 == 0
            if trace_this:
                tracer.op = i
                tracer.patches.on()
            gc.collect()  # start every op from the same heap, untimed
            counter.arm()
            op_start = clock()
            try:
                outcome = wl.op(i, clock)
            except Exception as exc:  # a failed op is counted, the run goes on
                print(f"perfbench: op {i} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                outcome = workloads.Outcome(clock() - op_start, False)
            finally:
                tracer.patches.off()
            attempted += 1
            failed += not outcome.ok
            outcomes.append(outcome)
            measured.append(outcome.seconds)
            (traced if trace_this else untraced).append((i, outcome.seconds))
            i += 1
            # a traced run needs a traced and an untraced op for the overhead
            if (len(measured) > args.trace
                    and clock() - start + statistics.median(measured) > args.seconds):
                break
        peak_mb = peak_rss_mb()  # before the checks, which may build a tape
        checks = wl.run_checks(counter)
        extra = wl.summary()
        counts = {**counter.counts, **wl.counts}
        counts_ok, counts_note = check_counts(
            args.workload, args.seed, counts,
            source_digest(os.path.join(SRC, "itfkan"), BENCH_DIR),
        )
        checks += [
            ("tape counts repeat across steps", counter.mismatches == 0),
            ("counts repeat across runs", counts_ok),
        ]
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
    finally:
        tracer.patches.off()
        gate.patches.off()
        counter.patches.off()
        shutil.rmtree(work, ignore_errors=True)

    op_p50 = statistics.median(measured)
    e2e = {
        "op_p50_s": op_p50,
        "rows_per_s": wl.rows_per_op / op_p50,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }
    step_tail, tail_pct, n = tail(measured)
    named = {}  # the workload's end-to-end metrics under their own names
    if args.workload == "pipeline-toy":
        stage = {s: median_or_nan([o.stages[s] for o in outcomes if s in o.stages])
                 for s in ("train", "eval", "report")}
        e2e["rows_per_s"] = wl.rows_per_op / stage["train"]
        named.update({f"pipeline.{s}_s": (v, "s") for s, v in stage.items()})
        named["pipeline.test_mse"] = (extra.get("test_mse"), "-")
        named["pipeline.fit_r2_p10"] = (extra.get("fit_r2_p10"), "-")
    else:
        prefix = "train" if args.workload == "train-ref" else "forecast"
        named[f"{prefix}.rows_per_s"] = (e2e["rows_per_s"], "rows/s")
        named[f"{prefix}.{wl.op_label}_p50_s"] = (op_p50, "s")
        named[f"{prefix}.{wl.op_label}_tail_s"] = (step_tail, "s")
    named["setup_s"] = (e2e["setup_s"], "s")
    named["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    named["failed_ratio"] = (failed / attempted, "-")

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in named.items():
        print(f"{name:28s} {fmt(value):>12s} {unit}")
    tail_note = (f"p{tail_pct:.0f}" if tail_pct is not None
                 else f"none: a tail needs {2 * TAIL_BEYOND} samples")
    print(f"# {len(measured)} ops ({wl.op_label}) measured, tail {tail_note}; "
          f"{failed}/{attempted} failed")
    for what, ok in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {what}")
    print("# counts " + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" ({counts_note})")

    result = {"meta": meta, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "named": named,
              "end_to_end": e2e, "counts": counts, "op_seconds": measured,
              "tail": {"percentile": tail_pct, "samples": n},
              "op_stages": [o.stages for o in outcomes]}
    if args.trace:
        layers = layer_metrics(tracer, traced, untraced, counts, wl.graph_rows)
        layers.update(extra)
        result["per_layer"] = layers
        print_layers(tracer, traced, layers)
        trace_path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.tsv")
        tracer.write(trace_path)
        print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    with open(os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}"
                                    f"_trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     default=float))
    return 0


def print_layers(tracer, traced, layers):
    ops = {i for i, _ in traced}
    totals = {}
    for (name, start, end, _, op, _), own in zip(tracer.spans, tracer.self_times()):
        if op in ops:
            calls, incl, excl = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, incl + end - start, excl + own)
    print(f"# per traced op ({len(ops)} ops): span, calls, inclusive ms, self ms")
    n = len(ops)
    for name, (calls, incl, excl) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"#   {name:28s} {calls / n:8.1f} {1e3 * incl / n:11.3f}"
              f" {1e3 * excl / n:11.3f}")
    print("# per-layer metrics")
    for name, value in layers.items():
        print(f"#   {name:32s} {fmt(value)}")


def run_all(args):
    """Every workload in a fresh process, then one table of their metrics."""
    code = 0
    named = {}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
        path = os.path.join(OUT_DIR, f"result_{workload}_seed{args.seed}"
                                     f"_trace{args.trace}.json")
        with open(path, encoding="utf-8") as fh:
            named[workload] = json.load(fh)["named"]
    print("\n# end-to-end metrics by workload")
    for workload, values in named.items():
        for name, (value, unit) in values.items():
            print(f"{workload:14s} {name:28s} {fmt(value):>12s} {unit}")
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
