#!/usr/bin/env python3
"""respden benchmark: train, held-out evaluation and WAV ingest.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest [--seed 7]

Workloads: ``train-synth``, ``eval-heldout`` and ``ingest-wav`` (see
`workloads.py`).  The program is imported from ``src/`` next to this
directory, never from an installed copy.  BLAS and OpenMP are pinned to one
thread before numpy is imported.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` every other operation of the loop runs traced, and the
run reports per-layer metrics (median ms per call, exact counts) plus the
tracing overhead, traced minus untraced operations; the spans go to
``.perfbench_out/``.  Every run first sets up its inputs several times,
each time in a forked child process, reports the median set-up time, and
checks its outputs after the timed loop.  Peak RSS is that of the parent:
imports, the inputs handed over and the timed loop.

Timings in the result line are at reference machine speed: each run also
times a fixed calibration kernel between its operations and scales every
timing by the kernel's slowdown at that moment (see `calibrate.py`).  The
report prints the wall-clock figures next to them.

A human-readable report comes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 when every correctness gate passes, 1 when one
fails, 2 when the sources or arguments are missing.
"""

import os
import sys
import time

_START = time.perf_counter()
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402  (the thread pins must precede any numpy import)
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
DEFAULT_SEED = 0

#: figures of one timed loop (see e2e_numbers) and their units
LOOP_UNITS = {"throughput_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms"}
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms",
                    "peak_rss_mb": "MB"}

#: per-layer timings: metric name -> span name (median ms per call)
LAYER_SPANS = {
    "tensor.backward_ms": "tensor.backward",
    "optim.adam_step_ms": "optim.adam_step",
    "freq_filter.filter_forward_ms": "freq_filter.filter_forward",
    "fourier.fft2_ms": "fourier.fft2",
    "freq_filter.mask_net_ms": "freq_filter.mask_net",
    "freq_filter.symmetrize_ms": "freq_filter.symmetrize",
    "tensor.soft_shrink_ms": "tensor.soft_shrink",
    "fourier.ifft2_ms": "fourier.ifft2",
    "attention.backbone_forward_ms": "attention.backbone_forward",
    "attention.patch_embed_ms": "attention.patch_embed",
    "attention.mhda_ms": "attention.mhda",
    "tensor.swish_glu_ms": "tensor.swish_glu",
    "losses.total_loss_ms": "losses.total_loss",
    "losses.cls_logits_ms": "losses.cls_logits",
    "model.predict_ms": "model.predict",
    "train.evaluate_indices_ms": "train.evaluate_indices",
    "train.prepare_data_ms": "train.prepare_data",
    "checkpoint.save_checkpoint_ms": "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint_ms": "checkpoint.load_checkpoint",
    "datasets.load_dataset_ms": "datasets.load_dataset",
    "wavio.read_wav_ms": "wavio.read_wav",
    "datasets.parse_annotation_file_ms": "datasets.parse_annotation_file",
    "audio.resample_ms": "audio.resample",
    "audio.fix_length_ms": "audio.fix_length",
    "audio.normalize_amplitude_ms": "audio.normalize_amplitude",
    "audio.mel_spectrogram_ms": "audio.mel_spectrogram",
}
#: exact per-operation counts: metric name -> unit
LAYER_COUNTS = {
    "tensor.ops_per_step": "count",
    "tensor.ops_per_clip": "count",
    "checkpoint.bytes": "bytes",
    "wavio.bytes_read": "bytes",
    "datasets.cycles_ingested": "count",
}
PER_LAYER_UNITS = {**{name: "ms" for name in LAYER_SPANS}, **LAYER_COUNTS,
                   "trace.overhead_pct": "%"}

#: the report prints each workload's end-to-end figures under the names
#: users know them by: workload -> {figure of e2e_numbers: (name, unit)}
REPORT_NAMES = {
    "train-synth": {"throughput_per_s": ("train_samples_per_s", "samples/s")},
    "eval-heldout": {"throughput_per_s": ("eval_clips_per_s", "clips/s"),
                     "latency_ms_p50": ("predict_ms_p50", "ms"),
                     "latency_ms_p90": ("predict_ms_p90", "ms")},
    "ingest-wav": {"throughput_per_s": ("ingest_clips_per_s", "clips/s")},
}
#: figures every workload's report prints under their own name
COMMON_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "fraction"}


def import_program() -> float:
    """Import numpy and respden from this checkout; returns seconds since start."""
    if not os.path.isfile(os.path.join(SRC, "respden", "__init__.py")):
        print(f"error: no respden sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import respden

    if os.path.dirname(os.path.dirname(os.path.abspath(respden.__file__))) != SRC:
        print(f"error: respden imported from {respden.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return time.perf_counter() - _START


def openblas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "openblas_threads": openblas_threads(),
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload run ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def e2e_numbers(stats, traced: bool, calibrator=None) -> dict:
    """Median rate and latency percentiles; at reference speed with a calibrator."""
    latencies = stats.latency_samples(traced, calibrator)
    return {"throughput_per_s": statistics.median(stats.rate_samples(traced, calibrator)),
            "latency_ms_p50": statistics.median(latencies),
            "latency_ms_p90": percentile(latencies, 90)}


def repeated(label: str, values: list, mismatched: list[str]):
    """The one value every traced operation gave; a mismatch fails a gate."""
    values = [v for v in values if v is not None]
    if any(v != values[0] for v in values):
        mismatched.append(f"{label}: {values}")
    return values[0] if values else 0


def ops_per(counts: dict, phase: str, per_span: str) -> dict | None:
    """Graph nodes made in one operation, by op label, per call of `per_span`."""
    n = counts["calls"].get(per_span, 0)
    if not n:
        return None
    return {label: k / n for label, k in sorted(counts["ops"][phase].items())}


def layer_metrics(tracer, stats) -> tuple[dict, dict, list[str]]:
    summary = tracer.summary()
    metrics = {name: summary.get(span, {}).get("median_ms", 0.0)
               for name, span in LAYER_SPANS.items()}
    mismatched: list[str] = []
    per_step = repeated("ops_per_step", [ops_per(c, "step", "optim.adam_step") for c in stats.counts],
                        mismatched) or {}
    per_clip = repeated("ops_per_clip", [ops_per(c, "clip", "model.predict") for c in stats.counts],
                        mismatched) or {}
    metrics["tensor.ops_per_step"] = sum(per_step.values())
    metrics["tensor.ops_per_clip"] = sum(per_clip.values())
    for metric, key in (("checkpoint.bytes", "checkpoint_bytes"), ("wavio.bytes_read", "bytes_read"),
                        ("datasets.cycles_ingested", "cycles")):
        metrics[metric] = repeated(metric, [c.get(key) or None for c in stats.counts], mismatched)
    untraced, traced = e2e_numbers(stats, False), e2e_numbers(stats, True)
    metrics["trace.overhead_pct"] = (untraced["throughput_per_s"] / traced["throughput_per_s"] - 1) * 100
    detail = {"ops_per_step": per_step, "ops_per_clip": per_clip, "spans": summary,
              "untraced": untraced, "traced": traced}
    return metrics, detail, mismatched


def set_up(wl, calibrator, path: str):
    """Set the workload up SETUP_REPS times, each in a forked child, then load its inputs.

    Set-up holds memory the timed loop never needs (raw synth audio, the
    model that writes the evaluation checkpoint).  Kept in a child, it
    stays out of this process's peak RSS, which is then imports plus the
    inputs handed over plus the timed loop.  Returns the workload with its
    inputs, the child set-up times and the time to load the inputs.
    """
    times = []
    for _ in range(SETUP_REPS):
        calibrator.sample()
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                wl.setup()
                with open(path, "wb") as fh:
                    pickle.dump(wl, fh, protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"set-up failed in child process {pid}")
        times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with open(path, "rb") as fh:
        wl = pickle.load(fh)
    load_s = time.perf_counter() - t0
    calibrator.sample()
    return wl, times, load_s


def run_workload(name: str, seed: int, seconds: float, trace: bool, minimal: bool,
                 import_s: float) -> tuple[dict, dict]:
    """Set up, time and check one workload; prints the report, returns the result line."""
    import workloads
    from calibrate import NOMINAL_S, Calibrator
    from tracer import Tracer

    env = environment(seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, minimal, workdir)
        calibrator = Calibrator()
        wl, setup_times, load_s = set_up(wl, calibrator, os.path.join(workdir, "inputs.pickle"))
        setup_s = import_s + statistics.median(setup_times) + load_s
        setup_ref = setup_s / statistics.median(calibrator.times) * NOMINAL_S
        setup_rss = peak_rss_mb()

        tracer = Tracer() if trace else None
        stats = wl.run(seconds, tracer, calibrator)
        rss = peak_rss_mb()
        gates = wl.gates()
        gates["no_failed_operations"] = stats.errors
        completed = bool(stats.rate_samples()) and bool(stats.latency_samples())

        print(f"env {json.dumps(env, sort_keys=True)}")
        print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
              f"minimal {int(minimal)}  closed loop, 1 client, 1 process")
        print(f"set-up: import {import_s:.3f} s + median of {SETUP_REPS} x "
              f"{[round(t, 3) for t in setup_times]} s in child processes + load {load_s:.3f} s")
        print(f"machine slowdown: median {calibrator.slowdown():.4f}, range "
              f"{min(calibrator.times) / NOMINAL_S:.3f}-{max(calibrator.times) / NOMINAL_S:.3f} "
              f"x reference speed over {len(calibrator.times)} calibration samples")
        print(f"peak RSS: {setup_rss:.1f} MB after loading the inputs, {rss:.1f} MB after the timed loop")
        share = stats.failed / max(stats.attempted, 1)
        named = {"setup_s": (setup_s, setup_ref, SETUP_REPS), "peak_rss_mb": (rss, rss, 1),
                 "failed_share": (share, share, stats.attempted)}
        wall = ref = {}
        if completed:
            wall, ref = e2e_numbers(stats, False), e2e_numbers(stats, False, calibrator)
        for figure, value in wall.items():
            samples = stats.rate_samples() if figure == "throughput_per_s" else stats.latency_samples()
            named[figure] = (value, ref[figure], len(samples))
        print("metrics: wall clock, then at reference speed")
        printed = {}
        for figure, (value, at_ref, n) in named.items():
            default = (figure, COMMON_UNITS.get(figure) or LOOP_UNITS[figure])
            metric, unit = REPORT_NAMES[name].get(figure, default)
            scaled = f"{at_ref:.6g} at reference speed, " if at_ref != value else ""
            print(f"metric {metric} = {value:.6g} {unit}  ({scaled}n={n})")
            printed[metric] = unit

        metrics: dict = {}
        if trace:
            metrics, detail, mismatched = layer_metrics(tracer, stats)
            gates["counts_repeat_exactly"] = mismatched
            print_layers(metrics, detail)
            trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}-{os.getpid()}.json")
            tracer.write(trace_path)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
            units = PER_LAYER_UNITS
        else:
            if completed:
                metrics = {"setup_s": setup_ref, **ref, "peak_rss_mb": rss}
            units = END_TO_END_UNITS

        correct = completed and not any(gates.values())
        for gate, problems in gates.items():
            print(f"gate {gate}: {'ok' if not problems else 'FAIL'}")
            for problem in problems[:5]:
                print(f"  {problem}")
        result = {"correct": correct, "attempted": stats.attempted, "failed": stats.failed,
                  "metrics": {m: {"value": metrics.get(m, 0.0), "unit": u} for m, u in units.items()}}
        return result, printed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_layers(metrics: dict, detail: dict) -> None:
    print("layer spans (traced operations): name, calls, median ms/call, total ms, self ms")
    for span, s in sorted(detail["spans"].items(), key=lambda kv: -kv[1]["total_ms"]):
        print(f"  {span:34s} {s['calls']:7d} {s['median_ms']:10.4f} {s['total_ms']:11.2f} "
              f"{s['self_ms']:11.2f}")
    for what in ("ops_per_step", "ops_per_clip"):
        ops = detail[what]
        if ops:
            breakdown = ", ".join(f"{k} {v:g}" for k, v in sorted(ops.items(), key=lambda kv: -kv[1]))
            print(f"{what} {sum(ops.values()):g}: {breakdown}")
    for metric, value in metrics.items():
        print(f"layer {metric} = {value:.6g} {PER_LAYER_UNITS[metric]}")
    for what, untraced in detail["untraced"].items():
        traced = detail["traced"][what]
        print(f"trace overhead {what}: traced {traced:.6g} - untraced {untraced:.6g} = "
              f"{traced - untraced:+.6g} {LOOP_UNITS[what]}")


# -- self-test -------------------------------------------------------------------------


def selftest(seed: int, import_s: float) -> int:
    """Every workload at minimal size, traced and untraced: metrics, units, gates."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(REPORT_NAMES):
        problems.append(f"BENCHMARK.json workloads {declared} != {sorted(REPORT_NAMES)}")
    for name in REPORT_NAMES:
        for trace in (False, True):
            result, printed = run_workload(name, seed, 0.4, trace, True, import_s)
            want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {int(trace)}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {int(trace)}: {json.dumps(result)}")
            want = {**COMMON_UNITS, **dict(REPORT_NAMES[name].values())}
            if not want.items() <= printed.items():
                problems.append(f"{name}: report metrics {printed} lack {want}")
    for problem in problems:
        print(f"selftest FAIL {problem}")
    print(f"selftest {'ok' if not problems else 'FAILED'} (seed {seed})")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=tuple(REPORT_NAMES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at minimal size and check the metrics")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    import_s = import_program()
    if args.selftest:
        return selftest(args.seed if args.seed != DEFAULT_SEED else 7, import_s)
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
