"""Benchmark of the dualcap pipeline: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-readme --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up three times (``setup_s`` is the median), measures
the closed loop of workloads.py for ``--seconds`` with nothing wrapped,
and reports the end-to-end metrics of BENCHMARK.json.  Times are scaled
to a host of fixed speed by the probe readings of workloads.HostSpeed.  ``--trace 1`` sets
up once, measures half the time as before and half with the span wraps
of tracer.py installed, and reports the per-layer metrics.  Lines before
the last describe the machine and every metric by name and unit; the
last line is the JSON result.  Exits 2 without a result when the dualcap
sources are not in the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# BLAS reads these when numpy loads it; numpy is first imported in main(), after this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRACE_SLICES = 2
TRAIN = ("train",)
GREEDY = ("greedy",)
BEAM4 = ("beam4",)
EVAL = ("eval",)
CAPTION = ("greedy", "beam4", "eval")


def environment(seed: int) -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    pins = " ".join(f"{v}={os.environ[v]}" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return (
        f"env {pins} nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
        f"blas={blas!r} machine={platform.machine()} seed={seed}"
    )


def quantile(xs: list[float], q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1] if len(xs) > 1 else xs[0]


def loop_metrics(rec) -> dict[str, float]:
    """Medians, p90s and rates over every sample of the timed loop."""
    values = {}
    if rec.step_s:
        values["train_steps_per_s"] = rec.train_steps / sum(rec.train_s)
        values["train_step_ms_p50"] = 1e3 * quantile(rec.step_s, 0.5)
        values["train_step_ms_p90"] = 1e3 * quantile(rec.step_s, 0.9)
        values["train_loss_final"] = rec.loss_final
    for kind in ("greedy", "beam4"):
        if rec.request_s[kind]:
            values[f"caption_{kind}_ms_p50"] = 1e3 * quantile(rec.request_s[kind], 0.5)
            values[f"caption_{kind}_ms_p90"] = 1e3 * quantile(rec.request_s[kind], 0.9)
    if rec.eval_s:
        # The median pass, not the total, so one disturbed pass of ~20 does not move it.
        images_per_pass = rec.eval_images / len(rec.eval_s)
        values["eval_images_per_s"] = images_per_pass / quantile(rec.eval_s, 0.5)
    return values


def layer_metrics(t) -> dict:
    """Per-layer metric name -> thunk; a thunk raises tracer.Missing when it cannot be measured.

    Exact counts are divided by the step count before any other scaling, so
    they come out bit-identical however many steps a run happened to make.
    """

    def steps():
        return t.n(TRAIN, "train.train_step")

    def per_call(kinds, span):
        return t.ms(kinds, span) / t.n(kinds, span)

    def per_step(kinds, span):
        t.n(kinds, span)
        return t.ms(kinds, span) / steps()

    def counter_per(kinds, span, counter, per_span):
        t.n(kinds, span)
        return t.counter(kinds, counter) / t.n(kinds, per_span)

    def forward_gflop_per_s():
        forward_ms = per_step(TRAIN, "train.train_step") - per_step(TRAIN, "autograd.backward") \
            - per_step(TRAIN, "train.adam_step")
        return t.counter(TRAIN, "flops.total") / steps() / forward_ms / 1e6

    def per_eval(span):
        t.n(EVAL, span)
        return t.ms(EVAL, span) / t.n(EVAL, "metrics.score_report")

    metrics = {
        "autograd.tape_records_per_step": lambda: counter_per(
            TRAIN, "autograd.backward", "autograd.tape_records", "train.train_step"),
        "autograd.backward_ms_per_step": lambda: per_step(TRAIN, "autograd.backward"),
        "autograd.gc_pause_ms_per_step": lambda: t.ms(TRAIN, "gc") / steps(),
        "autograd.gc_gen2_collections_per_step": lambda: t.counter(TRAIN, "gc.gen2") / steps(),
        "flops.fwd_mflop_per_step": lambda: t.counter(TRAIN, "flops.total") / steps() / 1e6,
        "flops.unscoped_share": lambda: t.flops(TRAIN, "unscoped") / t.counter(TRAIN, "flops.total"),
        "flops.fwd_gflop_per_s": forward_gflop_per_s,
        "encoder.encode_ms": lambda: per_call(TRAIN, "encoder.encode"),
        "encoder.encode_calls_per_step": lambda: t.n(TRAIN, "encoder.encode") / steps(),
        "textdec.decode_ms": lambda: per_call(CAPTION, "textdec.decode_text"),
        "textdec.decode_calls_per_step": lambda: t.n(TRAIN, "textdec.decode_text") / steps(),
        "textdec.decode_calls_per_caption": lambda: t.n(GREEDY, "textdec.decode_text") / t.n(GREEDY, "train.generate"),
        "textdec.tokens_per_caption": lambda: counter_per(
            GREEDY, "textdec.decode_text", "textdec.tokens", "train.generate"),
        "textdec.tokens_per_caption_beam4": lambda: counter_per(
            BEAM4, "textdec.decode_text", "textdec.tokens", "train.generate"),
        "model.conditioned_logits_ms": lambda: per_call(CAPTION, "model.conditioned_logits"),
        "fusion.contrastive_loss_ms": lambda: per_call(TRAIN, "fusion.contrastive_loss"),
        "fusion.pool_and_project_ms": lambda: per_call(TRAIN, "fusion.pool_and_project"),
        "train.adam_step_ms": lambda: per_call(TRAIN, "train.adam_step"),
        "train.step_self_ms": lambda: t.self_ms(TRAIN, "train.train_step") / steps(),
        "train.generate_self_ms": lambda: t.self_ms(BEAM4, "train.generate") / t.n(BEAM4, "train.generate"),
        "metrics.score_report_ms": lambda: per_call(EVAL, "metrics.score_report"),
        "metrics.bleu_ms": lambda: per_eval("metrics.bleu"),
        "metrics.rouge_l_ms": lambda: per_eval("metrics.rouge_l"),
        "metrics.meteor_ms": lambda: per_eval("metrics.meteor"),
        "metrics.cider_ms": lambda: per_eval("metrics.cider"),
        "checkpoint.save_ms": lambda: per_call(TRAIN, "checkpoint.save"),
        "checkpoint.bytes": lambda: counter_per(TRAIN, "checkpoint.save", "checkpoint.bytes", "checkpoint.save"),
        "checkpoint.load_ms": lambda: per_call(EVAL, "checkpoint.load"),
        "data.read_netpbm_ms": lambda: per_call(("greedy", "beam4"), "data.read_netpbm"),
    }
    for scope in ("spatial_window", "channel_group", "block_proj", "ffn"):
        metrics[f"encoder.mflop.{scope}"] = lambda scope=scope: t.flops(TRAIN, scope) / steps() / 1e6
    return metrics


def overhead_share(plain, traced) -> float:
    """Traced time of the traced requests over what they took untraced, kind by kind."""
    spent = expected = 0.0
    for kind, xs in traced.request_s.items():
        if xs and plain.request_s[kind]:
            spent += sum(xs)
            expected += len(xs) * statistics.fmean(plain.request_s[kind])
    return spent / expected


def measure(workloads, workload, args, workdir: Path):
    """Untraced run: (recorders, end-to-end values)."""
    speed = workloads.HostSpeed()
    setup = workloads.Recorder()
    setup_s = []
    for i in range(SETUP_REPEATS):
        gc.collect()
        speed.tick(force=True)
        start, probed = time.perf_counter(), speed.spent
        session = workloads.Session(workload, args.seed, workdir / f"setup-{i}", setup, speed)
        end = time.perf_counter()
        speed.tick(force=True)
        sample = (start, end, end - start - (speed.spent - probed))
        setup_s.append((sample[2], speed.scaled(sample)))
    print(f"setup runs: {' '.join(f'{s:.3f}' for s, _ in setup_s)} s measured, "
          f"{' '.join(f'{s:.3f}' for _, s in setup_s)} s scaled")
    rec = workloads.Recorder()
    workloads.run_loop(session, args.seconds, rec)
    print(f"host slowness: {len(speed.slowness)} readings, median {statistics.median(speed.slowness):.4f} "
          f"min {min(speed.slowness):.4f} max {max(speed.slowness):.4f}")
    values = loop_metrics(rec)
    values["setup_s"] = statistics.median(s for _, s in setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [setup, rec], values


def measure_traced(workloads, tracing, workload, args, workdir: Path):
    """Traced run: (recorders, per-layer values or Missing)."""
    plain, traced = workloads.Recorder(), workloads.Recorder()
    session = workloads.Session(workload, args.seed, workdir / "setup-0", plain, workloads.HostSpeed())
    t = tracing.Tracer()
    for _ in range(TRACE_SLICES):  # alternate, so drift over the run does not bias the overhead
        workloads.run_loop(session, args.seconds / (2 * TRACE_SLICES), plain)
        t.install()
        try:
            workloads.run_loop(session, args.seconds / (2 * TRACE_SLICES), traced, tracer=t)
        finally:
            t.uninstall()
    print(f"wrapped: {' '.join(t.installed)}")
    print(f"wrap targets absent: {' '.join(t.missing) or 'none'}")
    values = {}
    for name, thunk in layer_metrics(t).items():
        try:
            values[name] = float(thunk())
        except tracing.Missing as e:
            values[name] = e
    values["trace.overhead_share"] = overhead_share(plain, traced)
    return [plain, traced], values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualcap").is_dir():
        print(f"cannot benchmark: no dualcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    print(f"dualcap benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print(environment(args.seed))
    print(f"workload: {workload}")

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            recs, values = measure_traced(workloads, tracing, workload, args, workdir)
        else:
            recs, values = measure(workloads, workload, args, workdir)
    finally:
        shutil.rmtree(workdir)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    greedy_tried = sum(r.tried["greedy"] for r in recs)
    pause_ms = 1e3 * sum(r.gc_pause_s for r in recs)
    collections = [sum(r.gc_collections[g] for r in recs) for g in range(3)]
    print(f"gc (timed loops, untimed collections included): pause {pause_ms:.3f} ms, collections gen0={collections[0]} "
          f"gen1={collections[1]} gen2={collections[2]}")
    print(f"error_rate {failed / attempted!r} ratio ({failed} of {attempted} operations failed)")
    if greedy_tried:
        exact = sum(r.greedy_exact for r in recs) / greedy_tried
        print(f"caption_exact_frac {exact!r} fraction ({greedy_tried} greedy captions)")
    result = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if isinstance(value, float):
            print(f"{metric['name']} {value!r} {metric['unit']}")
            result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        else:
            print(f"{metric['name']} MISSING ({value or 'not measured'})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
