"""Benchmark of private inference serving: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pooled_open_loop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads and their configs live in ``perfbench/workloads.json``.  The
seed picks the samples and the arrival schedule; the program sees only
those inputs.

``--trace 0`` sets the service up ``setup_repeats`` times (median is
``setup_s``), then measures one window of ``--seconds`` with no
instrumentation and reports the end-to-end metrics.  ``--trace 1``
measures an untraced half window, then installs timing wrappers around
each layer's public functions (``tracing.py``), builds a fresh service
and measures a traced half window; it reports the per-layer metrics and
the tracing overhead (traced over untraced ``latency_p50_s``).

Every label is checked against ``cleartext_label``; a mismatch counts as
a failed operation and makes the run incorrect, as do varying
``comm_bytes`` and any nonzero health counter.  The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  Exit status: 0 correct, 1 incorrect or crashed, 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import tracing
import workloads
from loadgen import Operation
from summary import Metrics, median, slo_attainment, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Counters that must stay zero: a degraded run measures another program.
HEALTH_COUNTERS = (
    "pool.refill_crashes",
    "service.degraded",
    "shard.degraded_requests",
    "shard.reroutes",
    "shard.restarts",
)

#: Open loop: the generator's own lateness must stay below this share of
#: the latency median, or the run measured the generator, not the program.
LATENESS_SHARE = 0.25

#: Closed-loop in-process runs: protocol phases must sum to within this
#: share of the request latency (the rest is service overhead).
PHASE_SUM_TOLERANCE = 0.10

PHASES = ("garble", "transfer", "ot", "evaluate", "merge")


class Window:
    """One measurement window, checked against the reference labels."""

    def __init__(self, workload: Any, ops: List[Operation], expected: List[int]) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong_labels = 0
        self.errors: List[str] = []
        #: per request: latency when it completed correctly, else None
        self.request_latencies: List[Optional[float]] = []
        #: per operation (request or batch) that completed fully correctly
        self.op_latencies: List[float] = []
        self.results: List[Any] = []
        self.comm_bytes: set = set()
        #: serving/pool/shard counters read right after the window
        self.counters: Dict[str, float] = {}
        for op in ops:
            indices = workload.sample_indices(op.index)
            self.attempted += len(indices)
            if op.error is not None:
                self.failed += len(indices)
                self.errors.append(op.error)
                self.request_latencies += [None] * len(indices)
                continue
            all_good = True
            for result, j in zip(op.result, indices):
                good = result.ok and result.label == expected[j]
                if result.ok:
                    self.results.append(result)
                    self.comm_bytes.add(result.comm_bytes)
                    if not good:
                        self.wrong_labels += 1
                else:
                    self.errors.append(str(result.error))
                self.failed += not good
                all_good &= good
                self.request_latencies.append(op.latency if good else None)
            if all_good:
                self.op_latencies.append(op.latency)

    @property
    def wall_s(self) -> float:
        """From the window start to the last completion."""
        return max(op.done for op in self.ops)

    @property
    def lateness_s(self) -> float:
        """Worst delay between a due time and the send by an idle sender."""
        return max([op.queue_wait for op in self.ops if op.sender_idle] or [0.0])

    def phase_p50(self, phase: str) -> float:
        return median([r.times.get(phase, 0.0) for r in self.results])


def peak_rss_mb(with_children: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # getrusage reports the largest reaped child, so count it once per shard
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + with_children * child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    spec_all = workloads.load_spec()
    model = workloads.train_demo_model()
    workload = workloads.make_workload(name, model)
    spec = workload.spec
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, size=(workloads.SAMPLES_PER_RUN, 10))
    expected = workload.reference_labels(samples)
    print(f"workload {name}: {json.dumps({k: v for k, v in spec.items() if k != 'why'})}")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} seed={seed}")

    def timed_setup() -> tuple:
        workloads.reset_kdf_calibration()
        start = time.perf_counter()
        service = workload.build()
        return service, time.perf_counter() - start

    def window(service: Any, length: float) -> Window:
        if hasattr(service, "kdf_name"):
            print(f"garbling oracle: {service.kdf_name}")
        primed = workload.prime(service, samples)
        ops = workload.measure(service, samples, length, rng)
        w = Window(workload, ops, expected)
        w.wrong_labels += sum(r.label != expected[j] for j, r in enumerate(primed))
        w.counters = workload.counters(service)
        return w

    def set_up_and_measure(length: float) -> tuple:
        service, elapsed = timed_setup()
        try:
            return window(service, length), elapsed
        finally:
            workload.close(service)

    setup_times: List[float] = []
    tracer: Optional[tracing.Tracer] = None
    if not trace:
        for _ in range(spec_all["common"]["setup_repeats"] - 1):
            service, elapsed = timed_setup()
            setup_times.append(elapsed)
            workload.close(service)
        measured, elapsed = set_up_and_measure(seconds)
        setup_times.append(elapsed)
        windows = [measured]
    else:
        windows = [set_up_and_measure(seconds / 2)[0]]
        tracer = tracing.install_program_tracer()
        try:
            measured = set_up_and_measure(seconds / 2)[0]
        finally:
            tracer.remove()
        windows.append(measured)
    problems = check(spec, windows)
    counters = measured.counters

    metrics = Metrics()
    if not trace:
        end_to_end(metrics, spec, measured, setup_times)
    else:
        per_layer(metrics, workload, windows[0], measured, tracer)
        for span_name, entry in sorted(tracer.summary().items()):
            print(f"span {span_name}: {entry['calls']} calls, {entry['items']} items, "
                  f"{entry['seconds']:.4f} s")
    print("pool.hit_rate this run: "
          + (f"{counters['pool.hit_rate']:.3f} ({counters['pool.hits']:g} hits, "
             f"{counters['pool.misses']:g} misses, {counters['pool.refills']:g} refills)"
             if "pool.hit_rate" in counters else "n/a (no pool)"))
    for line in metrics.lines():
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for error in sorted(set(e for w in windows for e in w.errors))[:5]:
        print(f"request error: {error}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": metrics.as_json(),
    }


def check(spec: Dict[str, Any], windows: List[Window]) -> List[str]:
    """Everything that makes a run incorrect, as messages."""
    problems: List[str] = []
    comm = set().union(*(w.comm_bytes for w in windows))
    if len(comm) > 1:
        problems.append(f"comm_bytes varies within the workload: {sorted(comm)}")
    for w in windows:
        if w.wrong_labels:
            problems.append(f"{w.wrong_labels} labels differ from cleartext_label")
        for key in HEALTH_COUNTERS:
            if w.counters.get(key, 0.0):
                problems.append(f"health counter {key} = {w.counters[key]:g} (degraded run)")
        if not w.op_latencies:
            problems.append("no operation completed correctly")
        elif spec["loop"] == "open" and w.lateness_s > LATENESS_SHARE * median(w.op_latencies):
            problems.append(f"load generator ran {w.lateness_s:.4f} s late")
        if spec["loop"] == "closed" and not spec["shards"]:
            problems += phase_sum_problems(w)
    return problems


def phase_sum_problems(w: Window) -> List[str]:
    """Closed loop, one process: the phases must account for the latency."""
    phases = sum(w.phase_p50(p) for p in PHASES)
    latency = median(w.op_latencies)
    if latency and abs(phases - latency) > PHASE_SUM_TOLERANCE * latency:
        return [f"protocol phases sum to {phases:.4f} s, latency_p50_s is {latency:.4f} s"]
    return []


def end_to_end(metrics: Metrics, spec: Dict[str, Any], w: Window,
               setup_times: List[float]) -> None:
    good = sum(1 for x in w.request_latencies if x is not None)
    tail_value, tail_label = tail(w.op_latencies)
    metrics.add("setup_s", median(setup_times), "s")
    metrics.add("latency_p50_s", median(w.op_latencies), "s")
    metrics.add("latency_tail_s", tail_value, "s")
    metrics.add("throughput_rps", good / w.wall_s, "1/s")
    metrics.add("slo_attainment",
                slo_attainment(w.request_latencies, spec["latency_limit_s"]), "share")
    metrics.add("success_share", 1.0 - w.failed / w.attempted, "share")
    metrics.add("comm_bytes_per_request", float(min(w.comm_bytes, default=0)), "bytes")
    metrics.add("peak_rss_mb", peak_rss_mb(spec["shards"]), "MB")
    print(f"latency_tail_s is {tail_label} of {len(w.op_latencies)} "
          f"{'batches' if spec['shards'] else 'requests'}; "
          f"setup_s samples {[round(t, 4) for t in setup_times]}")


def per_layer(metrics: Metrics, workload: Any, untraced: Window, w: Window,
              tracer: Any) -> None:
    spec = workload.spec
    counters = w.counters
    sharded = bool(spec["shards"])
    requests = len(w.results)
    in_shards = "runs in forked shards, whose spans stay there; see protocol.*"

    # load generator
    if spec["loop"] == "open":
        waits = [op.queue_wait for op in w.ops]
        metrics.add("loadgen.lateness_max_s", w.lateness_s, "s")
        metrics.add("loadgen.queue_wait_p50_s", median(waits), "s")
        metrics.add("loadgen.queue_wait_tail_s", tail(waits)[0], "s")
    else:
        for key in ("lateness_max_s", "queue_wait_p50_s", "queue_wait_tail_s"):
            metrics.missing(f"loadgen.{key}", "s", "closed loop: no schedule to run late")

    # service counters (shard rollup on sharded_batch)
    for key in ("requests", "errors", "retries", "shed_requests", "degraded"):
        metrics.add(f"service.{key}", counters[f"service.{key}"], "count")

    # pool
    if "pool.hit_rate" in counters:
        acquires = tracer.named("pool.acquire")
        refill_busy = sum(s.duration for s in tracer.named("pool.warm", "pregarble-refill"))
        metrics.add("pool.hit_rate", counters["pool.hit_rate"], "share")
        metrics.add("pool.useful_ratio",
                    counters["pool.hits"] / max(counters["pool.garbled_total"], 1.0), "share")
        metrics.add("pool.acquire_p50_s", median([s.duration for s in acquires]), "s")
        metrics.add("pool.refill_busy_s", refill_busy / max(requests, 1), "s")
        metrics.add("pool.refills", counters["pool.refills"], "count")
        metrics.add("pool.refill_crashes", counters["pool.refill_crashes"], "count")
    else:
        for key, unit in (("hit_rate", "share"), ("useful_ratio", "share"),
                          ("acquire_p50_s", "s"), ("refill_busy_s", "s"),
                          ("refills", "count"), ("refill_crashes", "count")):
            metrics.missing(f"pool.{key}", unit, "no pre-garbled pool on this workload")

    # protocol phases, from the records (these survive the shard hop)
    for phase in PHASES:
        metrics.add(f"protocol.{phase}_s", w.phase_p50(phase), "s")

    # OT, garbling, evaluation, KDF, compile: wrapper spans, in-process only
    layer_metrics = (
        ("ot.base_s", "s"), ("ot.extension_s", "s"),
        ("ot.base_calls_per_request", "count"), ("ot.modexp_per_request", "count"),
        ("garble.copies_per_call", "count"), ("garble.s_per_copy", "s"),
        ("evaluate.s_per_request", "s"),
        ("kdf.calibration_s", "s"), ("compile.compile_model_s", "s"),
    )
    if sharded:
        for name, unit in layer_metrics:
            metrics.missing(name, unit, in_shards)
    else:
        base = tracer.named("ot.base")
        extension = tracer.indices("ot.extension")
        garbles = tracer.named("garble.many")
        evals = tracer.named("evaluate.one") + tracer.named("evaluate.many")
        copies = sum(s.items for s in garbles)
        evaluated = sum(s.items for s in evals)
        metrics.add("ot.base_s", median([s.duration for s in base]), "s")
        metrics.add("ot.extension_s", median([tracer.self_time(i) for i in extension]), "s")
        metrics.add("ot.base_calls_per_request", len(base) / max(requests, 1), "count")
        metrics.add("ot.modexp_per_request",
                    len(tracer.named("ot.modexp")) / max(requests, 1), "count")
        metrics.add("garble.copies_per_call", copies / max(len(garbles), 1), "count")
        metrics.add("garble.s_per_copy",
                    sum(s.duration for s in garbles) / max(copies, 1), "s")
        metrics.add("evaluate.s_per_request",
                    sum(s.duration for s in evals) / max(evaluated, 1), "s")
        metrics.add("kdf.calibration_s",
                    sum(s.duration for s in tracer.named("kdf.calibration")), "s")
        metrics.add("compile.compile_model_s",
                    sum(s.duration for s in tracer.named("compile.compile_model")), "s")

    # shard hop
    if sharded:
        splits = [workloads.batch_shard_split(workload, op) for op in w.ops if op.error is None]
        metrics.add("shard.rpc_overhead_s", median([s["rpc_overhead_s"] for s in splits]), "s")
        metrics.add("shard.imbalance", median([s["imbalance"] for s in splits]), "ratio")
        for key in ("degraded_requests", "reroutes", "restarts"):
            metrics.add(f"shard.{key}", counters[f"shard.{key}"], "count")
    else:
        for key, unit in (("rpc_overhead_s", "s"), ("imbalance", "ratio"),
                          ("degraded_requests", "count"), ("reroutes", "count"),
                          ("restarts", "count")):
            metrics.missing(f"shard.{key}", unit, "single-process workload: no shards")

    untraced_p50 = median(untraced.op_latencies)
    metrics.add("trace.overhead",
                median(w.op_latencies) / untraced_p50 if untraced_p50 else 0.0, "ratio")
    if sharded:
        print("from returned records, not wrappers: protocol.*, shard.rpc_overhead_s, "
              "shard.imbalance; from stats(): service.*, shard.degraded_requests/"
              "reroutes/restarts")
    if spec["loop"] == "closed" and not sharded:
        latency = median(w.op_latencies)
        print(f"ot.base_s is {metrics.as_json()['ot.base_s']['value'] / latency:.1%} "
              f"of the traced latency_p50_s {latency:.4f} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.load_spec()["workloads"])
    if args.workload == "all":
        # one process per workload, so peak memory and caches stay separate
        status = 0
        for name in names:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
        return status
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
