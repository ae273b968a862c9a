"""Self-tests for the benchmark harness's own logic (no program needed).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
import run  # noqa: E402
from summary import Metrics, slo_attainment, tail, valid_name  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Single-threaded virtual time: sleeping and serving advance it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self) -> None:
        values = [float(v) for v in range(1, 101)]
        value, label = tail(values[::-1])
        self.assertEqual((value, label), (90.0, "p90"))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_eleven_samples_is_the_minimum_with_ten_beyond(self) -> None:
        values = [float(v) for v in range(11)]
        value, _ = tail(values)
        self.assertEqual(value, 0.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_every_sample_count_leaves_exactly_ten_beyond(self) -> None:
        for n in range(11, 60):
            values = [float(v) for v in range(n)]
            value, _ = tail(values)
            self.assertEqual(sum(v > value for v in values), 10, n)

    def test_too_few_samples_report_the_maximum(self) -> None:
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, "max"))
        self.assertEqual(tail([float(v) for v in range(10)]), (9.0, "max"))


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time_not_send_time(self) -> None:
        clock = FakeClock()

        def send(i: int) -> str:
            clock.sleep(0.5)  # each request takes 0.5 s of virtual time
            return "ok"

        ops = loadgen.run_open_loop([0.0, 0.1, 0.2], send, senders=1,
                                    clock=clock, sleep=clock.sleep)
        self.assertEqual([op.index for op in ops], [0, 1, 2])
        first, second, third = ops
        self.assertTrue(first.sender_idle)
        self.assertAlmostEqual(first.latency, 0.5)
        # the second was due at 0.1 but its sender was busy until 0.5
        self.assertFalse(second.sender_idle)
        self.assertAlmostEqual(second.queue_wait, 0.4)
        self.assertAlmostEqual(second.done - second.sent, 0.5)
        self.assertAlmostEqual(second.latency, 0.9)
        self.assertAlmostEqual(third.latency, 1.3)

    def test_schedule_is_seeded_with_one_arrival_per_slot(self) -> None:
        import numpy as np

        a = loadgen.jittered_schedule(np.random.default_rng(7), 0.75, 20.0)
        b = loadgen.jittered_schedule(np.random.default_rng(7), 0.75, 20.0)
        c = loadgen.jittered_schedule(np.random.default_rng(8), 0.75, 20.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), 15)
        for i, t in enumerate(a):
            self.assertTrue(i / 0.75 <= t < (i + 1) / 0.75)

    def test_closed_loop_runs_at_least_one_and_stops_before_overrun(self) -> None:
        clock = FakeClock()

        def send(i: int) -> int:
            clock.sleep(3.0)
            return i

        self.assertEqual(len(loadgen.run_closed_loop(send, 2.0, clock=clock)), 1)
        clock.now = 0.0
        self.assertEqual(len(loadgen.run_closed_loop(send, 10.0, clock=clock)), 3)


def fake_result(label: int, ok: bool = True, comm: int = 100) -> types.SimpleNamespace:
    return types.SimpleNamespace(
        ok=ok, label=label, comm_bytes=comm, error=None if ok else "boom",
        times={"garble": 0.0, "transfer": 0.01, "ot": 0.3, "evaluate": 0.05, "merge": 0.001},
    )


def fake_workload(batch: int = 1, loop: str = "open", shards: int = 0) -> types.SimpleNamespace:
    spec = {"loop": loop, "shards": shards, "latency_limit_s": 1.0, "batch": batch}
    return types.SimpleNamespace(
        spec=spec,
        sample_indices=lambda i: list(range(i * batch, (i + 1) * batch)),
        chunks=lambda n: [range(0, n // 2), range(n // 2, n)],
    )


def op(index: int, due: float, sent: float, done: float, result=None, error=None):
    return loadgen.Operation(index, due, sent, done, True, result, error)


class FailureAccountingTest(unittest.TestCase):
    def test_failed_or_refused_request_misses_the_limit(self) -> None:
        self.assertAlmostEqual(slo_attainment([0.2, None, 0.4, None], 1.0), 0.5)
        ops = [
            op(0, 0.0, 0.0, 0.3, [fake_result(1)]),
            op(1, 1.0, 1.0, 1.1, error="ServiceOverloadedError: shed"),
            op(2, 2.0, 2.0, 2.2, [fake_result(0)]),  # wrong label
            op(3, 3.0, 3.0, 3.1, [fake_result(-1, ok=False)]),  # error record
        ]
        w = run.Window(fake_workload(), ops, expected=[1, 1, 1, 1])
        self.assertEqual(w.attempted, 4)
        self.assertEqual(w.failed, 3)
        self.assertEqual(w.wrong_labels, 1)
        self.assertAlmostEqual(w.request_latencies[0], 0.3)
        self.assertEqual(w.request_latencies[1:], [None, None, None])
        self.assertAlmostEqual(slo_attainment(w.request_latencies, 1.0), 0.25)
        self.assertEqual(len(w.op_latencies), 1)

    def test_batch_latency_applies_to_each_of_its_requests(self) -> None:
        ops = [op(0, 0.0, 0.0, 2.0, [fake_result(1), fake_result(2)])]
        w = run.Window(fake_workload(batch=2, loop="closed"), ops, [1, 2])
        self.assertEqual(w.request_latencies, [2.0, 2.0])
        self.assertEqual(w.op_latencies, [2.0])


class MetricNamesTest(unittest.TestCase):
    def test_every_declared_name_is_well_formed(self) -> None:
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertTrue(valid_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        for bad in ("", "_x", "a b", "p90%", "x" * 65, "é"):
            self.assertFalse(valid_name(bad), bad)

    def test_metrics_rejects_bad_or_repeated_names(self) -> None:
        metrics = Metrics()
        metrics.add("ok.name-1", 1.0, "s")
        with self.assertRaises(ValueError):
            metrics.add("ok.name-1", 2.0, "s")
        with self.assertRaises(ValueError):
            metrics.add("bad name", 1.0, "s")
        with self.assertRaises(ValueError):
            metrics.add("fine", 1.0, "not a unit")

    def _window(self, workload, loop: str) -> "run.Window":
        results = [fake_result(0), fake_result(0)]
        ops = [op(i, float(i), float(i), i + 0.5, results[: workload.spec["batch"]])
               for i in range(3)]
        return run.Window(workload, ops, [0] * 8)

    def test_reported_names_match_benchmark_json(self) -> None:
        declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
        declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
        units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
                 for m in BENCHMARK[key]}
        in_process = {"service.requests": 3.0, "service.errors": 0.0, "service.retries": 0.0,
                      "service.shed_requests": 0.0, "service.degraded": 0.0,
                      "pool.hits": 2.0, "pool.misses": 1.0, "pool.hit_rate": 2 / 3,
                      "pool.garbled_total": 9.0, "pool.refills": 1.0,
                      "pool.refill_crashes": 0.0}
        sharded = {k: v for k, v in in_process.items() if k.startswith("service.")}
        sharded.update({"shard.degraded_requests": 0.0, "shard.reroutes": 0.0,
                        "shard.restarts": 0.0})
        for loop, shards, counters in (("open", 0, in_process), ("closed", 0, in_process),
                                       ("closed", 2, sharded)):
            workload = fake_workload(batch=2 if shards else 1, loop=loop, shards=shards)
            w = self._window(workload, loop)
            e2e = Metrics()
            run.end_to_end(e2e, workload.spec, w, [1.0, 1.1, 0.9])
            self.assertEqual(e2e.names(), declared_e2e)
            w.counters = counters
            layer = Metrics()
            run.per_layer(layer, workload, w, w, Tracer())
            self.assertEqual(layer.names(), declared_layer, (loop, shards))
            for metrics in (e2e, layer):
                for name, entry in metrics.as_json().items():
                    self.assertEqual(entry["unit"], units[name], name)


class TracerTest(unittest.TestCase):
    def test_patches_every_lookup_site_and_restores_them(self) -> None:
        def work(x: int) -> int:
            return helper(x) + 1

        def helper(x: int) -> int:
            return x * 2

        defining = types.ModuleType("defining")
        caller = types.ModuleType("caller")
        defining.helper = caller.helper = helper
        defining.work = work
        tracer = Tracer()
        tracer.patch([defining, caller], "helper", "helper")
        tracer.patch([defining], "work", "work")
        self.assertIsNot(caller.helper, helper)
        self.assertEqual(caller.helper(3), 6)
        self.assertEqual(defining.work(3), 7)
        tracer.remove()
        self.assertIs(caller.helper, helper)
        self.assertIs(defining.helper, helper)
        self.assertIs(defining.work, work)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["helper", "work"])

    def test_nested_spans_record_parent_and_self_time(self) -> None:
        calls: List[str] = []

        class Layer:
            def outer(self) -> None:
                calls.append("outer")
                self.inner()

            def inner(self) -> None:
                calls.append("inner")

        tracer = Tracer()
        tracer.patch([Layer], "outer", "outer")
        tracer.patch([Layer], "inner", "inner")
        try:
            Layer().outer()
        finally:
            tracer.remove()
        self.assertEqual(calls, ["outer", "inner"])
        outer_index, inner_index = tracer.indices("outer")[0], tracer.indices("inner")[0]
        self.assertIsNone(tracer.spans[outer_index].parent)
        self.assertEqual(tracer.spans[inner_index].parent, outer_index)
        self.assertAlmostEqual(
            tracer.self_time(outer_index),
            tracer.spans[outer_index].duration - tracer.spans[inner_index].duration,
        )

    def test_refuses_owners_holding_different_objects(self) -> None:
        a, b = types.ModuleType("a"), types.ModuleType("b")
        a.f, b.f = (lambda: 1), (lambda: 2)
        tracer = Tracer()
        with self.assertRaises(RuntimeError):
            tracer.patch([a, b], "f", "f")
        tracer.remove()
        self.assertEqual((a.f(), b.f()), (1, 2))


if __name__ == "__main__":
    unittest.main()
