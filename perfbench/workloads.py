"""The three benchmark workloads, driven through the public serving API.

Every workload serves the demo 10-6-3 MLP and keeps ``EngineConfig()``
defaults apart from the fields ``workloads.json`` names for it.  A
workload knows how to build its service (the timed set-up), drive one
measurement window, read its health counters and tear it down; ``run.py``
turns the windows into metrics.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

from loadgen import Operation, jittered_schedule, run_closed_loop, run_open_loop

SPEC_PATH = Path(__file__).with_name("workloads.json")

#: Distinct samples a run draws from its seed; operations cycle through them.
SAMPLES_PER_RUN = 256

#: Longest wait for a freshly forked shard to answer, and for a pool's
#: in-flight refill to land before the service is closed.
READY_TIMEOUT_S = 60.0


def load_spec() -> Dict[str, Any]:
    with SPEC_PATH.open() as fh:
        return json.load(fh)


def train_demo_model() -> Any:
    """The demo MLP, trained from a fixed seed (inputs are not seed-dependent)."""
    from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer

    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(400, 10))
    w = rng.normal(size=(10, 3))
    y = (x @ w).argmax(axis=1)
    model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1)
    Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
    return model


def reset_kdf_calibration() -> None:
    """Make the next set-up pay KDF calibration, as a fresh process would.

    The calibration is cached per process; without this only the first
    of a run's repeated set-ups would include it.
    """
    import repro.gc.cipher as cipher

    if hasattr(cipher, "_calibration"):
        cipher._calibration = None


class Workload:
    """Shared plumbing; subclasses define the service and the loop."""

    #: requests one operation carries
    batch = 1

    def __init__(self, name: str, spec: Dict[str, Any], model: Any) -> None:
        self.name = name
        self.spec = spec
        self.model = model

    def engine_config(self, **overrides: Any) -> Any:
        from repro.circuits import FixedPointFormat
        from repro.engine import EngineConfig
        from repro.gc import ot

        fields = dict(
            fmt=FixedPointFormat(2, 6),
            activation="exact",
            ot_group=getattr(ot, self.spec["ot_group"]),
            pool_size=self.spec["pool_size"],
            pool_refill=self.spec["pool_refill"],
            transport=self.spec["transport"],
            shards=self.spec["shards"],
        )
        fields.update(overrides)
        return EngineConfig(**fields)

    def reference_labels(self, samples: np.ndarray) -> List[int]:
        """``cleartext_label`` of every sample, from an untimed reference service."""
        from repro.service import PrivateInferenceService

        reference = PrivateInferenceService(
            self.model, self.engine_config(pool_size=0, transport="memory", shards=0)
        )
        try:
            return [reference.cleartext_label(s) for s in samples]
        finally:
            reference.close()

    def sample_indices(self, op_index: int) -> List[int]:
        first = op_index * self.batch
        return [(first + j) % SAMPLES_PER_RUN for j in range(self.batch)]

    # subclass interface ------------------------------------------------------

    def build(self) -> Any:
        """Build the service and wait until it is ready (the timed set-up)."""
        raise NotImplementedError

    def prime(self, service: Any, samples: np.ndarray) -> List[Any]:
        """Untimed work between set-up and measurement; returns the results
        it got for samples ``0, 1, ...`` so their labels are checked too."""
        return []

    def measure(
        self, service: Any, samples: np.ndarray, seconds: float,
        rng: np.random.Generator,
    ) -> List[Operation]:
        raise NotImplementedError

    def counters(self, service: Any) -> Dict[str, float]:
        """Serving/pool/shard counters after a window (namespaced names)."""
        raise NotImplementedError

    def close(self, service: Any) -> None:
        raise NotImplementedError


class InProcessWorkload(Workload):
    """``PrivateInferenceService`` with a pre-garbled pool, in this process."""

    def build(self) -> Any:
        from repro.service import PrivateInferenceService

        service = PrivateInferenceService(self.model, self.engine_config())
        service.prepare()
        return service

    def measure(self, service, samples, seconds, rng):
        def send(i: int) -> Any:
            return [service.infer(samples[self.sample_indices(i)[0]])]

        if self.spec["loop"] == "open":
            schedule = jittered_schedule(rng, self.spec["rate_rps"], seconds)
            return run_open_loop(schedule, send, self.spec["senders"])
        return run_closed_loop(send, seconds)

    def counters(self, service: Any) -> Dict[str, float]:
        stats = service.stats
        out = {
            f"service.{key}": float(stats[key])
            for key in ("requests", "errors", "retries", "shed_requests", "degraded")
        }
        pool = stats.get("pool")
        if pool is not None:
            out.update({
                f"pool.{key}": float(pool[key])
                for key in ("hits", "misses", "hit_rate", "garbled_total",
                            "refills", "refill_crashes")
            })
        return out

    def close(self, service: Any) -> None:
        # let an in-flight opportunistic refill land, so its garbling
        # neither overlaps the next set-up nor dies mid-batch
        deadline = time.monotonic() + READY_TIMEOUT_S
        pool = service.pool
        while pool is not None and pool.stats()["pending"] and time.monotonic() < deadline:
            time.sleep(0.01)
        service.close()


class ShardedWorkload(Workload):
    """``ShardedService`` over forked worker processes, batch closed loop."""

    def __init__(self, name: str, spec: Dict[str, Any], model: Any) -> None:
        super().__init__(name, spec, model)
        self.batch = int(spec["batch"])

    def build(self) -> Any:
        from repro.service import PrivateInferenceService
        from repro.transport import ShardedService

        config = self.engine_config()
        model = self.model

        def factory() -> Any:
            return PrivateInferenceService(model, config)

        service = ShardedService(factory, shards=self.spec["shards"])
        # ready = every forked shard has built its service and answers
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            per_shard = service.stats()["per_shard"]
            if all("service" in entry for entry in per_shard):
                return service
            if time.monotonic() > deadline:
                service.close()
                raise RuntimeError(f"shards not ready after {READY_TIMEOUT_S} s")
            time.sleep(0.005)

    def prime(self, service: Any, samples: np.ndarray) -> List[Any]:
        # each shard calibrates its KDF lazily on its first wide garble;
        # one untimed batch keeps that out of the first timed batch
        return service.infer_many(list(samples[: self.batch]))

    def measure(self, service, samples, seconds, rng):
        def send(i: int) -> Any:
            return service.infer_many(list(samples[self.sample_indices(i)]))

        return run_closed_loop(send, seconds)

    def counters(self, service: Any) -> Dict[str, float]:
        # a shard busy answering a supervisor probe skips one stats poll
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            stats = service.stats()
            shard_services = [e.get("service") for e in stats["per_shard"]]
            if all(s is not None for s in shard_services):
                break
            if time.monotonic() > deadline:
                raise RuntimeError("a shard did not report its service stats")
            time.sleep(0.005)
        out = {
            f"shard.{key}": float(stats[key])
            for key in ("degraded_requests", "reroutes", "restarts")
        }
        for key in ("requests", "errors", "retries", "shed_requests", "degraded"):
            out[f"service.{key}"] = float(sum(s[key] for s in shard_services))
        out["service.shed_requests"] += float(stats["shed_requests"])
        return out

    def chunks(self, n: int) -> List[range]:
        """The contiguous per-shard split ``ShardedService`` documents."""
        k = self.spec["shards"]
        base, extra = divmod(n, k)
        out, start = [], 0
        for index in range(k):
            stop = start + base + (1 if index < extra else 0)
            out.append(range(start, stop))
            start = stop
        return out

    def close(self, service: Any) -> None:
        service.close()


def make_workload(name: str, model: Any) -> Workload:
    spec = load_spec()["workloads"][name]
    cls = ShardedWorkload if spec["shards"] else InProcessWorkload
    return cls(name, spec, model)


def phase_sum(result: Any) -> float:
    return float(sum(result.times.values()))


def batch_shard_split(workload: ShardedWorkload, op: Operation) -> Dict[str, float]:
    """RPC overhead and imbalance of one batch, from its returned records.

    A chunk's in-shard time is the sum of its records' protocol phases
    (batched phases are reported as per-request shares).
    """
    results: Sequence[Any] = op.result
    chunk_times = [
        sum(phase_sum(results[i]) for i in chunk)
        for chunk in workload.chunks(len(results)) if len(chunk)
    ]
    slowest = max(chunk_times)
    mean = sum(chunk_times) / len(chunk_times)
    return {
        "rpc_overhead_s": (op.done - op.sent) - slowest,
        "imbalance": slowest / mean if mean > 0 else 1.0,
    }
