"""AdmissionGate: the in-flight budget and drain both front-ends share."""

import sys
import threading
import time

import pytest

from repro.errors import ServiceDrainingError, ServiceOverloadedError
from repro.resilience import AdmissionGate


def test_budget_holds_under_contention():
    """More threads than cores hammer a budget of 3: the admitted count
    never exceeds it, no update is lost, and every attempt is either
    served or shed."""
    gate = AdmissionGate(max_inflight=3)
    lock = threading.Lock()
    totals = {"peak": 0, "served": 0, "shed": 0}

    def worker():
        peak = served = shed = 0
        for _ in range(300):
            try:
                gate.admit(1)
            except ServiceOverloadedError:
                shed += 1
                continue
            try:
                peak = max(peak, gate.inflight)
                served += 1
                time.sleep(0)  # let other threads interleave mid-request
            finally:
                gate.release(1)
        with lock:
            totals["peak"] = max(totals["peak"], peak)
            totals["served"] += served
            totals["shed"] += shed

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    stats = gate.stats()
    assert totals["peak"] <= 3
    assert totals["served"] + totals["shed"] == 8 * 300
    assert stats["shed_requests"] == totals["shed"]
    assert stats["inflight"] == 0


def test_drain_counts_once_and_refuses_new_work():
    gate = AdmissionGate(subject="sharded service", unit="batches")
    gate.admit(2)
    assert gate.drain(timeout_s=0.0) is True
    assert gate.drain(timeout_s=0.0) is False  # no second wait or recount
    stats = gate.stats()
    assert stats["aborted_requests"] == 2
    assert stats["drained_requests"] == 0
    assert stats["draining"] is True
    with pytest.raises(ServiceDrainingError, match="no new batches"):
        gate.admit(1)
