"""Admission control and graceful drain for the serving front-ends.

:class:`repro.service.PrivateInferenceService` and
:class:`repro.transport.ShardedService` police their intake the same
way: a bounded in-flight budget sheds overload with the typed permanent
:class:`repro.errors.ServiceOverloadedError`, and ``close()`` drains —
new work is refused with :class:`repro.errors.ServiceDrainingError`
while admitted work gets a grace period to finish, and the
drained/aborted request counts land in ``stats()``.
:class:`AdmissionGate` is that mechanism; both front-ends hold one.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

from ..errors import ServiceDrainingError, ServiceOverloadedError

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """In-flight budget, shed counting and drain for one front-end.

    Args:
        max_inflight: bound on concurrently admitted requests (0 =
            unbounded).
        subject: how refusal messages name the front-end.
        unit: what one :meth:`admit` call brings in (``"requests"`` or
            ``"batches"``); refusal messages name it.  A shed batch is
            refused whole.
    """

    def __init__(
        self,
        max_inflight: int = 0,
        subject: str = "service",
        unit: str = "requests",
    ) -> None:
        self.max_inflight = int(max_inflight)
        self._subject = subject
        self._unit = unit
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._inflight = 0
        self._draining = False
        self._shed = 0
        self._drained = 0
        self._aborted = 0

    @property
    def inflight(self) -> int:
        """Requests admitted and not yet released."""
        with self._lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        with self._lock:
            return self._draining

    def admit(self, n: int) -> None:
        """Admit ``n`` requests as one group, or refuse all of them.

        Raises:
            ServiceDrainingError: :meth:`drain` has begun.
            ServiceOverloadedError: the budget cannot take ``n`` more
                (permanent under the retry taxonomy — retrying into
                overload only deepens it).
        """
        with self._lock:
            if self._draining:
                raise ServiceDrainingError(
                    f"{self._subject} is draining: close() has begun and "
                    f"no new {self._unit} are admitted"
                )
            limit = self.max_inflight
            if limit and self._inflight + n > limit:
                self._shed += n
                whole = "" if self._unit == "requests" else " the batch"
                raise ServiceOverloadedError(
                    f"in-flight budget full: {self._inflight} admitted + "
                    f"{n} requested > max_inflight={limit}; shedding{whole}"
                )
            self._inflight += n

    def release(self, n: int) -> None:
        """Return ``n`` admission slots and wake a waiting drain."""
        with self._lock:
            self._inflight -= n
            self._cond.notify_all()

    def drain(self, timeout_s: float) -> bool:
        """Refuse new work, then wait up to ``timeout_s`` for admitted work.

        Requests that finish during the wait count as drained, any still
        running when the grace expires as aborted.  Returns False (no
        wait, no recount) when an earlier call already began the drain.
        """
        with self._lock:
            if self._draining:
                return False
            self._draining = True
            pending = self._inflight
            deadline = time.monotonic() + max(timeout_s, 0.0)
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            self._drained += pending - self._inflight
            self._aborted += self._inflight
        return True

    def stats(self) -> Dict[str, object]:
        """The admission keys every front-end's ``stats()`` carries."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "draining": self._draining,
                "shed_requests": self._shed,
                "drained_requests": self._drained,
                "aborted_requests": self._aborted,
            }
