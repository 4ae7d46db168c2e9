"""Per-view delta subscriptions: ordered, exactly-once change notifications.

A consumer registers interest in one view and afterwards receives a
:class:`DeltaNotification` for every output-key change that view undergoes —
``old`` value before, ``new`` value after, tagged with the service version
(event offset) whose application produced the change and a per-subscription
sequence number.  Notifications are published once, in order, into a bounded
per-subscriber queue; a consumer that drains the queue therefore observes
every delta exactly once, regardless of the execution mode (per-event,
batched or partitioned) underneath.

Bounded queues make slow consumers safe: when a queue would overflow, the
default ``close`` policy *closes the subscription with an overflow mark*
instead of silently dropping notifications — the consumer can detect the gap
and resubscribe with a fresh snapshot, which is the standard
change-data-capture recovery contract.  The opt-in ``coalesce`` policy keeps
the subscription alive under backpressure instead: overflowing changes
collapse into one net ``old -> new`` delta per output key (``old`` from the
first absorbed change, ``new`` from the last), which the next drain emits
after the queued prefix — per-key ordering survives, only intermediate
values are elided, and a key whose net effect is a no-op is skipped.
Queue lag and delivery counters are reported through
:class:`repro.streams.stats.QueueStats`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.values import encode_value
from repro.errors import ServiceError
from repro.streams.stats import QueueStats

#: Default bound of a subscription queue.
DEFAULT_QUEUE_SIZE = 65536

#: Queue-overflow policies a subscription can be created with.
OVERFLOW_POLICIES = ("close", "coalesce")


@dataclass(frozen=True)
class DeltaNotification:
    """One output-key change of one view.

    ``old`` / ``new`` are the aggregate values before and after (``None``
    when the key was absent on that side); ``sequence`` is per-subscription,
    contiguous from 0; ``version`` is the service event offset after the
    ingest batch that produced the change.
    """

    sequence: int
    version: int
    view: str
    key: tuple
    old: Any
    new: Any

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serializable representation (the wire format).

        Values go through the wire encoding so rational aggregates
        (:class:`fractions.Fraction`) survive ``json.dumps``.
        """
        return {
            "sequence": self.sequence,
            "version": self.version,
            "view": self.view,
            "key": [encode_value(part) for part in self.key],
            "old": encode_value(self.old),
            "new": encode_value(self.new),
        }


class Subscription:
    """A bounded, ordered queue of delta notifications for one view."""

    def __init__(
        self,
        view: str,
        subscription_id: int,
        maxlen: int = DEFAULT_QUEUE_SIZE,
        policy: str = "close",
    ):
        if maxlen < 1:
            raise ServiceError(f"subscription queue bound must be >= 1, got {maxlen}")
        if policy not in OVERFLOW_POLICIES:
            raise ServiceError(
                f"unknown overflow policy {policy!r}; "
                f"expected one of {', '.join(OVERFLOW_POLICIES)}"
            )
        self.view = view
        self.subscription_id = subscription_id
        self.maxlen = maxlen
        self.policy = policy
        self._queue: deque[DeltaNotification] = deque()
        # Net per-key deltas absorbed under backpressure (coalesce policy):
        # key -> [old-from-first, new-from-last, version-of-last], insertion
        # ordered.  Non-empty means everything publishes here until drained,
        # so per-key ordering relative to the queued prefix is preserved.
        self._coalesced: dict[tuple, list[Any]] = {}
        self._coalesced_absorbed = 0
        self._sequence = 0
        self._delivered = 0
        self._closed = False
        self._overflowed = False
        self._high_watermark = 0
        # Monotonic timestamp of the last successful drain (creation counts
        # as one): lets QueueStats report how long a backlog has sat idle.
        self._last_delivery = time.monotonic()

    # -- producer side (registry only) ----------------------------------------
    def _publish(self, version: int, key: tuple, old: Any, new: Any) -> bool:
        """Enqueue one notification; False when nothing was enqueued."""
        if self._closed:
            return False
        if self._coalesced or len(self._queue) >= self.maxlen:
            if self.policy == "coalesce":
                self._coalesce(version, key, old, new)
                return True
            # Never drop silently: mark the gap and stop the subscription.
            self._overflowed = True
            self._closed = True
            return False
        self._queue.append(
            DeltaNotification(self._sequence, version, self.view, key, old, new)
        )
        self._sequence += 1
        if len(self._queue) > self._high_watermark:
            self._high_watermark = len(self._queue)
        return True

    def _coalesce(self, version: int, key: tuple, old: Any, new: Any) -> None:
        """Fold one change into the net per-key delta map."""
        self._coalesced_absorbed += 1
        entry = self._coalesced.get(key)
        if entry is None:
            self._coalesced[key] = [old, new, version]
        else:
            entry[1] = new
            entry[2] = version

    # -- consumer side ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once the subscription stopped receiving new notifications."""
        return self._closed

    @property
    def overflowed(self) -> bool:
        """True when the queue hit its bound and notifications were lost."""
        return self._overflowed

    def __len__(self) -> int:
        return len(self._queue) + len(self._coalesced)

    def poll(self, max_items: int | None = None) -> list[DeltaNotification]:
        """Drain up to ``max_items`` pending notifications, oldest first.

        Under the ``coalesce`` policy, once the queued prefix is drained the
        net per-key deltas absorbed during backpressure are emitted (in
        first-touched order, with fresh contiguous sequence numbers); keys
        whose net effect is a no-op are skipped silently — the consumer never
        saw any of the elided intermediate values.
        """
        out: list[DeltaNotification] = []
        while self._queue and (max_items is None or len(out) < max_items):
            out.append(self._queue.popleft())
        while (
            not self._queue
            and self._coalesced
            and (max_items is None or len(out) < max_items)
        ):
            key, (old, new, version) = next(iter(self._coalesced.items()))
            del self._coalesced[key]
            if old == new and type(old) is type(new):
                continue  # net no-op: nothing the consumer can observe
            out.append(
                DeltaNotification(self._sequence, version, self.view, key, old, new)
            )
            self._sequence += 1
        if out:
            self._delivered += len(out)
            self._last_delivery = time.monotonic()
        return out

    def stats(self) -> QueueStats:
        """Delivery counters, lag, depth high-watermark and drain recency."""
        return QueueStats(
            published=self._sequence,
            delivered=self._delivered,
            pending=len(self),
            overflowed=self._overflowed,
            high_watermark=self._high_watermark,
            last_delivery_age_seconds=time.monotonic() - self._last_delivery,
            coalesced=self._coalesced_absorbed,
        )


class SubscriptionRegistry:
    """All live subscriptions of one service, grouped by view."""

    def __init__(self) -> None:
        self._by_view: dict[str, list[Subscription]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Subscriptions ever closed by queue overflow (survives removal).
        self.overflows = 0

    def subscribe(
        self, view: str, maxlen: int = DEFAULT_QUEUE_SIZE, policy: str = "close"
    ) -> Subscription:
        """Register a consumer for one view's deltas."""
        subscription = Subscription(view, next(self._ids), maxlen, policy)
        with self._lock:
            self._by_view.setdefault(view, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription; pending notifications are discarded."""
        subscription._closed = True
        with self._lock:
            bucket = self._by_view.get(subscription.view)
            if bucket and subscription in bucket:
                bucket.remove(subscription)
                if not bucket:
                    del self._by_view[subscription.view]

    def close_all(self) -> None:
        """Close every subscription (already-queued notifications stay drainable).

        Used when the service state jumps backwards (checkpoint restore):
        consumers must resubscribe with a fresh snapshot rather than receive
        deltas that rewind behind what they already observed — the same
        close-and-resubscribe contract as queue overflow.
        """
        with self._lock:
            for subscribers in self._by_view.values():
                for subscription in subscribers:
                    subscription._closed = True
            self._by_view.clear()

    def subscribed_views(self) -> tuple[str, ...]:
        """Views with at least one live subscriber (the diff set for ingest)."""
        with self._lock:
            return tuple(self._by_view)

    def publish(
        self, view: str, version: int, changes: Iterable[tuple[tuple, Any, Any]]
    ) -> int:
        """Fan one batch of ``(key, old, new)`` changes out to a view's subscribers.

        Every live subscriber receives the changes in the given order with
        its own contiguous sequence numbers; returns the number of
        notifications actually enqueued (a closed or overflowed subscription
        enqueues nothing, so the count is a delivery figure, not
        ``len(changes)``).
        """
        with self._lock:
            subscribers = list(self._by_view.get(view, ()))
        count = 0
        overflowed_now = 0
        for key, old, new in changes:
            for subscription in subscribers:
                was_overflowed = subscription._overflowed
                if subscription._publish(version, key, old, new):
                    count += 1
                elif subscription._overflowed and not was_overflowed:
                    overflowed_now += 1
        if overflowed_now:
            with self._lock:
                self.overflows += overflowed_now
        return count

    def stats(self) -> dict[str, list[dict[str, object]]]:
        """Per-view queue statistics (JSON-serializable)."""
        with self._lock:
            return {
                view: [
                    {"id": s.subscription_id, **s.stats().as_dict()}
                    for s in subscribers
                ]
                for view, subscribers in self._by_view.items()
            }
