"""The chunked scheduler: deterministic fan-out over a worker pool.

The scheduler owns exactly one concern: run one function over a list of
chunks — serially or on a :mod:`concurrent.futures` pool — and return the
per-chunk results *in submission order*, so pooled execution is
indistinguishable from serial execution for any per-chunk-pure function.
Out-of-order completion never leaks into results, which is what makes the
parallel pipeline byte-identical to the serial one.

Pooled execution always runs on one persistent
:class:`~repro.runtime.pool.WorkerPool` per scheduler, spawned lazily, sized
once from ``config.workers`` and reused across calls.  Shared payloads ship
to process workers through the epoch protocol (pickled once per payload
revision, fetched and cached worker-side); thread workers read them by
reference.

Failure protocol: the first worker exception — earliest by submission order
among the failed tasks — is re-raised as-is, every not-yet-running task is
cancelled, and the pool is disposed (``cancel_futures``) so no in-flight
chunk outlives the call that submitted it.  Disposal is not closure: the
next call respawns fresh workers.

Worker functions used with the process pool must be picklable: module-level
functions (optionally wrapped in :func:`functools.partial`) qualify,
closures and lambdas do not.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, Future, wait
from functools import partial
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.obs import clock
from repro.obs.trace import NULL_RECORDER
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import WorkerPool, load_epoch_payload

T = TypeVar("T")
R = TypeVar("R")


def chunked(items: Sequence[T], size: int) -> list[list[T]]:
    """Split ``items`` into consecutive chunks of at most ``size`` elements.

    The concatenation of the chunks is exactly ``items``; the empty sequence
    yields no chunks.
    """
    if size < 1:
        raise ValueError(f"chunk size must be a positive integer, got {size}")
    return [list(items[start:start + size]) for start in range(0, len(items), size)]


def even_spans(count: int, parts: int) -> list[tuple[int, int]]:
    """At most ``parts`` consecutive, near-equal ``(start, stop)`` spans.

    Boundaries only, never copies: the sharded blocking fan-outs ship
    spans and slice worker-side.  Sizes differ by at most one (larger spans
    first), the spans tile ``range(count)`` exactly, and none is empty —
    fewer than ``parts`` spans when ``count < parts``.
    """
    if parts < 1:
        raise ValueError(f"parts must be a positive integer, got {parts}")
    parts = min(parts, count)
    if parts == 0:
        return []
    base, extra = divmod(count, parts)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def timed_call(fn: Callable[[T], R], chunk: T) -> tuple[R, float, float]:
    """Run ``fn(chunk)`` and return ``(result, start, end)``.

    Module-level so that ``partial(timed_call, fn)`` stays picklable for the
    process pool; the interval is measured inside the worker and therefore
    excludes queueing and result-transfer time.  Endpoints are read from
    :func:`repro.obs.clock.now` — a system-wide monotonic clock, so
    worker-measured intervals land on the parent's trace timeline; the
    duration is simply ``end - start``.
    """
    start = clock.now()
    result = fn(chunk)
    return result, start, clock.now()


def _timed_epoch_call(
    fn: Callable[[Any, T], R], slot: str, epoch: int, path: str, chunk: T
) -> tuple[R, float, float, bool]:
    """Process-pool task: fetch the epoch payload, then ``fn(payload, chunk)``.

    Returns ``(result, start, end, fetched)`` — ``fetched`` tells the parent
    whether this task actually loaded the payload (at most once per worker
    per epoch) or served it from the worker's cache.  Worker-side trace data
    rides back on this existing chunk-result channel; there is no separate
    IPC for observability.
    """
    payload, fetched = load_epoch_payload(slot, epoch, path)
    result, start, end = timed_call(partial(fn, payload), chunk)
    return result, start, end, fetched


class ChunkScheduler:
    """Runs chunk functions according to a :class:`RuntimeConfig`.

    ``recorder`` (default: the shared no-op) receives pool lifecycle events
    (executor spawns) and payload-fetch metrics; per-chunk spans go to the
    run recorder handed to :meth:`map_chunks`.  Recording never alters
    scheduling — results are byte-identical with or without a recorder.
    """

    def __init__(
        self, config: RuntimeConfig | None = None, recorder: Any = None
    ) -> None:
        self.config = config or RuntimeConfig()
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._pool: WorkerPool | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def pool(self) -> WorkerPool | None:
        """The persistent pool (``None`` until the first pooled call)."""
        return self._pool

    def _ensure_pool(self) -> WorkerPool:
        """The persistent pool, created lazily — once per scheduler.

        Sized from ``config.workers`` exactly; never resized or rebuilt
        because a call happens to carry fewer chunks than there are slots.
        """
        if self._pool is None:
            self._pool = WorkerPool(
                self.config.executor, self.config.workers, recorder=self.recorder
            )
        return self._pool

    def close(self) -> None:
        """Shut the persistent pool down and drop all published payloads.

        Idempotent, and never terminal: the next pooled call lazily creates
        a fresh pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ChunkScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- mapping -----------------------------------------------------------

    def map_chunks(
        self,
        fn: Callable[..., Any],
        chunks: Sequence[Any],
        *,
        stage: str | None = None,
        recorder: Any = NULL_RECORDER,
        shared: Any = None,
        shared_anchors: tuple[Any, ...] | None = None,
        shared_version: Any = None,
        slot: str | None = None,
        items: Callable[[Any], int] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every chunk, preserving chunk order.

        Without ``shared``, ``fn`` is called as ``fn(chunk)``.  With
        ``shared``, ``fn`` is called as ``fn(shared, chunk)`` and the shared
        object ships to process-pool workers out of band through the epoch
        protocol (pickled once per payload revision), while thread and
        serial execution pass it by reference for free.

        ``shared_anchors`` / ``shared_version`` identify the payload's
        revision for epoch reuse (see :meth:`WorkerPool.publish`); ``slot``
        names the payload family (defaults to ``stage``), so consecutive
        calls for the same stage can reuse a still-current payload.

        With ``stage`` set and an enabled ``recorder``, each chunk lands on
        the recorder as a ``chunk`` span named ``stage``, timed in-worker,
        with its ``index`` within this call; ``items`` (optional) maps a
        chunk *result* to the span's item count — e.g. ``len`` when each
        result is the produced list/array — so the trace carries per-chunk
        throughput.  It runs parent-side on the returned results, never in
        a worker.  Serial execution (one worker, or a single chunk) runs
        in-process without a pool.
        """
        if not chunks:
            return []
        bound = fn if shared is None else partial(fn, shared)
        if not (self.config.is_parallel and len(chunks) > 1):
            results = []
            for index, chunk in enumerate(chunks):
                result, start, end = timed_call(bound, chunk)
                self._record(recorder, stage, index, start, end, result, items)
                results.append(result)
            return results
        pool = self._ensure_pool()
        executor = pool.executor
        # Only process pools need payloads shipped; threads share memory.
        use_epochs = shared is not None and self.config.executor == "process"
        if use_epochs:
            slot = slot or stage or "shared"
            published = pool.publish(
                slot, shared, anchors=shared_anchors, version=shared_version
            )
            futures: list[Future] = [
                executor.submit(
                    _timed_epoch_call,
                    fn, slot, published.epoch, published.path, chunk,
                )
                for chunk in chunks
            ]
        else:
            futures = [executor.submit(timed_call, bound, chunk) for chunk in chunks]
        raw = self._collect(futures, on_error=lambda: pool.dispose(cancel=True))
        results = []
        fetches = 0
        for index, item in enumerate(raw):
            fetched = None
            if use_epochs:
                result, start, end, fetched = item
                fetches += int(fetched)
            else:
                result, start, end = item
            self._record(recorder, stage, index, start, end, result, items, fetched)
            results.append(result)
        if use_epochs:
            pool.record_fetches(fetches)
            if self.recorder.enabled:
                # Payload-fetch accounting per task: a "hit" is a task served
                # from its worker's epoch cache, a "miss" re-read the spool.
                self.recorder.metrics.add("pool.payload.misses", fetches)
                self.recorder.metrics.add("pool.payload.hits", len(raw) - fetches)
        return results

    # -- shared plumbing ---------------------------------------------------

    @staticmethod
    def _record(
        recorder: Any,
        stage: str | None,
        index: int,
        start: float,
        end: float,
        result: Any,
        items: Callable[[Any], int] | None,
        fetched: bool | None = None,
    ) -> None:
        """Attach one chunk span: its position in the call, its item count
        and, on a process pool, whether it fetched the shared payload."""
        if stage is None or not recorder.enabled:
            return
        attributes: dict[str, Any] = {"index": index}
        if items is not None:
            attributes["items"] = items(result)
        if fetched is not None:
            attributes["fetched"] = fetched
        recorder.add_span(stage, kind="chunk", start=start, end=end, attributes=attributes)

    @staticmethod
    def _collect(futures: list[Future], on_error: Callable[[], None]) -> list[Any]:
        """Drain futures in submission order, with the failure protocol.

        On success, returns every result in submission order.  On failure,
        cancels everything still pending, shuts the pool down via
        ``on_error`` and re-raises the *first worker exception* — earliest
        by submission order among the failed tasks — rather than whatever
        ``Future.result`` would have surfaced first.
        """
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        if any(not f.cancelled() and f.exception() is not None for f in done):
            # Cancel everything still queued, let already-running tasks
            # drain, then pick the earliest failure by *submission* order —
            # completion order must not decide which exception surfaces.
            for future in futures:
                future.cancel()
            wait(futures)
            failure = next(
                future.exception()
                for future in futures
                if future.done()
                and not future.cancelled()
                and future.exception() is not None
            )
            on_error()
            raise failure
        return [future.result() for future in futures]
