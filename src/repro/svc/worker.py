"""The service worker: claim, verify, report, repeat.

A :class:`Worker` drains the durable queue of one store.  Each claimed
job runs through a :class:`repro.api.Session` — so engines keep their
subprocess wall-clock budgets, results land in the store-backed
structural-hash cache (namespaced by tenant), and PROVED certificates
are persisted content-addressed.  While a job runs:

* a heartbeat thread renews the lease; a worker that is SIGKILLed just
  stops renewing, and any surviving worker's next
  :meth:`~repro.svc.queue.TaskQueue.requeue_expired` sweep puts the job
  back in the queue;
* every :class:`~repro.api.session.ProgressEvent` is appended to the
  job's event stream in the store (and, when :mod:`repro.obs` tracing
  is active, the run is additionally wrapped in a ``svc.job`` span, and
  the ``svc.*`` queue/lease/worker gauges are sampled between claims);
* the session's ``cancel_poll`` reads the job's cancel flag, so a
  wire-level cancel takes effect at the next engine-race boundary.

Workers are deliberately stateless between jobs: every piece of
coordination lives in the store, which is what makes ``N`` worker
*processes* (or hosts, with the store on shared storage) equivalent to
one.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Callable

from repro.circuits.bench_format import parse_bench
from repro.circuits.blif import parse_blif
from repro.circuits.netlist import Netlist
from repro.circuits.parse import parse_netlist
from repro.obs import metrics as _met
from repro.obs import probes as _obs
from repro.svc.queue import Job, JobState, TaskQueue
from repro.svc.store import Store


def parse_submission(text: str, fmt: str, name: str | None = None) -> Netlist:
    """Decode a submission body (``net``/``bench``/``blif``)."""
    if fmt == "bench":
        return parse_bench(text, name=name or "submission")
    if fmt == "blif":
        return parse_blif(text)
    return parse_netlist(text)


class Worker:
    """One queue-draining loop.

    * ``lease_seconds`` — how long a claim stays valid without a
      heartbeat; crash-recovery latency is bounded by it.
    * ``poll_interval`` — idle sleep between empty claims.
    * ``on_claim`` — optional hook called with the claimed
      :class:`Job` before execution; tests and ops tooling use it to
      inject faults or logging.
    * ``trace_jobs`` — record an :mod:`repro.obs` trace per job and
      upload it content-addressed with the verdict, so the server can
      serve ``GET /jobs/<id>/trace``.
    """

    def __init__(
        self,
        store: Store | str,
        *,
        worker_id: str | None = None,
        lease_seconds: float = 30.0,
        poll_interval: float = 0.2,
        heartbeat_interval: float | None = None,
        max_pending: int = 1024,
        on_claim: Callable[[Job], None] | None = None,
        trace_jobs: bool = False,
    ) -> None:
        self.store = store if isinstance(store, Store) else Store(store)
        self.queue = TaskQueue(
            self.store,
            lease_seconds=lease_seconds,
            max_pending=max_pending,
        )
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"worker-{os.getpid()}-{threading.get_ident() & 0xFFFF:x}"
        )
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_seconds / 3.0)
        )
        self.on_claim = on_claim
        self.trace_jobs = trace_jobs
        self.jobs_completed = 0

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        *,
        stop: threading.Event | None = None,
        max_jobs: int | None = None,
        drain: bool = False,
    ) -> int:
        """Claim and run jobs until stopped.

        ``drain=True`` exits once the queue is empty (batch mode);
        otherwise the loop idles on ``poll_interval``.  ``max_jobs``
        bounds the number of jobs executed.  Returns the number of jobs
        this call completed.
        """
        completed = 0
        while stop is None or not stop.is_set():
            if max_jobs is not None and completed >= max_jobs:
                break
            self.queue.requeue_expired()
            if _obs.ENABLED:
                _obs.sample_group(
                    ("svc.queue_depth", self.queue.depth()),
                    ("svc.active_leases", self.queue.active_leases()),
                    ("svc.completed_jobs", self.jobs_completed),
                )
            if self.run_one():
                completed += 1
                continue
            if drain:
                break
            time.sleep(self.poll_interval)
        return completed

    def run_one(self) -> bool:
        """Claim and execute at most one job; False when queue is empty."""
        job = self.queue.claim(self.worker_id, self.lease_seconds)
        if job is None:
            return False
        if self.on_claim is not None:
            self.on_claim(job)
        lease_lost = threading.Event()
        stop_heartbeat = threading.Event()

        def heartbeat() -> None:
            while not stop_heartbeat.wait(self.heartbeat_interval):
                if not self.queue.heartbeat(
                    job.job_id, self.worker_id, self.lease_seconds
                ):
                    # The lease expired and someone requeued the job:
                    # this run is a zombie.  Stop working — the retry
                    # owns the verdict now.
                    lease_lost.set()
                    return

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()
        try:
            self._execute(job, lease_lost)
        finally:
            stop_heartbeat.set()
            beat.join(timeout=self.heartbeat_interval * 4)
        self.jobs_completed += 1
        return True

    # ------------------------------------------------------------------ #
    # One job
    # ------------------------------------------------------------------ #

    def _execute(self, job: Job, lease_lost: threading.Event) -> None:
        from repro.api.session import Session
        from repro.api.task import VerificationTask
        from repro.portfolio.cache import ResultCache

        try:
            netlist = parse_submission(job.netlist_text, job.fmt, job.name)
        except Exception as exc:  # noqa: BLE001 - bad input, not a crash
            if _met.ENABLED:
                _met.WORKER_JOBS.labels("parse_error").inc()
            self.queue.fail(
                job.job_id,
                self.worker_id,
                f"submission does not parse: {type(exc).__name__}: {exc}",
            )
            return

        # Per-job tracing: reuse an already-active tracer (only *this*
        # job's new records are uploaded), otherwise own one for the
        # duration of the job.
        tracer = _obs.current_tracer() if self.trace_jobs else None
        owned_tracer = False
        if self.trace_jobs and tracer is None:
            tracer = _obs.enable()
            owned_tracer = True
        spans0 = len(tracer.spans) if tracer is not None else 0
        counters0 = len(tracer.counters) if tracer is not None else 0

        def upload_trace() -> str | None:
            if tracer is None:
                return None
            try:
                records = [
                    span.to_record() for span in tracer.spans[spans0:]
                ] + [
                    counter.to_record()
                    for counter in tracer.counters[counters0:]
                ]
                return self.store.put_trace(records, tracer.wall_epoch)
            except Exception:  # noqa: BLE001 - telemetry must not kill jobs
                return None

        def cancel_poll() -> bool:
            return lease_lost.is_set() or self.queue.cancel_requested(
                job.job_id
            )

        def on_progress(event) -> None:
            self.queue.record_event(
                job.job_id,
                event.kind,
                {
                    "engine": event.engine,
                    "elapsed": event.elapsed,
                    "cached": event.cached,
                },
            )

        session = Session(
            cache=ResultCache(self.store, namespace=job.namespace),
            on_progress=on_progress,
            cancel_poll=cancel_poll,
        )
        task = VerificationTask(
            netlist,
            engine=job.method,
            max_depth=job.max_depth,
            timeout=job.timeout,
            label=job.name,
        )
        try:
            try:
                with _obs.span(
                    "svc.job", "svc", job_id=job.job_id, method=job.method
                ):
                    result = session.run(task)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                if _met.ENABLED:
                    _met.WORKER_JOBS.labels("engine_error").inc()
                self.queue.fail(
                    job.job_id,
                    self.worker_id,
                    f"engine raised {type(exc).__name__}: {exc}\n"
                    + traceback.format_exc(limit=5),
                    trace_id=upload_trace(),
                )
                return
            if lease_lost.is_set():
                # the retry owns this job; our verdict is void
                if _met.ENABLED:
                    _met.WORKER_JOBS.labels("lease_lost").inc()
                return
            trace_id = upload_trace()
            payload = result.to_dict(netlist)
            if session.cancelled:
                if _met.ENABLED:
                    _met.WORKER_JOBS.labels("cancelled").inc()
                self.queue.complete(
                    job.job_id,
                    self.worker_id,
                    payload,
                    state=JobState.CANCELLED,
                    reason="cancelled by request",
                    trace_id=trace_id,
                )
            else:
                if _met.ENABLED:
                    _met.WORKER_JOBS.labels("done").inc()
                self.queue.complete(
                    job.job_id, self.worker_id, payload, trace_id=trace_id
                )
        finally:
            if owned_tracer:
                _obs.disable()


def worker_main(
    store_path: str,
    *,
    worker_id: str | None = None,
    lease_seconds: float = 30.0,
    poll_interval: float = 0.2,
    max_jobs: int | None = None,
    drain: bool = False,
    settle_seconds: float = 0.0,
    trace_jobs: bool = False,
) -> int:
    """Process entry point: build a worker over ``store_path`` and run.

    ``settle_seconds`` pauses after each claim before execution — a
    fault-injection seam for crash-recovery tests (kill the process
    while it provably holds a lease mid-task).
    """
    on_claim = None
    if settle_seconds > 0:

        def on_claim(job: Job) -> None:  # noqa: F811
            time.sleep(settle_seconds)

    worker = Worker(
        store_path,
        worker_id=worker_id,
        lease_seconds=lease_seconds,
        poll_interval=poll_interval,
        on_claim=on_claim,
        trace_jobs=trace_jobs,
    )
    stop = None
    try:
        # Graceful drain on SIGTERM (docker stop, server shutdown): the
        # job in flight finishes and completes; only the loop exits.
        import signal

        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:  # not this process's main thread
        stop = None
    return worker.run(stop=stop, max_jobs=max_jobs, drain=drain)
