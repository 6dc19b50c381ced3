"""Tests for the verification service (:mod:`repro.svc`).

Covers the four layers — SQLite store (migrations, namespaces,
content-addressed certificates), durable queue (ordering, leases,
backpressure, bounded attempts), worker loop (verdicts, certificates,
cancellation, fault reporting) and HTTP front — plus the cross-layer
guarantees: crash recovery via SIGKILL, end-to-end durability,
traced-vs-untraced verdict identity, and torn-write safety of the
legacy JSON-lines cache.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import sqlite3
import time
import urllib.error
import urllib.request

import pytest

from repro.circuits import generators
from repro.circuits.parse import serialize_netlist
from repro.errors import ModelCheckingError, QueueFullError, ServiceError
from repro.mc.result import Status, VerificationResult
from repro.portfolio.cache import ResultCache
from repro.svc import (
    JobState,
    Store,
    TaskQueue,
    VerificationServer,
    Worker,
    worker_main,
)
from repro.svc.store import MIGRATIONS, SCHEMA_VERSION, certificate_id


def safe_counter(width: int = 4, modulus: int = 12):
    return generators.mod_counter(width, modulus)


def safe_text(width: int = 4, modulus: int = 12) -> str:
    return serialize_netlist(safe_counter(width, modulus))


def buggy_text(width: int = 4, modulus: int = 12) -> str:
    return serialize_netlist(
        generators.mod_counter(width, modulus, safe=False)
    )


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "svc.sqlite")


def _wait_for(predicate, timeout: float = 15.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------- #
# Store
# ---------------------------------------------------------------------- #


class TestStore:
    def test_fresh_store_is_at_current_schema(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_migrates_v1_database_in_place(self, tmp_path):
        # Build a database as the v1 code level would have left it, then
        # reopen through Store: the v2 suffix (job_events, claim index)
        # must be applied without touching v1 rows.
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        for statement in MIGRATIONS[0]:
            conn.execute(statement)
        conn.execute(
            "INSERT INTO jobs (netlist, method, submitted_at) "
            "VALUES ('x', 'bmc', 1.0)"
        )
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()
        upgraded = Store(path)
        assert upgraded.schema_version == SCHEMA_VERSION
        queue = TaskQueue(upgraded)
        assert len(queue.jobs()) == 1  # v1 data survived
        queue.record_event(1, "migrated", None)  # v2 table exists
        assert queue.events(1)[0]["kind"] == "migrated"

    def test_migrates_v2_database_in_place(self, tmp_path):
        # A v2 database (pre-traces) picks up the traces table and the
        # trace_id/verdict job columns without touching existing rows.
        path = tmp_path / "v2.sqlite"
        conn = sqlite3.connect(path)
        for level in MIGRATIONS[:2]:
            for statement in level:
                conn.execute(statement)
        conn.execute(
            "INSERT INTO jobs (netlist, method, submitted_at) "
            "VALUES ('x', 'bmc', 1.0)"
        )
        conn.execute("PRAGMA user_version=2")
        conn.commit()
        conn.close()
        upgraded = Store(path)
        assert upgraded.schema_version == SCHEMA_VERSION
        job = TaskQueue(upgraded).job(1)
        assert job.trace_id is None and job.verdict is None
        assert upgraded.count_traces() == 0

    def test_traces_are_content_addressed(self, store):
        records = [{"type": "counter", "name": "svc.queue_depth",
                    "t": 0.5, "value": 3, "pid": 1}]
        first = store.put_trace(records, wall_epoch=123.0)
        second = store.put_trace(list(records), wall_epoch=123.0)
        assert first == second
        assert store.count_traces() == 1
        doc = store.get_trace(first)
        assert doc["schema"] == "repro.obs/1"
        assert doc["wall_epoch"] == 123.0
        assert doc["records"] == records
        # Different content, different address.
        assert store.put_trace(records, wall_epoch=124.0) != first
        assert store.count_traces() == 2

    def test_refuses_a_newer_schema(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version=99")
        conn.commit()
        conn.close()
        with pytest.raises(ServiceError, match="newer"):
            Store(path)

    def test_certificates_are_content_addressed(self, store):
        payload = {"format": "positional", "level": 3,
                   "clauses": [[1, -2], [2]]}
        first = store.put_certificate(payload)
        second = store.put_certificate(dict(payload))
        assert first == second == certificate_id(payload)
        assert store.count_certificates() == 1
        assert store.get_certificate(first) == payload

    def test_namespaces_isolate_results(self, store):
        record = {"status": "proved", "engine": "pdr", "iterations": 1,
                  "trace": None, "certificate": None, "stats": {}}
        store.put_result("tenant_a", "h1", "pdr", 50, record)
        assert store.get_result("tenant_a", "h1", "pdr", 50) is not None
        assert store.get_result("tenant_b", "h1", "pdr", 50) is None
        assert store.count_results("tenant_a") == 1
        assert store.count_results("tenant_b") == 0


# ---------------------------------------------------------------------- #
# ResultCache over the store backend
# ---------------------------------------------------------------------- #


class TestStoreBackedResultCache:
    def test_roundtrip_and_cross_process_shape(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        netlist = safe_counter()
        from repro.mc import verify

        result = verify(netlist, method="pdr", max_depth=50)
        assert result.proved and result.certificate is not None
        ResultCache(path).store(netlist, "pdr", 50, result)
        # A fresh cache instance (as another process would build) hits,
        # with the certificate re-attached from the content store.
        fresh = ResultCache(path)
        hit = fresh.lookup(safe_counter(), "pdr", 50)
        assert hit is not None and hit.proved
        assert hit.certificate is not None
        assert hit.certificate.clauses == result.certificate.clauses

    def test_lookup_falls_through_lru_eviction(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        writer = ResultCache(path)
        first, second = safe_counter(4, 12), safe_counter(5, 20)
        unknown = VerificationResult(status=Status.UNKNOWN, engine="bmc")
        writer.store(first, "bmc", 10, unknown)
        writer.store(second, "bmc", 10, unknown)
        tiny = ResultCache(path, max_memory_entries=1)
        assert len(tiny) == 1  # LRU front only held the newest
        assert tiny.lookup(first, "bmc", 10) is not None  # point query
        assert tiny.hits == 1

    def test_namespace_isolation_through_cache(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        netlist = safe_counter()
        result = VerificationResult(status=Status.PROVED, engine="pdr")
        ResultCache(path, namespace="a").store(netlist, "pdr", 50, result)
        assert (
            ResultCache(path, namespace="b").lookup(netlist, "pdr", 50)
            is None
        )
        assert (
            ResultCache(path, namespace="a").lookup(netlist, "pdr", 50)
            is not None
        )

    def test_jsonl_cache_rejects_namespaces(self, tmp_path):
        with pytest.raises(ValueError, match="single-tenant"):
            ResultCache(tmp_path / "cache.jsonl", namespace="tenant")


def _hammer_jsonl(args):
    path, worker_index, records = args
    cache = ResultCache(path)
    netlist = safe_counter()
    for k in range(records):
        result = VerificationResult(status=Status.UNKNOWN, engine="bmc")
        # Fatten the record so a torn write would span buffer boundaries.
        result.stats.set(f"w{worker_index}_k{k}_" + "x" * 256, float(k))
        cache.store(netlist, f"m{worker_index}_{k}", k, result)
    return records


class TestJsonlTornWrites:
    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        # Regression for the buffered-append era: JSON-lines appends
        # from multiple processes could interleave mid-line.  With
        # single-write O_APPEND appends under a lock, every line must
        # parse and every record must arrive.
        path = str(tmp_path / "shared.jsonl")
        workers, records = 4, 40
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            pool.map(
                _hammer_jsonl,
                [(path, index, records) for index in range(workers)],
            )
        lines = pathlib.Path(path).read_text().splitlines()
        assert len(lines) == workers * records
        keys = set()
        for line in lines:
            record = json.loads(line)  # a torn line would explode here
            keys.add((record["method"], record["max_depth"]))
        assert len(keys) == workers * records


# ---------------------------------------------------------------------- #
# Queue
# ---------------------------------------------------------------------- #


class TestQueue:
    def test_priority_then_fifo_ordering(self, store):
        queue = TaskQueue(store)
        low = queue.submit(safe_text(), method="bmc", priority=0)
        high_a = queue.submit(safe_text(), method="bmc", priority=5)
        high_b = queue.submit(safe_text(), method="bmc", priority=5)
        order = [queue.claim("w").job_id for _ in range(3)]
        assert order == [high_a, high_b, low]

    def test_backpressure_rejects_with_retry_after(self, store):
        queue = TaskQueue(store, max_pending=2, retry_after=7.5)
        queue.submit(safe_text(), method="bmc")
        queue.submit(safe_text(), method="bmc")
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(safe_text(), method="bmc")
        assert excinfo.value.retry_after == 7.5
        assert excinfo.value.bound == 2

    def test_unknown_engine_rejected_at_submit(self, store):
        with pytest.raises(ModelCheckingError, match="unknown engine"):
            TaskQueue(store).submit(safe_text(), method="no_such_engine")

    def test_unknown_format_rejected_at_submit(self, store):
        with pytest.raises(ServiceError, match="format"):
            TaskQueue(store).submit(safe_text(), fmt="vhdl")

    def test_lease_expiry_requeues_then_bounds_attempts(self, store):
        queue = TaskQueue(store, lease_seconds=0.05, max_attempts=2)
        job_id = queue.submit(safe_text(), method="bmc")
        assert queue.claim("w1").job_id == job_id
        time.sleep(0.1)
        assert queue.requeue_expired() == [(job_id, "requeued")]
        assert queue.job(job_id).state is JobState.QUEUED
        assert queue.claim("w2").job_id == job_id
        time.sleep(0.1)
        # Second expiry exhausts max_attempts=2: FAILED with a reason.
        assert queue.requeue_expired() == [(job_id, "failed")]
        job = queue.job(job_id)
        assert job.state is JobState.FAILED
        assert "lease expired after 2 attempts" in job.reason

    def test_heartbeat_keeps_the_lease_alive(self, store):
        queue = TaskQueue(store, lease_seconds=0.08)
        job_id = queue.submit(safe_text(), method="bmc")
        queue.claim("w1")
        for _ in range(4):
            time.sleep(0.04)
            assert queue.heartbeat(job_id, "w1")
        assert queue.requeue_expired() == []

    def test_lost_lease_completion_is_discarded(self, store):
        # Worker A claims, stalls past its lease, the job is requeued
        # and B completes it; A's late verdict must not overwrite B's —
        # that is the "no task runs twice to completion" guarantee.
        queue = TaskQueue(store, lease_seconds=0.05)
        job_id = queue.submit(safe_text(), method="bmc")
        queue.claim("wA")
        time.sleep(0.1)
        queue.requeue_expired()
        queue.claim("wB")
        assert queue.complete(job_id, "wB", {"status": "proved"})
        assert not queue.complete(job_id, "wA", {"status": "unknown"})
        assert not queue.heartbeat(job_id, "wA")
        assert queue.job(job_id).result["status"] == "proved"

    def test_cancel_queued_job_is_immediate(self, store):
        queue = TaskQueue(store)
        job_id = queue.submit(safe_text(), method="bmc")
        assert queue.cancel(job_id)
        job = queue.job(job_id)
        assert job.state is JobState.CANCELLED
        assert not queue.cancel(job_id)  # already terminal
        assert queue.claim("w") is None


# ---------------------------------------------------------------------- #
# Worker
# ---------------------------------------------------------------------- #


class TestWorker:
    def test_drains_queue_with_verdicts_and_certificates(self, store):
        queue = TaskQueue(store)
        proved_id = queue.submit(safe_text(), method="pdr", name="safe")
        failed_id = queue.submit(buggy_text(), method="bmc", name="buggy")
        assert Worker(store).run(drain=True) == 2
        proved, failed = queue.job(proved_id), queue.job(failed_id)
        assert proved.state is JobState.DONE
        assert proved.result["status"] == "proved"
        assert proved.result["certificate"] is not None
        assert failed.state is JobState.DONE
        assert failed.result["status"] == "failed"
        assert failed.result["trace"] is not None
        # The session's store-backed cache persisted both verdicts.
        assert store.count_results("") == 2
        kinds = [event["kind"] for event in queue.events(proved_id)]
        assert kinds == ["submitted", "claimed", "task_started",
                        "task_finished", "job_finished"]

    def test_cancellation_lands_between_engine_races(self, store):
        queue = TaskQueue(store)
        job_id = queue.submit(safe_text(), method="pdr")
        # The cancel arrives after the claim (wire-level: flag in the
        # store), and the session's cancel_poll picks it up at the next
        # task boundary.
        worker = Worker(
            store, on_claim=lambda job: queue.cancel(job.job_id)
        )
        worker.run(drain=True)
        job = queue.job(job_id)
        assert job.state is JobState.CANCELLED
        assert job.reason == "cancelled by request"
        assert job.result["status"] == "unknown"

    def test_unparseable_submission_fails_with_reason(self, store):
        queue = TaskQueue(store)
        job_id = queue.submit("this is not a netlist \x00", method="bmc")
        Worker(store).run(drain=True)
        job = queue.job(job_id)
        assert job.state is JobState.FAILED
        assert "does not parse" in job.reason

    def test_tenant_namespaces_share_nothing(self, store):
        queue = TaskQueue(store)
        queue.submit(safe_text(), method="pdr", namespace="a")
        queue.submit(safe_text(), method="pdr", namespace="b")
        Worker(store).run(drain=True)
        assert store.count_results("a") == 1
        assert store.count_results("b") == 1
        assert store.count_results("") == 0


# ---------------------------------------------------------------------- #
# Crash recovery (SIGKILL) and end-to-end durability
# ---------------------------------------------------------------------- #


def _start_stalling_worker(store_path: str) -> multiprocessing.Process:
    """A worker process that claims a job, then stalls holding the lease
    (settle_seconds) — the deterministic stand-in for "SIGKILLed while
    mid-task"."""
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(
        target=worker_main,
        args=(store_path,),
        kwargs={
            "worker_id": "doomed",
            "lease_seconds": 0.4,
            "poll_interval": 0.02,
            "settle_seconds": 120.0,
        },
        daemon=True,
    )
    process.start()
    return process


class TestCrashRecovery:
    def test_sigkilled_worker_lease_expires_and_task_is_requeued_once(
        self, tmp_path
    ):
        store_path = str(tmp_path / "svc.sqlite")
        store = Store(store_path)
        queue = TaskQueue(store, lease_seconds=0.4)
        job_id = queue.submit(safe_text(), method="pdr", name="victim")
        doomed = _start_stalling_worker(store_path)
        try:
            assert _wait_for(
                lambda: queue.job(job_id).state is JobState.RUNNING
            ), "stalling worker never claimed the job"
            os.kill(doomed.pid, signal.SIGKILL)
        finally:
            doomed.join(timeout=5.0)
        job = queue.job(job_id)
        assert job.state is JobState.RUNNING  # the lease outlives the corpse
        assert job.attempts == 1
        time.sleep(0.5)  # let the lease lapse
        assert queue.requeue_expired() == [(job_id, "requeued")]
        # Requeued exactly once: a second sweep finds nothing.
        assert queue.requeue_expired() == []
        assert queue.job(job_id).state is JobState.QUEUED
        # A surviving worker picks it up and finishes it.
        Worker(store, worker_id="survivor").run(drain=True)
        job = queue.job(job_id)
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert [e["kind"] for e in queue.events(job_id)].count(
            "requeued"
        ) == 1
        # The verdict round-trips with its certificate intact: rebuild
        # the result from the stored payload and re-check the invariant
        # on a fresh solver.
        from repro.pdr import check_certificate

        netlist = safe_counter()
        result = VerificationResult.from_dict(job.result, netlist)
        assert result.proved and result.certificate is not None
        check_certificate(netlist, result.certificate)  # raises if bogus

    def test_end_to_end_durability(self, tmp_path):
        # The acceptance gate: submit N tasks, SIGKILL a worker mid-run,
        # restart workers against the same store; every task reaches a
        # conclusive verdict, none is lost, none runs twice to
        # completion, and cached PROVED results re-serve in <50ms.
        store_path = str(tmp_path / "svc.sqlite")
        store = Store(store_path)
        queue = TaskQueue(store, lease_seconds=0.4)
        expected = {
            queue.submit(safe_text(4, 12), method="pdr"): "proved",
            queue.submit(safe_text(5, 20), method="pdr"): "proved",
            queue.submit(buggy_text(4, 12), method="bmc"): "failed",
            queue.submit(buggy_text(5, 20), method="bmc"): "failed",
        }
        doomed = _start_stalling_worker(store_path)
        try:
            assert _wait_for(lambda: queue.active_leases() > 0)
            os.kill(doomed.pid, signal.SIGKILL)
        finally:
            doomed.join(timeout=5.0)
        time.sleep(0.5)
        # "Restart workers against the same store": two fresh processes.
        ctx = multiprocessing.get_context("fork")
        fleet = [
            ctx.Process(
                target=worker_main,
                args=(store_path,),
                kwargs={
                    "worker_id": f"restart-{index}",
                    "lease_seconds": 10.0,
                    "poll_interval": 0.02,
                    "drain": True,
                },
                daemon=True,
            )
            for index in range(2)
        ]
        for process in fleet:
            process.start()
        for process in fleet:
            process.join(timeout=60.0)
        assert _wait_for(
            lambda: all(
                queue.job(job_id).state is JobState.DONE
                for job_id in expected
            ),
            timeout=30.0,
        ), {job_id: queue.job(job_id).state for job_id in expected}
        attempts = 0
        for job_id, verdict in expected.items():
            job = queue.job(job_id)
            assert job.result["status"] == verdict, (job_id, job.reason)
            finishes = [
                event
                for event in queue.events(job_id)
                if event["kind"] == "job_finished"
            ]
            assert len(finishes) == 1  # ran to completion exactly once
            attempts += job.attempts
        assert attempts == len(expected) + 1  # exactly one retry happened
        # Cached PROVED re-served from the store, fast.
        cache = ResultCache(store_path)
        start = time.perf_counter()
        hit = cache.lookup(safe_counter(4, 12), "pdr", 100)
        elapsed = time.perf_counter() - start
        assert hit is not None and hit.proved
        assert elapsed < 0.05, f"cached lookup took {elapsed * 1000:.1f}ms"


# ---------------------------------------------------------------------- #
# Observability
# ---------------------------------------------------------------------- #


class TestServiceObservability:
    def _run_service(self, tmp_path, tag: str, traced: bool):
        from repro import obs

        store = Store(tmp_path / f"{tag}.sqlite")
        queue = TaskQueue(store)
        job_ids = [
            queue.submit(safe_text(), method="pdr"),
            queue.submit(buggy_text(), method="bmc"),
        ]
        tracer = None
        try:
            if traced:
                tracer = obs.enable(tick=0.0)
            Worker(store).run(drain=True)
        finally:
            if traced:
                obs.disable()
        payloads = []
        for job_id in job_ids:
            payload = dict(queue.job(job_id).result)
            payload.pop("stats")  # wall-clock noise, not verdict content
            payloads.append(payload)
        return payloads, tracer

    def test_traced_run_is_verdict_identical_and_observable(self, tmp_path):
        # The svc.* probes follow the read-only probe contract: a
        # traced service run must return bit-identical verdicts
        # (status, trace, certificate, iterations) to an untraced one.
        plain, _ = self._run_service(tmp_path, "plain", traced=False)
        traced, tracer = self._run_service(tmp_path, "traced", traced=True)
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )
        span_names = {span.name for span in tracer.spans}
        assert "svc.job" in span_names
        counter_names = {counter.name for counter in tracer.counters}
        assert "svc.queue_depth" in counter_names
        assert "svc.active_leases" in counter_names

    def test_metered_run_is_verdict_identical(self, tmp_path):
        # Same contract for the metrics registry: instruments only read
        # timestamps and add to private tallies, so verdicts are
        # bit-identical with metrics on or off — and with them on, the
        # queue tallies actually move.
        from repro.obs import metrics

        was = metrics.ENABLED
        metrics.disable()
        try:
            plain, _ = self._run_service(tmp_path, "unmetered", traced=False)
            metrics.enable()
            metrics.REGISTRY.reset()
            metered, _ = self._run_service(tmp_path, "metered", traced=False)
            doc = metrics.REGISTRY.to_json()
        finally:
            metrics.disable()
            metrics.REGISTRY.reset()
            if was:
                metrics.enable()
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            metered, sort_keys=True
        )
        claimed = sum(
            sample["value"]
            for sample in doc["repro_jobs_claimed_total"]["samples"]
        )
        assert claimed == 2
        run_hist = doc["repro_job_run_seconds"]["samples"]
        assert sum(sample["count"] for sample in run_hist) == 2
        assert sum(
            sample["count"]
            for sample in doc["repro_sat_solve_seconds"]["samples"]
        ) > 0


# ---------------------------------------------------------------------- #
# HTTP front
# ---------------------------------------------------------------------- #


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=15) as response:
        return json.loads(response.read())


def _post(base: str, path: str, payload: dict | None = None) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload or {}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.loads(response.read())


class TestServer:
    def test_submit_status_result_cancel_health_metrics(self, tmp_path):
        server = VerificationServer(
            tmp_path / "svc.sqlite",
            workers=1,
            worker_processes=False,
            worker_poll=0.02,
            lease_seconds=5.0,
        )
        with server:
            base = server.url
            health = _get(base, "/healthz")
            assert health["ok"] and health["schema_version"] == SCHEMA_VERSION
            assert "pdr" in health["engines"]
            job_id = _post(
                base,
                "/submit",
                {"netlist": safe_text(), "method": "pdr", "name": "safe"},
            )["job_id"]
            cancelled_id = _post(
                base,
                "/submit",
                {"netlist": safe_text(5, 20), "method": "pdr",
                 "priority": -10},
            )["job_id"]
            assert _post(base, f"/jobs/{cancelled_id}/cancel")["cancelled"]
            assert _wait_for(
                lambda: _get(base, f"/jobs/{job_id}")["state"] == "done"
            )
            result = _get(base, f"/jobs/{job_id}/result")["result"]
            assert result["status"] == "proved"
            assert result["certificate"] is not None
            events = _get(base, f"/jobs/{job_id}/events")["events"]
            assert any(e["kind"] == "job_finished" for e in events)
            listing = _get(base, "/jobs")["jobs"]
            states = {job["job_id"]: job["state"] for job in listing}
            assert states[cancelled_id] == "cancelled"
            metrics = _get(base, "/metrics")
            assert metrics["jobs"]["done"] >= 1
            assert metrics["certificates"] >= 1
            catalog = _get(base, "/engines")["engines"]
            assert {entry["name"] for entry in catalog} >= {"pdr", "bmc"}

    def test_submit_validation_and_backpressure(self, tmp_path):
        server = VerificationServer(
            tmp_path / "svc.sqlite", workers=0, max_pending=1
        )
        with server:
            base = server.url
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/submit",
                      {"netlist": safe_text(), "method": "astrology"})
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/submit", {"method": "bmc"})
            assert excinfo.value.code == 400
            _post(base, "/submit", {"netlist": safe_text(), "method": "bmc"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/submit",
                      {"netlist": safe_text(), "method": "bmc"})
            assert excinfo.value.code == 429
            body = json.loads(excinfo.value.read())
            assert body["retry_after"] > 0
            assert _get(base, "/healthz")["queue_depth"] == 1

# ---------------------------------------------------------------------- #
# Fleet telemetry: exposition formats, SSE streaming, persisted traces
# ---------------------------------------------------------------------- #


def _sse_collect(base: str, job_id: int, after: int = 0,
                 timeout: float = 30.0):
    """Consume one job's SSE stream until its ``end`` event.

    Returns ``(frames, end)`` where frames are ``(seq, kind, data)``
    triples in arrival order.
    """
    request = urllib.request.Request(
        f"{base}/jobs/{job_id}/events?stream=1&after={after}",
        headers={"Accept": "text/event-stream"},
    )
    frames, end, fields = [], None, {}
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.headers["Content-Type"].startswith(
            "text/event-stream"
        )
        for raw in response:
            line = raw.decode().rstrip("\r\n")
            if line == "":
                if "data" in fields:
                    data = json.loads(fields["data"])
                    if fields.get("event") == "end":
                        end = data
                        break
                    frames.append(
                        (int(fields["id"]), fields.get("event"), data)
                    )
                fields = {}
                continue
            if line.startswith(":"):
                continue
            key, _, value = line.partition(":")
            fields[key] = value[1:] if value.startswith(" ") else value
    return frames, end


class TestTelemetryServer:
    def _server(self, tmp_path, **kwargs):
        options = dict(
            workers=1,
            worker_processes=False,
            worker_poll=0.02,
            lease_seconds=5.0,
            sse_poll=0.02,
        )
        options.update(kwargs)
        return VerificationServer(tmp_path / "svc.sqlite", **options)

    def test_metrics_json_and_prometheus_agree(self, tmp_path):
        with self._server(tmp_path) as server:
            base = server.url
            job_id = _post(
                base, "/submit", {"netlist": safe_text(), "method": "pdr"}
            )["job_id"]
            assert _wait_for(
                lambda: _get(base, f"/jobs/{job_id}")["state"] == "done"
            )
            doc = _get(base, "/metrics")
            # Legacy gauges survive alongside the registry snapshot.
            assert doc["jobs"]["done"] == 1
            assert doc["queue_depth"] == 0
            families = doc["metrics"]
            assert families["repro_queue_depth"]["samples"][0]["value"] == 0
            won = {
                (s["labels"]["method"], s["labels"]["verdict"]): s["value"]
                for s in families["repro_jobs_won_total"]["samples"]
            }
            assert won[("pdr", "proved")] == 1
            # The Prometheus variant renders the same snapshot.
            request = urllib.request.Request(
                base + "/metrics", headers={"Accept": "text/plain"}
            )
            with urllib.request.urlopen(request, timeout=15) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = response.read().decode()
            assert "# TYPE repro_jobs_won_total counter" in text
            assert (
                'repro_jobs_won_total{method="pdr",verdict="proved"} 1'
                in text
            )
            assert "# TYPE repro_job_latency_seconds histogram" in text
            # Every value line parses as name{labels} value.
            for line in text.strip().splitlines():
                if line.startswith("#"):
                    continue
                assert " " in line
                name_part, value = line.rsplit(" ", 1)
                assert name_part
                float(value.replace("+Inf", "inf"))

    def test_sse_stream_end_to_end_with_resume(self, tmp_path):
        with self._server(tmp_path, trace_jobs=True) as server:
            base = server.url
            job_id = _post(
                base, "/submit", {"netlist": safe_text(), "method": "bmc",
                                  "max_depth": 5},
            )["job_id"]
            frames, end = _sse_collect(base, job_id, timeout=60.0)
            kinds = [kind for _, kind, _ in frames]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "job_finished"
            seqs = [seq for seq, _, _ in frames]
            assert seqs == list(range(1, len(seqs) + 1))  # no gaps
            assert end["state"] == "done"
            assert end["seq"] == seqs[-1]
            assert end["trace_id"]
            # Resume mid-stream: only events after the cursor replay.
            resumed, resumed_end = _sse_collect(
                base, job_id, after=seqs[1], timeout=30.0
            )
            assert [seq for seq, _, _ in resumed] == seqs[2:]
            assert resumed_end["state"] == "done"
            # The JSON snapshot stays available for non-streaming clients.
            snapshot = _get(base, f"/jobs/{job_id}/events")["events"]
            assert [e["seq"] for e in snapshot] == seqs

    def test_job_trace_is_chrome_loadable(self, tmp_path):
        with self._server(tmp_path, trace_jobs=True) as server:
            base = server.url
            job_id = _post(
                base, "/submit", {"netlist": safe_text(), "method": "pdr"}
            )["job_id"]
            assert _wait_for(
                lambda: _get(base, f"/jobs/{job_id}")["state"] == "done"
            )
            assert _get(base, f"/jobs/{job_id}")["trace_id"]
            doc = _get(base, f"/jobs/{job_id}/trace")
            assert doc["otherData"]["schema"] == "repro.obs/1"
            assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
            span_names = {
                event["name"]
                for event in doc["traceEvents"]
                if event.get("ph") == "X"
            }
            assert "svc.job" in span_names
            for event in doc["traceEvents"]:
                if event["ph"] == "X":
                    assert {"ts", "dur", "pid", "tid"} <= set(event)

    def test_trace_404_without_trace_jobs(self, tmp_path):
        with self._server(tmp_path, trace_jobs=False) as server:
            base = server.url
            job_id = _post(
                base, "/submit", {"netlist": safe_text(), "method": "bmc",
                                  "max_depth": 3},
            )["job_id"]
            assert _wait_for(
                lambda: _get(base, f"/jobs/{job_id}")["state"] == "done"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base, f"/jobs/{job_id}/trace")
            assert excinfo.value.code == 404


class TestSseDurability:
    def test_stream_survives_worker_sigkill_and_requeue(self, tmp_path):
        # A client mid-stream must ride through worker SIGKILL + lease
        # expiry + requeue and still land on the terminal event, with
        # no gaps in sequence ids — the log lives in the store, not in
        # any worker.
        import threading

        store_path = str(tmp_path / "svc.sqlite")
        store = Store(store_path)
        queue = TaskQueue(store, lease_seconds=0.4)
        job_id = queue.submit(safe_text(), method="pdr", name="victim")
        server = VerificationServer(
            store_path, workers=0, sse_poll=0.02
        )
        with server:
            base = server.url
            box = {}

            def client() -> None:
                box["frames"], box["end"] = _sse_collect(
                    base, job_id, timeout=60.0
                )

            listener = threading.Thread(target=client, daemon=True)
            listener.start()
            doomed = _start_stalling_worker(store_path)
            try:
                assert _wait_for(
                    lambda: queue.job(job_id).state is JobState.RUNNING
                )
                os.kill(doomed.pid, signal.SIGKILL)
            finally:
                doomed.join(timeout=5.0)
            time.sleep(0.5)  # lease lapses while the client is streaming
            assert queue.requeue_expired() == [(job_id, "requeued")]
            Worker(store, worker_id="survivor").run(drain=True)
            listener.join(timeout=30.0)
            assert not listener.is_alive(), "stream never terminated"
        frames, end = box["frames"], box["end"]
        kinds = [kind for _, kind, _ in frames]
        assert "requeued" in kinds
        assert kinds.count("claimed") == 2  # doomed + survivor
        assert kinds[-1] == "job_finished"
        seqs = [seq for seq, _, _ in frames]
        assert seqs == list(range(1, len(seqs) + 1))  # contiguous
        assert end["state"] == "done" and end["verdict"] == "proved"
