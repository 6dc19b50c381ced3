"""The ``service`` workload: seeded open-loop load over HTTP.

One sender thread submits jobs at seeded Poisson arrival times on one
persistent connection; the main thread polls the job table on a second
one (two client connections in all).  Latency runs from a job's
*scheduled* send time to the store's ``finished_at``, both wall-clock
times on this host, so neither client polling nor a late sender hides
queueing.  Arrivals are a Poisson process conditioned on its count: the
``n`` send times are sorted uniform draws over ``n / rate`` seconds.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import random
import shutil
import threading
import time
from pathlib import Path
from time import perf_counter

from repro.mc import verify
from repro.svc import VerificationServer


class _Client:
    """JSON over one persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def call(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: {response.status} {data}")
        return data

    def close(self) -> None:
        self.conn.close()


def start_server(run_dir: Path) -> tuple[VerificationServer, float]:
    """A fresh store and a started server with one worker process; returns
    the server and its start-up time up to the first healthy reply."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    start = perf_counter()
    server = VerificationServer(run_dir / "store.sqlite", workers=1)
    host, port = server.start()
    client = _Client(host, port)
    try:
        client.call("GET", "/healthz")
    finally:
        client.close()
    return server, perf_counter() - start


def stop_server(server: VerificationServer, run_dir: Path) -> None:
    server.stop()
    for process in multiprocessing.active_children():
        process.join(timeout=5)
        if process.is_alive():
            process.kill()
            process.join()
    shutil.rmtree(run_dir, ignore_errors=True)


def arrival_offsets(seed: int, count: int, rate: float) -> list[float]:
    rng = random.Random(seed * 7919 + 17)
    span = count / rate
    offsets = sorted(rng.uniform(0.0, span) for _ in range(count))
    return [t - offsets[0] for t in offsets]


def run_load(server: VerificationServer, jobs, offsets, max_depth: int,
             drain_seconds: float) -> dict:
    """Send every job on schedule, wait for all verdicts, read them back."""
    host, port = server.host, server.port
    sent: list[dict] = [{} for _ in jobs]
    errors: list[BaseException] = []
    wall0 = time.time() + 0.05
    mono0 = perf_counter() + 0.05

    def sender() -> None:
        client = _Client(host, port)
        try:
            for job, offset in zip(jobs, offsets):
                delay = mono0 + offset - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t0 = perf_counter()
                reply = client.call("POST", "/submit", {
                    "netlist": job.text, "method": job.engine,
                    "max_depth": max_depth, "name": f"job{job.index}",
                })
                t1 = perf_counter()
                sent[job.index] = {"job_id": reply["job_id"],
                                   "lag": t0 - (mono0 + offset),
                                   "submit_s": t1 - t0}
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            client.close()

    thread = threading.Thread(target=sender, name="loadgen")
    thread.start()
    poller = _Client(host, port)
    records: dict[int, dict] = {}
    deadline = mono0 + offsets[-1] + drain_seconds
    try:
        while perf_counter() < deadline:
            time.sleep(0.25)
            table = poller.call("GET", "/jobs")["jobs"]
            records = {row["job_id"]: row for row in table}
            if not thread.is_alive() and len(records) == len(jobs) and all(
                row["finished_at"] is not None for row in records.values()
            ):
                break
        thread.join(timeout=drain_seconds)
        if errors:
            raise errors[0]
        results = {}
        events = {}
        for info in sent:
            job_id = info.get("job_id")
            if job_id is None or records.get(job_id, {}).get("finished_at") is None:
                continue
            results[job_id] = poller.call("GET", f"/jobs/{job_id}/result")["result"]
            events[job_id] = poller.call("GET", f"/jobs/{job_id}/events")["events"]
    finally:
        poller.close()
    return {"wall0": wall0, "sent": sent, "records": records,
            "results": results, "events": events}


def reference_verdicts(jobs, max_depth: int) -> dict[int, str]:
    """In-process verdict of every distinct (netlist, engine) sent."""
    verdicts = {}
    for job in jobs:
        if job.resubmit_of is None:
            verdicts[job.index] = verify(
                job.netlist, method=job.engine, max_depth=max_depth
            ).status.value
    return verdicts
