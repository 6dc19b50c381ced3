#!/usr/bin/env python3
"""Repository benchmark: one seeded workload per run.

    python3 repobench/run.py --workload quantify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
Workloads: ``quantify``, ``reach_paper``, ``reach_incremental`` (closed
loop, one client) and ``service`` (open loop over HTTP).  Settings and the
design record (per-layer predictions, metric definitions) are in
``repobench/spec.json``.

``--trace 0`` repeats the seeded batch in rounds for ``--seconds`` and
prints the end-to-end metrics.  Closed-loop times are CPU seconds scaled
to reference speed (see ``reference_slice``), because the speed of a
shared host drifts by a fifth or more within a minute.  ``--trace 1``
runs one untraced and one traced round of the same batch, checks that
the deterministic counts agree between them and with a second process
under another ``PYTHONHASHSEED``, and prints the per-layer metrics.  Every result is checked by an
independent oracle; a wrong result makes the run exit with code 1.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = ("quantify", "reach_paper", "reach_incremental", "service")


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _p90(values):
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def reference_slice() -> float:
    """Run a fixed piece of interpreter work; return its CPU seconds.

    The work (dict, list and integer operations, two tracked allocations
    so the cyclic collector never runs inside it) uses no program code,
    so a change to the program never changes it.  Measured next to each
    task, it tells how fast the host runs Python at that moment.
    """
    start = process_time()
    table = {}
    items = []
    acc = 0
    for i in range(6000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        items.append(key ^ i)
        acc += len(items) & 3
    items.sort()
    return process_time() - start


def speed_scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """CPU times scaled to reference speed.

    ``refs[i]`` is the reference slice run just before ``seconds[i]``
    (``refs`` has one more entry, run after the last).  Each time is
    multiplied by ``nominal_s`` over the median of the slices within
    ``window`` positions of it.
    """
    conf = SPEC["reference"]
    window = conf["window"]
    return [
        value * conf["nominal_s"]
        / statistics.median(refs[max(0, i - window):i + window + 2])
        for i, value in enumerate(seconds)
    ]


def scaled_interval(fn):
    """``(fn(), CPU seconds of fn scaled to reference speed)``."""
    refs = [reference_slice() for _ in range(3)]
    start = process_time()
    result = fn()
    seconds = process_time() - start
    refs += [reference_slice() for _ in range(3)]
    return result, seconds * SPEC["reference"]["nominal_s"] / statistics.median(refs)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def state_set_nodes(engine: str, stats: dict) -> float:
    """Size of the state set a result is built from (see spec.json)."""
    key = {
        "reach_bdd": "peak_reached_bdd",
        "itp": "interpolant_nodes",
        "pdr": "pdr_lemmas",
        "bmc": "cnf_vars",
    }.get(engine, "peak_frontier_size")
    return float(stats.get(key, 0))


# --------------------------------------------------------------------- #
# Closed-loop workloads
# --------------------------------------------------------------------- #

def make_batch(workload: str, seed: int):
    from workloads import quantify_queries, reach_incremental_tasks, reach_paper_tasks

    return {
        "quantify": quantify_queries,
        "reach_paper": reach_paper_tasks,
        "reach_incremental": reach_incremental_tasks,
    }[workload](seed)


def check_construction(tasks) -> None:
    """The explicit-state search must agree with the known answers."""
    from oracles import explicit_state_verdict

    for task in tasks:
        explicit = explicit_state_verdict(task.netlist)
        if explicit is not None and explicit != (task.expect, task.depth):
            raise SystemExit(
                f"benchmark fault: {task.describe()} explores to {explicit}"
            )


def run_round(workload: str, batch, tracer=None) -> dict:
    """Run one batch; time each task; nothing is checked here.

    A reference slice runs before each task and after the last; task
    times are CPU seconds scaled to reference speed.
    """
    outcomes = []
    cpu = []
    refs = []
    span = tracer.task_span if tracer is not None else (lambda index: nullcontext())
    if workload == "quantify":
        from repro.core import quantify

        for index, query in enumerate(batch):
            refs.append(reference_slice())
            t0 = process_time()
            with span(index):
                outcome = quantify.quantify_exists(
                    query.aig, query.edge, query.variables,
                    quantify.QuantifyOptions.preset("full"),
                )
            cpu.append(process_time() - t0)
            outcomes.append(outcome)
    else:
        from repro.api import Session
        from repro.api.task import VerificationTask

        session = Session()
        for index, task in enumerate(batch):
            refs.append(reference_slice())
            t0 = process_time()
            with span(index):
                results = [
                    session.run(VerificationTask(
                        task.netlist, engine=engine, max_depth=SPEC["max_depth"],
                    ))
                    for engine in task.engines
                ]
            cpu.append(process_time() - t0)
            outcomes.append(results)
    refs.append(reference_slice())
    times = speed_scaled(cpu, refs)
    return {"batch_s": sum(times), "times": times, "outcomes": outcomes,
            "cpu_s": sum(cpu)}


def check_round(workload: str, batch, run: dict) -> dict:
    """Oracle verdicts and the deterministic counts of one round."""
    from oracles import check_quantified, check_sequential

    wrong = []
    decided = 0
    nodes = 0.0
    verdicts = []
    iterations = []
    limit = SPEC["task_limit_s"]
    for index, (item, outcome, seconds) in enumerate(
        zip(batch, run["outcomes"], run["times"])
    ):
        if workload == "quantify":
            size = item.aig.cone_and_count(outcome.edge)
            nodes += size
            verdicts.append(size)
            iterations.append(len(outcome.quantified))
            wrong_here = [] if check_quantified(item, outcome.edge) else \
                ["result differs from BDD quantification"]
            undecided = False
        else:
            wrong_here = []
            undecided = False
            for engine, result in zip(item.engines, outcome):
                nodes += state_set_nodes(engine, result.stats)
                verdicts.append(result.status.value)
                iterations.append(int(result.stats.get("iterations", result.iterations or 0)))
                reason = check_sequential(item, engine, result)
                if not result.status.is_conclusive:
                    undecided = True
                elif reason is not None:
                    wrong_here.append(f"{engine}: {reason}")
        if wrong_here:
            wrong.append({"task": index, **item.describe(),
                          "problem": "; ".join(wrong_here)})
        elif not undecided and seconds <= limit:
            decided += 1
    return {"wrong": wrong, "decided": decided, "attempted": len(batch),
            "result_nodes": nodes, "verdicts": verdicts,
            "iterations": iterations}


def closed_loop(workload: str, seed: int, seconds: float, import_s: float) -> dict:
    setup_times = []
    rounds = []
    checks = []
    loop_start = perf_counter()
    batch = None
    while True:
        t0 = perf_counter()
        batch, setup = scaled_interval(lambda: make_batch(workload, seed))
        setup_times.append(setup)
        setup_wall = perf_counter() - t0
        if not rounds and workload != "quantify":
            check_construction(batch)
        round_start = perf_counter()
        run = run_round(workload, batch)
        checks.append(check_round(workload, batch, run))
        rounds.append(run)
        cost = perf_counter() - round_start + setup_wall
        elapsed = perf_counter() - loop_start
        if len(rounds) >= SPEC["max_rounds"] or elapsed + cost > seconds:
            break
    while len(setup_times) < SPEC["setup_repeats"]:
        setup_times.append(scaled_interval(lambda: make_batch(workload, seed))[1])
    per_task = [_median(ts) for ts in zip(*(r["times"] for r in rounds))]
    wrong = [w for c in checks for w in c["wrong"]]
    attempted = sum(c["attempted"] for c in checks)
    decided = sum(c["decided"] for c in checks)
    stable = all(
        (c["verdicts"], c["iterations"], c["result_nodes"])
        == (checks[0]["verdicts"], checks[0]["iterations"], checks[0]["result_nodes"])
        for c in checks
    )
    metrics = {
        "setup_s": (import_s + _median(setup_times), "s"),
        "batch_s": (sum(per_task), "s"),
        "task_s.p50": (_median(per_task), "s"),
        "task_s.p90": (_p90(per_task), "s"),
        "decided_frac": (decided / attempted, "ratio"),
        "result_nodes": (checks[0]["result_nodes"], "nodes"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }
    info = {
        "rounds": len(rounds),
        "unscaled_cpu_s": [r["cpu_s"] for r in rounds],
        "tasks": [item.describe() for item in batch],
        "wrong": wrong,
        "deterministic_across_rounds": stable,
    }
    return {"metrics": metrics, "attempted": attempted,
            "failed": attempted - decided, "correct": not wrong and stable,
            "info": info}


def traced_counts(workload: str, seed: int, spans_path: Path | None = None):
    """One traced round: (run, check, per-layer metrics, calls per layer)."""
    from tracing import Tracer

    batch = make_batch(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        run = run_round(workload, batch, tracer)
    finally:
        tracer.remove()
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
    check = check_round(workload, batch, run)
    layers, calls = tracer.layer_metrics()
    return run, check, layers, calls


DETERMINISTIC = ("sat.solver.solves", "aig.cnf.nodes_encoded",
                 "sweep.satsweep.checks")


def closed_loop_traced(workload: str, seed: int) -> dict:
    from tracing import REQUIRED_LAYERS

    batch = make_batch(workload, seed)
    if workload != "quantify":
        check_construction(batch)
    plain = run_round(workload, batch)
    plain_check = check_round(workload, batch, plain)
    run, check, layers, calls = traced_counts(
        workload, seed, ROOT / ".bench_run" / f"spans-{workload}-{seed}.jsonl")
    problems = [w["problem"] for w in plain_check["wrong"] + check["wrong"]]
    for key in ("verdicts", "iterations", "result_nodes"):
        if plain_check[key] != check[key]:
            problems.append(f"traced and untraced {key} differ")
    missing = [layer for layer in REQUIRED_LAYERS[workload] if not calls.get(layer)]
    if missing:
        problems.append(f"no calls recorded on {missing}")
    # The same traced round in a second process under another hash seed.
    other = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--counts-only"],
        env={**os.environ, "PYTHONHASHSEED": other},
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    if child.returncode != 0:
        problems.append(f"hash-seed rerun failed: {child.stderr[-300:]}")
    else:
        theirs = json.loads(child.stdout.strip().splitlines()[-1])
        mine = counts_record(check, layers)
        for key, value in mine.items():
            if theirs.get(key) != value:
                problems.append(f"{key} differs under PYTHONHASHSEED={other}")
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    metrics["trace.overhead_frac"] = (run["batch_s"] / plain["batch_s"] - 1.0, "ratio")
    metrics.update(service_layer_defaults())
    attempted = plain_check["attempted"] + check["attempted"]
    decided = plain_check["decided"] + check["decided"]
    return {"metrics": metrics, "attempted": attempted,
            "failed": attempted - decided, "correct": not problems,
            "info": {"problems": problems, "calls": calls,
                     "tasks": [item.describe() for item in batch]}}


def counts_record(check: dict, layers: dict) -> dict:
    record = {key: check[key] for key in ("verdicts", "iterations", "result_nodes")}
    record.update({key: layers[key] for key in DETERMINISTIC})
    return record


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("nodes") or name.endswith("nodes_encoded"):
        return "nodes"
    return "count"


SERVICE_LAYERS = ("svc.server.submit_s.p50", "svc.queue.wait_s.p50",
                  "svc.queue.wait_s.p90", "svc.worker.run_s.p50",
                  "portfolio.cache.hit_frac", "portfolio.cache.hit_job_s.p50",
                  "loadgen.jobs_per_s", "loadgen.lag_s.p90")


def service_layer_defaults() -> dict:
    """Closed-loop workloads never touch the service layers."""
    return {name: (0.0, unit_of(name)) for name in SERVICE_LAYERS}


# --------------------------------------------------------------------- #
# Service workload
# --------------------------------------------------------------------- #

def service_run(seed: int, seconds: float, import_s: float, traced: bool) -> dict:
    import service
    from workloads import service_jobs

    conf = SPEC["service"]
    count = max(100, round(conf["rate_per_s"] * seconds))
    run_dir = ROOT / ".bench_run" / f"service-{os.getpid()}"
    (jobs, offsets), gen_s = scaled_interval(lambda: (
        service_jobs(seed, count),
        service.arrival_offsets(seed, count, conf["rate_per_s"]),
    ))
    starts = []
    server = None
    try:
        for repeat in range(SPEC["setup_repeats"]):
            server, start_s = service.start_server(run_dir)
            starts.append(start_s)
            if repeat + 1 < SPEC["setup_repeats"]:
                service.stop_server(server, run_dir)
                server = None
        load = service.run_load(server, jobs, offsets, SPEC["max_depth"],
                                conf["drain_s"])
    finally:
        if server is not None:
            service.stop_server(server, run_dir)
    reference = service.reference_verdicts(jobs, SPEC["max_depth"])
    return service_metrics(jobs, offsets, load, reference,
                           import_s + gen_s + _median(starts), traced)


def service_metrics(jobs, offsets, load, reference, setup_s, traced) -> dict:
    conf = SPEC["service"]
    wall0 = load["wall0"]
    latencies, hit_latencies, waits, runs = [], [], [], []
    wrong, decided, finished, hits, resubmits = [], 0, [], 0, 0
    nodes = 0.0
    for job, offset, info in zip(jobs, offsets, load["sent"]):
        job_id = info.get("job_id")
        row = load["records"].get(job_id)
        if row is None or row["finished_at"] is None:
            continue
        latency = row["finished_at"] - (wall0 + offset)
        latencies.append(latency)
        finished.append(row["finished_at"])
        waits.append(row["started_at"] - row["submitted_at"])
        runs.append(row["finished_at"] - row["started_at"])
        payload = load["results"].get(job_id) or {}
        verdict = payload.get("status")
        if job.resubmit_of is None:  # a cache hit builds no state set
            nodes += state_set_nodes(job.engine, payload.get("stats", {}).get("values", {}))
        source = job.resubmit_of if job.resubmit_of is not None else job.index
        problem = None
        if verdict != job.expect:
            problem = f"service verdict {verdict}, expected {job.expect}"
        elif verdict != reference[source]:
            problem = f"service verdict {verdict}, in-process {reference[source]}"
        if problem is not None and verdict in ("proved", "failed"):
            wrong.append({"job": job.index, **job.describe(), "problem": problem})
        elif problem is None and latency <= conf["job_limit_s"]:
            decided += 1
        if job.resubmit_of is not None:
            resubmits += 1
            hit_latencies.append(latency)
            if any(e["kind"] == "task_finished" and (e["payload"] or {}).get("cached")
                   for e in load["events"].get(job_id, [])):
                hits += 1
    batch_s = (max(finished) - wall0) if finished else 0.0
    info = {"jobs": len(jobs), "finished": len(latencies), "wrong": wrong,
            "tasks": [job.describe() for job in jobs]}
    if traced:
        metrics = {name: (0.0, unit_of(name))
                   for name in SPEC["per_layer"] if name not in SERVICE_LAYERS}
        lags = [s["lag"] for s in load["sent"] if "lag" in s]
        metrics.update({
            "svc.server.submit_s.p50": (_median([s["submit_s"] for s in load["sent"] if "submit_s" in s]), "s"),
            "svc.queue.wait_s.p50": (_median(waits), "s"),
            "svc.queue.wait_s.p90": (_p90(waits), "s"),
            "svc.worker.run_s.p50": (_median(runs), "s"),
            "portfolio.cache.hit_frac": (hits / resubmits if resubmits else 0.0, "ratio"),
            "portfolio.cache.hit_job_s.p50": (_median(hit_latencies), "s"),
            "loadgen.jobs_per_s": (len(latencies) / batch_s if batch_s else 0.0, "1/s"),
            "loadgen.lag_s.p90": (_p90(lags), "s"),
        })
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "batch_s": (batch_s, "s"),
            "task_s.p50": (_median(latencies), "s"),
            "task_s.p90": (_p90(latencies), "s"),
            "decided_frac": (decided / len(jobs), "ratio"),
            "result_nodes": (nodes, "nodes"),
            "peak_rss_mb": (_rss_mb(), "MB"),
        }
    return {"metrics": metrics, "attempted": len(jobs),
            "failed": len(jobs) - decided, "correct": not wrong, "info": info}


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def import_program(workload: str) -> None:
    """Import the program and the benchmark's modules (part of set-up)."""
    import oracles  # noqa: F401
    import tracing  # noqa: F401
    import workloads  # noqa: F401
    import repro.api  # noqa: F401
    import repro.mc  # noqa: F401
    if workload == "service":
        import service  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"repobench: no program sources at {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    _, import_s = scaled_interval(lambda: import_program(args.workload))

    if args.counts_only:
        _, check, layers, _ = traced_counts(args.workload, args.seed)
        print(json.dumps(counts_record(check, layers)))
        return 0
    if args.workload == "service":
        outcome = service_run(args.seed, args.seconds, import_s, bool(args.trace))
    elif args.trace:
        outcome = closed_loop_traced(args.workload, args.seed)
    else:
        outcome = closed_loop(args.workload, args.seed, args.seconds, import_s)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **outcome["info"]}))
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
