"""The conquer stage: solve leaf cubes on a multiprocessing pool.

Each open leaf becomes one :class:`ConquerTask`: the leaf's base target
extracted into a standalone (genuinely smaller) manager, plus the tail
literals' consistency edges posed as solver assumptions.  Tasks are
fanned out over :class:`repro.portfolio.runner.WorkerHandle` processes —
the same spawn/budget/kill machinery the portfolio race uses — with
parent-scheduled work stealing: at most ``workers`` cubes are in flight
and every finished worker frees a slot for the next pending cube.

Verdict aggregation is per *group* (the ``cnc`` engine uses one group;
:func:`repro.cnc.engine.split_solve_many` one per independent target):

* the first SAT in a group wins — its siblings are killed/cancelled;
* an UNSAT's assumption core names the tail literals actually needed, so
  the falsified cube is ``prefix AND core`` — every pending or running
  sibling whose literal set contains that cube is pruned unsolved;
* all leaves UNSAT/refuted/pruned aggregates to one UNSAT verdict.

``workers=0`` solves the queue in-process in deterministic order (same
code path minus the fork), which is what reproducible tests and the
traced-vs-untraced stats identity use.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.aig.graph import Aig
from repro.cnc.cube import CubeLeaf, CubeLiteral
from repro.obs import probes as _obs
from repro.portfolio.runner import (
    WorkerHandle,
    child_obs_tracer,
    parent_obs_config,
    spawn_context,
)
from repro.sat.solver import Solver, SolveResult
from repro.util.stats import StatsBag

_POLL_INTERVAL = 0.005


@dataclass(frozen=True)
class ConquerTask:
    """One cube, extracted and ready for a worker."""

    tag: int
    group: int
    literals: tuple[CubeLiteral, ...]
    aig: Aig
    target: int
    assumptions: tuple[int, ...]
    assumed: tuple[CubeLiteral, ...]
    input_nodes: dict[int, int]  # extracted input node -> source node


@dataclass
class CubeOutcome:
    """How one cube's solve ended."""

    tag: int
    group: int
    verdict: str  # sat / unsat / unknown / pruned / cancelled / crashed
    model: dict[int, bool] | None = None
    refuted_cube: frozenset[CubeLiteral] | None = None
    elapsed: float = 0.0
    solver_stats: dict[str, int] = field(default_factory=dict)


def make_task(
    aig: Aig, leaf: CubeLeaf, tag: int, group: int = 0
) -> ConquerTask:
    """Extract one open leaf into a standalone solver payload."""
    cons_edges = [literal.edge for literal in leaf.assumed]
    small, edges, node_map = aig.extract([leaf.base_target, *cons_edges])
    input_nodes = {
        node_map[node] >> 1: node
        for node in node_map
        if node and aig.is_input(node)
    }
    return ConquerTask(
        tag=tag,
        group=group,
        literals=leaf.literals,
        aig=small,
        target=edges[0],
        assumptions=tuple(edges[1:]),
        assumed=leaf.assumed,
        input_nodes=input_nodes,
    )


def _solve_task(
    task: ConquerTask, conflict_budget: int | None
) -> tuple[str, object, dict[str, int]]:
    """Solve one cube; shared by the worker body and the in-process path."""
    from repro.aig.cnf import CnfMapper

    solver = Solver()
    mapper = CnfMapper(task.aig, solver)
    solver.add_clause([mapper.lit_for(task.target)])
    assumption_lits = [mapper.lit_for(edge) for edge in task.assumptions]
    result = solver.solve(assumption_lits, conflict_budget=conflict_budget)
    stats = {
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
    }
    if result is SolveResult.SAT:
        model = {
            task.input_nodes[node]: value
            for node, value in mapper.model_inputs().items()
            if node in task.input_nodes
        }
        return "sat", model, stats
    if result is SolveResult.UNSAT:
        core = solver.core or ()
        core_positions = [
            index
            for index, lit in enumerate(assumption_lits)
            if lit in core
        ]
        return "unsat", core_positions, stats
    return "unknown", None, stats


def _conquer_worker(conn, task, conflict_budget, obs_cfg):
    """Cube subprocess body: announce, solve, stream obs, report back."""
    tracer = None
    try:
        conn.send(
            ("event", {"kind": "cube_started", "cube": task.tag,
                       "pid": os.getpid()})
        )
        tracer = child_obs_tracer(obs_cfg)
        with _obs.span("cnc.solve_cube", "engine", cube=task.tag,
                       literals=len(task.literals)):
            verdict, payload, stats = _solve_task(task, conflict_budget)
        if tracer is not None:
            conn.send(("obs", tracer.export_records()))
        conn.send(("ok", (verdict, payload, stats)))
    except BaseException as exc:  # noqa: BLE001 - contained
        try:
            if tracer is not None:
                conn.send(("obs", tracer.export_records()))
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


def _refuted_cube(
    task: ConquerTask, core_positions: Sequence[int]
) -> frozenset[CubeLiteral]:
    """The (smaller) cube the UNSAT core actually falsified."""
    prefix = task.literals[: len(task.literals) - len(task.assumed)]
    return frozenset(prefix) | {task.assumed[i] for i in core_positions}


def conquer(
    tasks: Sequence[ConquerTask],
    *,
    workers: int = 2,
    conflict_budget: int | None = None,
    cube_budget: float | None = None,
    lookahead_refuted: int = 0,
    stats: StatsBag | None = None,
) -> list[CubeOutcome]:
    """Solve every task, with per-group SAT cancellation and core pruning.

    Returns one :class:`CubeOutcome` per task, in task order.
    """
    bag = stats if stats is not None else StatsBag()
    outcomes: dict[int, CubeOutcome] = {}
    pending = list(tasks)
    sat_groups: set[int] = set()
    refuted: list[tuple[int, frozenset[CubeLiteral]]] = []
    solved = 0

    def tick(active: int) -> None:
        if _obs.ENABLED:
            _obs.sample_group(
                ("cnc.open_cubes", len(pending)),
                ("cnc.solved_cubes", solved),
                ("cnc.refuted_cubes", lookahead_refuted),
                ("cnc.active_workers", active),
            )

    def absorb(task: ConquerTask, verdict: str, payload, solver_stats,
               elapsed: float) -> None:
        nonlocal solved
        outcome = CubeOutcome(
            tag=task.tag, group=task.group, verdict=verdict,
            elapsed=elapsed, solver_stats=solver_stats or {},
        )
        if verdict == "sat":
            outcome.model = payload
            sat_groups.add(task.group)
            bag.incr("cnc_cubes_sat")
        elif verdict == "unsat":
            cube = _refuted_cube(task, payload or ())
            outcome.refuted_cube = cube
            refuted.append((task.group, cube))
            bag.incr("cnc_cubes_unsat")
        elif verdict == "unknown":
            bag.incr("cnc_cubes_unknown")
        else:
            bag.incr(f"cnc_cubes_{verdict}")
        for key, value in (solver_stats or {}).items():
            bag.incr(f"cnc_{key}", value)
        solved += 1
        outcomes[task.tag] = outcome

    def dead(task: ConquerTask) -> str | None:
        """Why this task no longer needs solving (None = still live)."""
        if task.group in sat_groups:
            return "cancelled"
        literals = set(task.literals)
        for group, cube in refuted:
            if group == task.group and cube <= literals:
                return "pruned"
        return None

    def retire(task: ConquerTask, why: str) -> None:
        outcomes[task.tag] = CubeOutcome(
            tag=task.tag, group=task.group, verdict=why
        )
        bag.incr(f"cnc_cubes_{why}")

    if workers <= 0:
        for task in pending:
            why = dead(task)
            if why is not None:
                retire(task, why)
                continue
            start = time.monotonic()
            verdict, payload, solver_stats = _solve_task(
                task, conflict_budget
            )
            absorb(task, verdict, payload, solver_stats,
                   time.monotonic() - start)
            tick(0)
        return [outcomes[task.tag] for task in tasks]

    ctx = spawn_context()
    obs_cfg = parent_obs_config()
    tracer = _obs.current_tracer() if obs_cfg is not None else None
    running: list[WorkerHandle] = []

    def launch() -> None:
        while pending and len(running) < workers:
            task = pending.pop(0)
            why = dead(task)
            if why is not None:
                retire(task, why)
                continue
            running.append(
                WorkerHandle(
                    ctx,
                    _conquer_worker,
                    (task, conflict_budget, obs_cfg),
                    label=f"cube{task.tag}",
                    payload=task,
                )
            )

    def reap(run: WorkerHandle, verdict: str, payload, solver_stats) -> None:
        running.remove(run)
        elapsed = run.elapsed
        run.kill()
        absorb(run.payload, verdict, payload, solver_stats, elapsed)

    launch()
    while running or pending:
        progressed = False
        for run in list(running):
            if run not in running:
                continue
            task: ConquerTask = run.payload
            why = dead(task)
            if why is not None:
                progressed = True
                running.remove(run)
                run.kill()
                retire(task, why)
                continue
            if run.conn.poll():
                progressed = True
                try:
                    kind, payload = run.conn.recv()
                except (EOFError, OSError):
                    kind, payload = "error", "worker died mid-message"
                if kind == "event":
                    continue
                if kind == "obs":
                    if tracer is not None:
                        tracer.merge_records(payload)
                    continue
                if kind == "ok":
                    verdict, result, solver_stats = payload
                    reap(run, verdict, result, solver_stats)
                else:
                    reap(run, "crashed", None, {})
            elif cube_budget is not None and run.elapsed > cube_budget:
                progressed = True
                reap(run, "unknown", None, {})
                bag.incr("cnc_cubes_timed_out")
            elif not run.process.is_alive():
                progressed = True
                reap(run, "crashed", None, {})
        launch()
        tick(len(running))
        if not progressed and (running or pending):
            time.sleep(_POLL_INTERVAL)
    return [outcomes[task.tag] for task in tasks]
