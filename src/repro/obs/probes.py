"""Low-overhead probe hooks for the hot kernels, and the tracing switch.

This module owns the process-wide tracing state: :func:`enable` installs
a :class:`~repro.obs.trace.Tracer` as the probe sink, :func:`disable`
removes it, and :mod:`repro.obs` re-exports both.  The contract with the
instrumented code (the same discipline as the solver's proof logging):
a kernel guards every hook behind the module-level :data:`ENABLED`
flag —

    from repro.obs import probes as _obs
    ...
    if _obs.ENABLED:
        _obs.solver_tick(self)

so the disabled cost is one attribute load and a predicted branch, and
the search trajectory (decisions, conflicts, cache contents) is
bit-identical with instrumentation on or off: probes only *read*
kernel counters, never mutate them.

When enabled, every probe is additionally throttled by the active
tracer's tick (:meth:`repro.obs.trace.Tracer.should_sample`), so even a
solver making hundreds of thousands of propagations per second emits a
bounded sample stream.  :func:`sample_group` records several related
gauges at once; the first name's tick gates the whole group.

Probe catalogue.  Every sample is one counter record of the active
tracer, the only place a time-series lives; the run's
:class:`~repro.util.stats.StatsBag` keeps scalars only.

======================  =====================================================
series                  meaning
======================  =====================================================
``sat.conflicts``       cumulative CDCL conflicts of the sampled solver
``sat.propagations``    cumulative unit propagations
``sat.restarts``        cumulative restarts
``sat.learned_db``      live learned-clause database size
``bdd.nodes``           allocated BDD nodes (terminals included)
``bdd.cache_hit_rate``  aggregate apply-cache hit rate (0..1)
``bdd.cache_entries``   live apply-cache entries across operations
``pdr.queue_depth``     proof-obligation queue depth
``pdr.lemmas``          live (non-retired) lemma count
``pdr.frames``          frame count
``itp.interpolant_nodes``  AND nodes of the latest interpolant
``itp.reach_nodes``     AND nodes of the accumulated reached set
``reach.frontier_size`` AND nodes of the newest ``reach_aig``/``reach_aig_fwd``
                        frontier
``cnc.open_cubes``      cubes still waiting for a verdict
``cnc.solved_cubes``    cubes the conquer stage has finished
``cnc.refuted_cubes``   cubes closed by the lookahead, no solver needed
``cnc.active_workers``  conquer worker processes currently in flight
``svc.queue_depth``     claimable jobs in the service's durable queue
``svc.active_leases``   jobs currently held under a worker lease
``svc.completed_jobs``  jobs this worker has finished since it started
``svc.sse_clients``     live SSE event streams on the HTTP server (sampled
                        by the server on connect/disconnect)
======================  =====================================================
"""

from __future__ import annotations

from repro.obs.trace import NULL_SPAN, Tracer

# Rebound by enable()/disable().  Hot code reads the attribute through
# the module (``probes.ENABLED``), so rebinding is visible everywhere
# without any registration machinery.
ENABLED = False
_TRACER: Tracer | None = None


def enable(tracer: Tracer | None = None, tick: float | None = None) -> Tracer:
    """Turn tracing on process-wide; returns the active tracer.

    Pass a ready-made :class:`Tracer` to collect into it (e.g. one whose
    epoch a parent process dictated), or let one be created.  ``tick``
    overrides the sampling interval of a freshly created tracer.
    Idempotent: enabling while already enabled keeps the active tracer.
    """
    global ENABLED, _TRACER
    if _TRACER is None:
        if tracer is None:
            tracer = Tracer(tick=tick if tick is not None else 0.01)
        _TRACER = tracer
        ENABLED = True
    return _TRACER


def disable() -> Tracer | None:
    """Turn tracing off; returns the tracer that was active, if any."""
    global ENABLED, _TRACER
    tracer = _TRACER
    ENABLED = False
    _TRACER = None
    return tracer


def is_enabled() -> bool:
    return ENABLED


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` while disabled."""
    return _TRACER


def span(name: str, category: str = "engine", **attrs: object):
    """A span on the active tracer; a shared no-op when disabled."""
    if _TRACER is None:
        return NULL_SPAN
    return _TRACER.span(name, category, **attrs)


def sample(name: str, value: float) -> None:
    """One tick-guarded sample into the active tracer."""
    t = _TRACER
    if t is None or not t.should_sample(name):
        return
    t.sample(name, value)


def sample_group(*pairs: tuple[str, float]) -> None:
    """Tick-guarded ``(name, value)`` samples of related gauges.

    The first name's tick gates the whole group, so the group's series
    stay aligned sample for sample.
    """
    t = _TRACER
    if t is None or not t.should_sample(pairs[0][0]):
        return
    for name, value in pairs:
        t.sample(name, value)


# ---------------------------------------------------------------------- #
# Kernel-specific hooks: these read kernel counters after the guard
# ---------------------------------------------------------------------- #


def solver_tick(solver) -> None:
    """Sample a CDCL solver's cumulative counters (tick-guarded)."""
    t = _TRACER
    if t is None or not t.should_sample("sat.conflicts"):
        return
    t.sample("sat.conflicts", solver.conflicts)
    t.sample("sat.propagations", solver.propagations)
    t.sample("sat.restarts", solver.restarts)
    t.sample("sat.learned_db", len(solver._learnt_ids))


def begin_solve(solver) -> tuple[float, int, int]:
    """Snapshot taken at ``solve()`` entry; paired with :func:`end_solve`."""
    t = _TRACER
    if t is None:
        return (0.0, 0, 0)
    return (t.now(), solver.conflicts, solver.propagations)


def end_solve(solver, snapshot: tuple[float, int, int], result) -> None:
    """Record one ``sat.solve`` span with per-call deltas."""
    t = _TRACER
    if t is None:
        return
    start, conflicts0, propagations0 = snapshot
    t.record_span(
        "sat.solve",
        "sat",
        start,
        t.now(),
        result=getattr(result, "value", str(result)),
        conflicts=solver.conflicts - conflicts0,
        propagations=solver.propagations - propagations0,
    )
    solver_tick(solver)


def bdd_tick(manager) -> None:
    """Sample a BDD manager's node count and cache behaviour.

    Reads the manager's scalar per-operation counters and cache ``len``s
    directly instead of building a :meth:`cache_summary` dict, so a tick
    costs a handful of attribute loads and no allocation.
    """
    t = _TRACER
    if t is None or not t.should_sample("bdd.nodes"):
        return
    hits = (
        manager._hits_ite + manager._hits_and + manager._hits_or
        + manager._hits_xor + manager._hits_not + manager._hits_exists
        + manager._hits_and_exists
    )
    misses = (
        manager._misses_ite + manager._misses_and + manager._misses_or
        + manager._misses_xor + manager._misses_not
        + manager._misses_exists + manager._misses_and_exists
    )
    lookups = hits + misses
    entries = 0
    for cache in manager._caches.values():
        entries += len(cache)
    t.sample("bdd.nodes", manager.num_nodes)
    t.sample("bdd.cache_hit_rate", hits / lookups if lookups else 0.0)
    t.sample("bdd.cache_entries", entries)
