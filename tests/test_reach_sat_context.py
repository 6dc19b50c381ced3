"""Lifetime of the reachability engines' persistent SAT contexts.

``BackwardReachability`` keeps one :class:`CnfMapper` per working model
(dropped when compaction swaps the model), trace concretisation one per
walk, and ``ForwardReachability`` one per run.  All-SAT pre-images keep
their own solver, so their blocking clauses never reach the engine's.
"""

import pytest

import repro.mc.preimage_sat as preimage_sat
import repro.mc.reach_aig as reach_aig
import repro.mc.reach_aig_fwd as reach_aig_fwd
import repro.mc.trace as trace_module
from repro.aig.cnf import CnfMapper
from repro.circuits import generators as G
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.reach_aig_fwd import ForwardReachability
from repro.mc.result import Status
from repro.sat.solver import Solver


class _RecordingSolver(Solver):
    def __init__(self) -> None:
        super().__init__()
        self.added: list[tuple[int, ...]] = []

    def add_clause(self, lits):
        lits = tuple(lits)
        self.added.append(lits)
        return super().add_clause(lits)


def _record_mappers(monkeypatch, module) -> list[CnfMapper]:
    """Make ``module`` build recording mappers; return the live list."""
    created: list[CnfMapper] = []

    class RecordingMapper(CnfMapper):
        def __init__(self, aig, solver=None):
            super().__init__(aig, solver if solver is not None else _RecordingSolver())
            created.append(self)

    monkeypatch.setattr(module, "CnfMapper", RecordingMapper)
    return created


def _tseitin_clauses(mapper: CnfMapper) -> set[tuple[int, ...]]:
    """Every clause the mapper's own encoding may add."""
    clauses = set()
    if mapper._const_var is not None:
        clauses.add((-mapper._const_var,))
    for node, out in mapper._node_var.items():
        if not mapper.aig.is_and(node):
            continue
        a, b = (mapper._edge_lit_encoded(f) for f in mapper.aig.fanins(node))
        clauses |= {(-out, a), (-out, b), (out, -a, -b)}
    return clauses


def _replay(netlist, trace) -> None:
    """Step the trace through Netlist.simulate_step from an initial state."""
    init = netlist.init_assignment()
    assert all(trace.states[0].get(n) == v for n, v in init.items())
    for k, step_inputs in enumerate(trace.inputs):
        assert netlist.simulate_step(trace.states[k], step_inputs) == trace.states[k + 1]
    assert not netlist.property_holds(trace.states[-1], trace.violation_inputs)


FAILED_CASES = [
    ("bug_at_depth", lambda: G.bug_at_depth(6), 6),
    ("mod_counter_en", lambda: G.mod_counter(4, 11, safe=False, with_enable=True), 10),
]


@pytest.mark.parametrize("fraig", [False, True], ids=["plain", "fraig"])
@pytest.mark.parametrize("name,build,depth", FAILED_CASES)
def test_one_mapper_per_working_model(monkeypatch, name, build, depth, fraig):
    engine_mappers = _record_mappers(monkeypatch, reach_aig)
    walk_mappers = _record_mappers(monkeypatch, trace_module)
    netlist = build()
    engine = BackwardReachability(
        netlist, ReachOptions(compact_every=1, fraig_compaction=fraig)
    )
    result = engine.run()
    assert result.status is Status.FAILED
    assert result.trace.depth == depth
    working_models = result.stats.get("compactions") + 1
    assert working_models > 2
    assert 1 <= len(engine_mappers) <= working_models
    # One model each, the last one the engine's final working copy.
    assert len({id(m.aig) for m in engine_mappers}) == len(engine_mappers)
    assert engine_mappers[-1].aig is engine.model.aig
    assert len(walk_mappers) == 1
    assert walk_mappers[0].aig is engine.model.aig
    _replay(netlist, result.trace)
    assert result.trace.validate(netlist)


@pytest.mark.parametrize(
    "mode,growth", [("allsat", 2.0), ("hybrid", 0.5)], ids=["allsat", "hybrid"]
)
def test_blocking_clauses_stay_out_of_engine_mapper(monkeypatch, mode, growth):
    engine_mappers = _record_mappers(monkeypatch, reach_aig)
    allsat_mappers = _record_mappers(monkeypatch, preimage_sat)
    monkeypatch.setattr(preimage_sat, "Solver", _RecordingSolver)
    netlist = G.fifo_level(3, safe=False)
    result = BackwardReachability(
        netlist,
        ReachOptions(input_elimination=mode, partial_growth_factor=growth),
    ).run()
    assert result.status is Status.FAILED
    _replay(netlist, result.trace)
    blocking = [
        clause
        for mapper in allsat_mappers
        for clause in mapper.solver.added
        if clause not in _tseitin_clauses(mapper)
    ]
    assert blocking, "the all-SAT pre-image was not exercised"
    assert engine_mappers
    for mapper in engine_mappers:
        assert set(mapper.solver.added) <= _tseitin_clauses(mapper)
        assert not set(blocking) & set(mapper.solver.added)


def test_forward_engine_keeps_one_mapper(monkeypatch):
    engine_mappers = _record_mappers(monkeypatch, reach_aig_fwd)
    walk_mappers = _record_mappers(monkeypatch, trace_module)
    netlist = G.bug_at_depth(5)
    result = ForwardReachability(netlist).run()
    assert result.status is Status.FAILED
    assert result.trace.depth == 5
    assert len(engine_mappers) == 1 and not walk_mappers
    assert set(engine_mappers[0].solver.added) <= _tseitin_clauses(engine_mappers[0])
    _replay(netlist, result.trace)
