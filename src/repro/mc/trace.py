"""Counterexample trace reconstruction helpers.

Backward reachability and pre-image folding both end with an initial (or
unrolled) state known to lie in ``pre^j(bad)``: the concrete input choices
of the remaining ``j`` steps still have to be found.  Each step is a small
SAT problem — fix the current state, ask for inputs steering into the next
distance layer.  The state and the query are assumptions, so the steps of
one walk share one :class:`~repro.aig.cnf.CnfMapper` and each step encodes
only the part of its shifted layer the earlier steps did not.  A caller
holding a mapper on the netlist's manager can pass it to
:func:`step_into` and :func:`find_violation_inputs`; the reachability
engines pass their own to the latter.  :func:`initial_violation` is the
depth-0 check of the PDR and interpolation engines.
"""

from __future__ import annotations

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.circuits.netlist import Netlist
from repro.core.substitution import preimage_by_substitution
from repro.errors import ModelCheckingError
from repro.mc.result import Trace
from repro.sat.solver import SolveResult
from repro.util.stats import StatsBag


def step_into(
    netlist: Netlist,
    state: dict[int, bool],
    target_edge: int,
    mapper: CnfMapper | None = None,
) -> tuple[dict[int, bool], dict[int, bool]]:
    """Find inputs taking ``state`` into ``target_edge`` in one step.

    Returns ``(inputs, next_state)``.  Raises if no such input exists —
    callers only invoke this when membership in the pre-image is known.
    ``mapper`` (over ``netlist.aig``) is reused if given; only assumptions
    are added to it.
    """
    aig = netlist.aig
    # target(delta(s, i)) with s fixed must be satisfiable over i, under
    # the environment constraints.
    shifted = preimage_by_substitution(aig, target_edge, netlist.next_functions())
    shifted = aig.and_(shifted, netlist.constraint_edge())
    if mapper is None:
        mapper = CnfMapper(aig)
    lit = mapper.lit_for(shifted)
    assumptions = [lit]
    for node, value in state.items():
        input_lit = mapper.input_literal(node)
        assumptions.append(input_lit if value else -input_lit)
    if mapper.solver.solve(assumptions) is not SolveResult.SAT:
        raise ModelCheckingError(
            "state claimed to be in the pre-image has no successor in the "
            "target set (engine bug)"
        )
    model = mapper.model_inputs()
    inputs = {
        node: model.get(node, False) for node in netlist.input_nodes
    }
    next_state = netlist.simulate_step(state, inputs)
    return inputs, next_state


def find_violation_inputs(
    netlist: Netlist,
    state: dict[int, bool],
    mapper: CnfMapper | None = None,
) -> dict[int, bool] | None:
    """Inputs making the property fail *in* ``state`` (None if impossible).

    Needed when the property reads primary inputs: a state can only be
    called bad together with an input vector witnessing the violation.
    ``mapper`` (over ``netlist.aig``) is reused if given.
    """
    aig = netlist.aig
    if mapper is None:
        mapper = CnfMapper(aig)
    lit = mapper.lit_for(
        aig.and_(netlist.property_edge ^ 1, netlist.constraint_edge())
    )
    assumptions = [lit]
    for node, value in state.items():
        input_lit = mapper.input_literal(node)
        assumptions.append(input_lit if value else -input_lit)
    if mapper.solver.solve(assumptions) is not SolveResult.SAT:
        return None
    model = mapper.model_inputs()
    return {node: model.get(node, False) for node in netlist.input_nodes}


def initial_violation(netlist: Netlist, stats: StatsBag) -> Trace | None:
    """Depth 0: a one-state trace if an initial state violates the property.

    One SAT call (counted in ``stats["sat_calls"]``) unless the initial,
    constrained bad states are structurally empty.
    """
    aig = netlist.aig
    bad0 = aig.and_(
        netlist.init_state_edge(),
        aig.and_(netlist.constraint_edge(), edge_not(netlist.property_edge)),
    )
    if bad0 == FALSE:
        return None
    mapper = CnfMapper(aig)
    stats.incr("sat_calls")
    if mapper.solver.solve([mapper.lit_for(bad0)]) is not SolveResult.SAT:
        return None
    state = netlist.init_assignment()
    return Trace(
        states=[state], inputs=[],
        violation_inputs=find_violation_inputs(netlist, state),
    )


def concretize_suffix(
    netlist: Netlist,
    state: dict[int, bool],
    targets: list[int],
) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
    """Walk a state through the distance layers down to the bad states.

    ``targets[0]`` is the bad-state set and ``targets[j]`` its j-step
    pre-image; ``state`` must satisfy ``targets[-1]``.  Returns the suffix
    ``(states, inputs)`` excluding the given state itself.
    """
    states: list[dict[int, bool]] = []
    inputs: list[dict[int, bool]] = []
    current = dict(state)
    mapper = CnfMapper(netlist.aig)
    for layer in range(len(targets) - 2, -1, -1):
        step_inputs, current = step_into(
            netlist, current, targets[layer], mapper
        )
        inputs.append(step_inputs)
        states.append(dict(current))
    return states, inputs


def trace_from_layers(
    netlist: Netlist,
    initial_state: dict[int, bool],
    layers: list[int],
) -> Trace:
    """Build a full trace from backward-reachability distance layers.

    ``layers[k]`` holds states at backward distance k from the bad states
    (``layers[0]`` = bad).  ``initial_state`` must satisfy some layer; the
    deepest (largest-k) layer containing it is located and walked down.
    """
    from repro.aig.simulate import eval_edge

    aig = netlist.aig
    member_layers = [
        k for k, edge in enumerate(layers)
        if eval_edge(aig, edge, initial_state)
    ]
    if not member_layers:
        raise ModelCheckingError("initial state is not in any layer")
    start = min(member_layers)  # shortest counterexample
    suffix_states, suffix_inputs = concretize_suffix(
        netlist, initial_state, layers[: start + 1]
    )
    return Trace(
        states=[dict(initial_state)] + suffix_states,
        inputs=suffix_inputs,
    )
