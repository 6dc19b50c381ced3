"""Independent checks of every result the benchmark times.

Nothing here calls ``repro.core`` or an engine:

* quantification results are compared with BDD existential
  quantification (``bdd.from_aig`` + ``BddManager.exists``);
* sequential verdicts are compared with the answer known by
  construction and, for netlists with at most ``BFS_MAX_LATCHES``
  latches, with an explicit-state breadth-first search written here
  (a numpy evaluation of the AIG over every state and input vector);
* every counterexample is replayed with ``Netlist.simulate_step`` and
  must end in a property violation.
"""

from __future__ import annotations

import numpy as np

from repro.bdd.from_aig import aig_to_bdd
from repro.bdd.manager import BddManager
from repro.circuits.netlist import Netlist

BFS_MAX_LATCHES = 10
BFS_MAX_VARS = 16          # latches + inputs: 2**16 vectors per gate


def check_quantified(query, result_edge: int) -> bool:
    """``result_edge == exists query.variables . query.edge`` (by BDDs)."""
    aig = query.aig
    support = [n for n in aig.cone([query.edge, result_edge]) if aig.is_input(n)]
    var_map = {node: index for index, node in enumerate(support)}
    manager = BddManager()
    for _ in support:
        manager.new_var()
    cache: dict[int, int] = {}
    f = aig_to_bdd(aig, query.edge, manager, var_map, cache)
    g = aig_to_bdd(aig, result_edge, manager, var_map, cache)
    quantified = [var_map[v] for v in query.variables if v in var_map]
    return manager.exists(f, quantified) == g


def _evaluate(aig, roots: list[int], leaves: list[int]) -> dict[int, np.ndarray]:
    """Value of each root over all 2**len(leaves) leaf assignments."""
    size = 1 << len(leaves)
    index = np.arange(size, dtype=np.int64)
    values: dict[int, np.ndarray] = {0: np.zeros(size, dtype=bool)}
    for bit, node in enumerate(leaves):
        values[node] = ((index >> bit) & 1).astype(bool)
    for node in aig.cone(roots):
        if node in values:
            continue
        if aig.is_input(node):   # not in the support of any root we need
            values[node] = np.zeros(size, dtype=bool)
            continue
        f0, f1 = aig.fanins(node)
        a = values[f0 >> 1]
        b = values[f1 >> 1]
        values[node] = (~a if f0 & 1 else a) & (~b if f1 & 1 else b)

    def edge(e: int) -> np.ndarray:
        v = values[e >> 1]
        return ~v if e & 1 else v

    return {root: edge(root) for root in roots}


def explicit_state_verdict(netlist: Netlist) -> tuple[str, int | None] | None:
    """(verdict, shortest counterexample depth) by explicit BFS.

    None when the netlist is too large for the explicit search.
    """
    latches = netlist.latches
    inputs = list(netlist.input_nodes)
    if len(latches) > BFS_MAX_LATCHES or len(latches) + len(inputs) > BFS_MAX_VARS:
        return None
    aig = netlist.aig
    nl = len(latches)
    leaves = [latch.node for latch in latches] + inputs
    ok_edge = netlist.property_edge
    roots = [latch.next_edge for latch in latches] + [ok_edge]
    roots.extend(netlist.constraints)
    values = _evaluate(aig, roots, leaves)
    nxt = np.zeros(1 << len(leaves), dtype=np.int64)
    for bit, latch in enumerate(latches):
        nxt |= values[latch.next_edge].astype(np.int64) << bit
    legal = np.ones(1 << len(leaves), dtype=bool)
    for constraint in netlist.constraints:
        legal &= values[constraint]
    bad = legal & ~values[ok_edge]
    state_of = np.arange(1 << len(leaves), dtype=np.int64) & ((1 << nl) - 1)
    init = sum(int(latch.init) << bit for bit, latch in enumerate(latches))
    reached = np.zeros(1 << nl, dtype=bool)
    frontier = np.zeros(1 << nl, dtype=bool)
    reached[init] = frontier[init] = True
    depth = 0
    while frontier.any():
        active = frontier[state_of]
        if (active & bad).any():
            return "failed", depth
        successors = np.zeros(1 << nl, dtype=bool)
        successors[nxt[active & legal]] = True
        frontier = successors & ~reached
        reached |= frontier
        depth += 1
    return "proved", None


def replay_violates(netlist: Netlist, trace) -> bool:
    """Replay the trace's inputs from the initial state; True iff it ends
    in a state (with the violation inputs) where the property fails and
    every step respects the constraints."""
    inputs = netlist.input_nodes
    state = netlist.init_assignment()

    def full(assignment) -> dict[int, bool]:
        return {node: bool((assignment or {}).get(node, False)) for node in inputs}

    for step in trace.inputs:
        step = full(step)
        if not netlist.constraints_hold(state, step):
            return False
        state = netlist.simulate_step(state, step)
    last = full(trace.violation_inputs)
    return netlist.constraints_hold(state, last) and not netlist.property_holds(state, last)


# Engines whose counterexamples are shortest by construction (breadth-first
# traversals and depth-incrementing BMC); pdr and itp may return longer ones.
SHORTEST_CEX_ENGINES = {"reach_aig", "reach_aig_hybrid", "reach_aig_allsat",
                        "reach_aig_fwd", "reach_bdd", "bmc"}


def check_sequential(task, engine: str, result) -> str | None:
    """None when ``engine``'s result on the task is right, else a reason."""
    status = result.status.value
    if status != task.expect:
        return f"verdict {status}, expected {task.expect}"
    if status != "failed":
        return None
    trace = result.trace
    if trace is None:
        return "failed without a counterexample"
    if engine in SHORTEST_CEX_ENGINES and trace.depth != task.depth:
        return f"counterexample depth {trace.depth}, shortest is {task.depth}"
    if trace.depth < task.depth:
        return f"counterexample depth {trace.depth} below the shortest {task.depth}"
    if not replay_violates(task.netlist, trace):
        return "counterexample does not replay to a violation"
    return None
