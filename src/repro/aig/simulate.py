"""Bit-parallel AIG simulation.

Simulation drives the sweeping engines: random patterns partition nodes into
candidate-equivalence classes, and every SAT counterexample is fed back as
one more pattern ("any SAT solver solution thus potentially rules-out
several non matching couples").  The public interface speaks numpy
``uint64`` arrays (one word simulates 64 patterns at once), but the kernel
itself runs on a *levelized cone plan*: one topological pass over flat
integer arrays, with each node's 64-way lanes packed into a single Python
integer (``words * 64`` bits wide).  A packed-int AND/XOR is one arbitrary-
precision machine op, so the per-node cost is a few interpreter ops instead
of a numpy ufunc dispatch, and there are no per-node dict lookups.

Plans are cached on the :class:`~repro.aig.graph.Aig` instance keyed by the
target node set.  The manager is append-only, so a plan — the cone's
topological order compiled to positional fanin/negation columns — stays
valid forever; repeated simulations of the same targets (PDR's ternary
generalization, FRAIG resimulation) skip the cone walk entirely.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.aig.graph import Aig
from repro.errors import AigError

# Plans are tiny (five int tuples per AND) but target sets are open-ended —
# FRAIG asks for one fresh node at a time — so the per-manager plan cache is
# bounded with the same wholesale-amnesia discipline as the BDD caches.
_MAX_PLANS = 256


class ConePlan:
    """A levelized, position-indexed evaluation plan for one target set.

    ``ops`` holds one ``(dst, src0, neg0, src1, neg1)`` tuple per AND node
    in topological order; ``inputs`` holds ``(pos, node)`` for the cone's
    inputs; ``pos`` maps node ids to value-array positions (position 0 is
    the constant-FALSE node) and ``nodes`` is the inverse column.
    Positions index a flat value list, so an evaluator is one loop with
    no dict access.
    """

    __slots__ = ("size", "inputs", "ops", "pos", "nodes")

    def __init__(self, aig: Aig, nodes: tuple[int, ...]) -> None:
        pos: dict[int, int] = {0: 0}
        node_ids: list[int] = [0]
        inputs: list[tuple[int, int]] = []
        ops: list[tuple[int, int, int, int, int]] = []
        for node in aig.cone([2 * n for n in nodes]):
            index = len(pos)
            pos[node] = index
            node_ids.append(node)
            if aig.is_input(node):
                inputs.append((index, node))
            else:
                f0, f1 = aig.fanins(node)
                ops.append(
                    (index, pos[f0 >> 1], f0 & 1, pos[f1 >> 1], f1 & 1)
                )
        self.size = len(pos)
        self.inputs = inputs
        self.ops = ops
        self.pos = pos
        self.nodes = node_ids


def cone_plan(aig: Aig, edges: Sequence[int]) -> ConePlan:
    """The (cached) levelized plan for the cone of ``edges``."""
    key = tuple(sorted({edge >> 1 for edge in edges}))
    plans = aig.__dict__.get("_sim_plans")
    if plans is None:
        plans = aig.__dict__["_sim_plans"] = {}
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _MAX_PLANS:
            plans.clear()
        plan = ConePlan(aig, key)
        plans[key] = plan
    return plan


def _pack(vector: np.ndarray | Sequence[int]) -> int:
    """A uint64 vector packed into one little-endian Python integer."""
    return int.from_bytes(
        np.ascontiguousarray(np.asarray(vector, dtype="<u8")).tobytes(),
        "little",
    )


def _unpack(value: int, words: int) -> np.ndarray:
    """A packed integer back to a fresh, writable uint64 vector."""
    return np.frombuffer(
        bytearray(value.to_bytes(words * 8, "little")), dtype="<u8"
    ).view(np.uint64)


def eval_packed(
    plan: ConePlan,
    input_ints: Mapping[int, int],
    mask: int,
) -> list[int]:
    """One topological pass over packed-integer lanes.

    ``input_ints`` maps input nodes to lane integers (missing inputs are
    zero) and ``mask`` has one bit set per lane.  Returns the flat value
    list indexed by ``plan.pos``; a complemented edge reads its node's
    value XOR ``mask``.
    """
    values = [0] * plan.size
    for index, node in plan.inputs:
        values[index] = input_ints.get(node, 0)
    for dst, src0, neg0, src1, neg1 in plan.ops:
        a = values[src0]
        if neg0:
            a ^= mask
        b = values[src1]
        if neg1:
            b ^= mask
        values[dst] = a & b
    return values


def simulate(
    aig: Aig,
    input_vectors: Mapping[int, np.ndarray],
    targets: Sequence[int],
) -> dict[int, np.ndarray]:
    """Simulate the cones of ``targets`` under the given input vectors.

    ``input_vectors`` maps input *nodes* to uint64 arrays (all of one equal
    length).  Returns a map from each target *edge* to its output vector.
    Inputs missing from the map default to constant zero.
    """
    words = None
    for vector in input_vectors.values():
        if words is None:
            words = len(vector)
        elif len(vector) != words:
            raise AigError("input vectors must all have the same length")
    if words is None:
        words = 1
    plan = cone_plan(aig, targets)
    mask = (1 << (words * 64)) - 1
    input_ints = {
        node: _pack(vector) for node, vector in input_vectors.items()
    }
    values = eval_packed(plan, input_ints, mask)
    pos = plan.pos
    result: dict[int, np.ndarray] = {}
    for edge in targets:
        value = values[pos.get(edge >> 1, 0)]
        if edge & 1:
            value ^= mask
        result[edge] = _unpack(value, words)
    return result


def simulate_nodes(
    aig: Aig,
    input_vectors: Mapping[int, np.ndarray],
    targets: Sequence[int],
) -> dict[int, np.ndarray]:
    """Like :func:`simulate` but returns *node* vectors for whole cones.

    The sweeping engines need per-node signatures, not just root values.
    """
    words = max((len(v) for v in input_vectors.values()), default=1)
    plan = cone_plan(aig, targets)
    mask = (1 << (words * 64)) - 1
    input_ints = {
        node: _pack(vector) for node, vector in input_vectors.items()
    }
    values = eval_packed(plan, input_ints, mask)
    return {
        node: _unpack(values[index], words)
        for node, index in plan.pos.items()
    }


def random_input_vectors(
    aig: Aig, words: int, seed: int = 0
) -> dict[int, np.ndarray]:
    """Uniform random simulation vectors for every input of the manager."""
    rng = np.random.default_rng(seed)
    return {
        node: rng.integers(0, 2**64, size=words, dtype=np.uint64)
        for node in aig.inputs
    }


def eval_edge(aig: Aig, edge: int, assignment: Mapping[int, bool]) -> bool:
    """Evaluate one edge under a Boolean input assignment (by node id)."""
    plan = cone_plan(aig, (edge,))
    values = [0] * plan.size
    for index, node in plan.inputs:
        if assignment.get(node, False):
            values[index] = 1
    for dst, src0, neg0, src1, neg1 in plan.ops:
        values[dst] = (values[src0] ^ neg0) & (values[src1] ^ neg1)
    return bool((values[plan.pos.get(edge >> 1, 0)] ^ edge) & 1)


def truth_table(aig: Aig, edge: int, input_order: Sequence[int]) -> int:
    """Exhaustive truth table of ``edge`` over ``input_order`` as a bitmask.

    Bit ``i`` of the result is the function value when input ``k`` takes
    bit ``k`` of ``i``.  Limited to 16 inputs (65536 rows).
    """
    n = len(input_order)
    if n > 16:
        raise AigError("truth_table supports at most 16 inputs")
    rows = 1 << n
    plan = cone_plan(aig, (edge,))
    mask = (1 << rows) - 1
    # Input k's column is the standard block pattern 0101.., 0011.., ...
    # built directly as packed integers.
    input_ints: dict[int, int] = {}
    for k, node in enumerate(input_order):
        block = 1 << k
        pattern = ((1 << block) - 1) << block
        period = block * 2
        full = 0
        for shift in range(0, rows, period):
            full |= pattern << shift
        input_ints[node] = full & mask
    values = eval_packed(plan, input_ints, mask)
    value = values[plan.pos.get(edge >> 1, 0)]
    if edge & 1:
        value ^= mask
    return value
