"""Bit-parallel AIG simulation.

Simulation drives the sweeping engines: random patterns partition nodes into
candidate-equivalence classes, and every SAT counterexample is fed back as
one more pattern ("any SAT solver solution thus potentially rules-out
several non matching couples").  Patterns are *lanes* of packed Python
integers: bit ``k`` of an input's integer is its value in pattern ``k``,
and a ``mask`` with one bit per lane bounds the width, so random words and
single counterexample lanes live side by side in one integer.  The kernel
runs on a *levelized cone plan*: one topological pass over flat integer
arrays, where a packed-int AND/XOR is one arbitrary-precision machine op —
a few interpreter ops per node and no per-node dict lookups.

numpy appears only inside :class:`RandomLanes`, the seeded pattern source:
it draws ``uint64`` words per input and packs them once.

Plans are cached on the :class:`~repro.aig.graph.Aig` instance keyed by the
target nodes in caller order, which fixes the plan's node order: the cone
of the *last* target comes first, so it is a prefix of :attr:`ConePlan.nodes`.
The manager is append-only, so a plan — the cone's topological order
compiled to positional fanin/negation columns — stays valid forever;
repeated simulations of the same targets (PDR's ternary generalization,
FRAIG resimulation, one quantification step) skip the cone walk entirely.
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
    """The (cached) levelized plan for the cone of ``edges``.

    Nodes are keyed in caller order (duplicates dropped), so the plan of
    ``[reference, target]`` lists the target's cone first.
    """
    key = tuple(dict.fromkeys(edge >> 1 for edge in edges))
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


def _checked(input_lanes: Mapping[int, int], mask: int) -> Mapping[int, int]:
    for lane in input_lanes.values():
        if lane < 0 or lane & ~mask:
            raise AigError("input lanes must fit inside the lane mask")
    return input_lanes


def simulate(
    aig: Aig,
    input_lanes: Mapping[int, int],
    targets: Sequence[int],
    mask: int,
) -> dict[int, int]:
    """Simulate the cones of ``targets`` under the given input lanes.

    ``input_lanes`` maps input *nodes* to packed lane integers inside
    ``mask`` (one bit per lane).  Returns a map from each target *edge* to
    its output lanes.  Inputs missing from the map default to zero.
    """
    plan = cone_plan(aig, targets)
    values = eval_packed(plan, _checked(input_lanes, mask), mask)
    pos = plan.pos
    return {
        edge: values[pos.get(edge >> 1, 0)] ^ (mask if edge & 1 else 0)
        for edge in targets
    }


def simulate_nodes(
    aig: Aig,
    input_lanes: Mapping[int, int],
    targets: Sequence[int],
    mask: int,
) -> dict[int, int]:
    """Like :func:`simulate` but returns *node* lanes for whole cones.

    The sweeping engines need per-node signatures, not just root values.
    """
    plan = cone_plan(aig, targets)
    values = eval_packed(plan, _checked(input_lanes, mask), mask)
    return dict(zip(plan.nodes, values))


class RandomLanes:
    """Seeded uniform random lanes: the one place numpy draws patterns.

    :meth:`draw` gives each node ``words`` uint64 words, in the order
    given, from one generator stream, packed little-endian into a
    ``64 * words``-lane integer.  One draw of all the words is the same
    stream as one draw per node.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def draw(self, nodes: Sequence[int], words: int) -> dict[int, int]:
        data = self._rng.integers(
            0, 2**64, size=len(nodes) * words, dtype=np.uint64
        ).astype("<u8").tobytes()
        step = 8 * words
        return {
            node: int.from_bytes(data[k * step:(k + 1) * step], "little")
            for k, node in enumerate(nodes)
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
