"""Variable-ordering heuristics for multi-variable quantification.

``exists {x1..xk} . f`` is computed one variable at a time, and the order
matters enormously: a variable whose cofactors are nearly identical is
almost free (the merge phase collapses them), while a deeply entangled
variable can double the circuit.  The paper's "partial quantification"
aborts the expensive ones; these schedulers try to not meet them early in
the first place.

Heuristics (all return the *next* variable to quantify):

* ``static``         — caller-given order, no analysis;
* ``min_dependence`` — fewest AND nodes structurally depending on the
  variable (the default greedy schedule; cheap, one pass over the cached
  cone plan serves every candidate);
* ``min_level``      — shallowest variable first (its cofactors share the
  most top logic);
* ``cofactor_probe`` — simulate both cofactors on random patterns and pick
  the variable whose cofactors agree most often (highest expected merge
  yield, the most faithful to the paper's "similar cofactors" notion).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import RandomLanes, cone_plan, simulate
from repro.errors import AigError

Scheduler = Callable[[Aig, int, Sequence[int]], int]


def schedule_static(
    aig: Aig, edge: int, candidates: Sequence[int]
) -> int:
    """Caller order: always the first remaining variable."""
    return candidates[0]


def schedule_min_dependence(
    aig: Aig, edge: int, candidates: Sequence[int]
) -> int:
    """The variable with the fewest structurally dependent AND nodes."""
    return min(candidates, key=dependence_costs(aig, edge, candidates).get)


def schedule_min_level(
    aig: Aig, edge: int, candidates: Sequence[int]
) -> int:
    """The variable whose deepest dependent node is shallowest.

    A variable only feeding shallow logic perturbs a small top slice of
    the cone; its two cofactors share everything below.
    """
    deepest_by_mask: dict[int, int] = {}
    for mask, node in _dependents(aig, edge, candidates):
        level = aig.level(node)
        if level > deepest_by_mask.get(mask, 0):
            deepest_by_mask[mask] = level
    deepest = {
        var: max(
            (level for mask, level in deepest_by_mask.items() if mask >> k & 1),
            default=0,
        )
        for k, var in enumerate(candidates)
    }
    return min(candidates, key=deepest.get)


def schedule_cofactor_probe(
    aig: Aig,
    edge: int,
    candidates: Sequence[int],
    words: int = 2,
    seed: int = 2005,
) -> int:
    """The variable whose cofactors agree on the most random patterns.

    High agreement predicts a high merge yield — the paper's "high merge
    probability (similar cofactors)" case, where quantification is cheap.
    Ties break towards lower dependence cost.
    """
    plan = cone_plan(aig, (edge,))
    lanes = RandomLanes(seed).draw([node for _, node in plan.inputs], words)
    mask = (1 << (64 * words)) - 1
    costs = dependence_costs(aig, edge, candidates)

    def disagreement(var: int) -> tuple[int, int]:
        low = simulate(aig, {**lanes, var: 0}, [edge], mask)[edge]
        high = simulate(aig, {**lanes, var: mask}, [edge], mask)[edge]
        return (low ^ high).bit_count(), costs[var]

    return min(candidates, key=disagreement)


_SCHEDULERS: dict[str, Scheduler] = {
    "static": schedule_static,
    "min_dependence": schedule_min_dependence,
    "min_level": schedule_min_level,
    "cofactor_probe": schedule_cofactor_probe,
}


def get_scheduler(name: str) -> Scheduler:
    """Look up a scheduling heuristic by name."""
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise AigError(
            f"unknown quantification schedule {name!r}; "
            f"choose from {sorted(_SCHEDULERS)}"
        ) from None


def scheduler_names() -> list[str]:
    """All registered schedule names (benchmark sweeps iterate these)."""
    return sorted(_SCHEDULERS)


def schedule_variable_order(
    aig: Aig,
    edge: int,
    variables: Sequence[int],
    schedule: str = "min_dependence",
) -> list[int]:
    """A complete quantification order by repeated scheduler application.

    This is the *static* form of the per-step scheduling that
    :func:`repro.core.quantify.quantify_exists` performs dynamically: the
    chosen heuristic is applied to the fixed ``edge`` until every variable
    is placed.  Image pipelines use it to decide the conjunction order and
    early-quantification points of a partitioned transition relation —
    both the AIG and the BDD engines speak this one vocabulary.
    """
    scheduler = get_scheduler(schedule)
    remaining = list(dict.fromkeys(variables))
    order: list[int] = []
    while remaining:
        var = scheduler(aig, edge, remaining)
        remaining.remove(var)
        order.append(var)
    return order


@dataclass(frozen=True)
class ImageStep:
    """One step of a partitioned image computation.

    ``conjoin`` lists partition indices to AND into the running product;
    ``quantify`` lists the variables that become quantifiable right after
    (no remaining partition depends on them).
    """

    conjoin: tuple[int, ...]
    quantify: tuple[int, ...]


def plan_partitioned_quantification(
    var_order: Sequence[int],
    supports: Sequence[Iterable[int]],
) -> list[ImageStep]:
    """Schedule a partitioned relational product with early quantification.

    Given the quantification order of the variables and the support of
    each partition (transition-relation cluster), produce the IWLS95-style
    plan: walk the variables in order, conjoin the not-yet-conjoined
    partitions that depend on the current variable, then quantify every
    variable no remaining partition mentions.  Partitions whose support
    contains no scheduled variable are conjoined in a final step.

    The plan is representation-agnostic — the AIG image computer executes
    it with circuit conjunction + circuit quantification, the BDD engine
    with ``and_exists`` — which is what lets both paths share the
    scheduling heuristics of this module.
    """
    support_sets = [frozenset(s) for s in supports]
    remaining = set(range(len(support_sets)))
    quantified: set[int] = set()
    steps: list[ImageStep] = []
    for var in var_order:
        if var in quantified:
            continue
        conjoin = sorted(c for c in remaining if var in support_sets[c])
        remaining.difference_update(conjoin)
        pending: set[int] = set()
        for c in remaining:
            pending |= support_sets[c]
        free = tuple(
            v for v in var_order if v not in quantified and v not in pending
        )
        quantified.update(free)
        steps.append(ImageStep(tuple(conjoin), free))
    if remaining:
        steps.append(ImageStep(tuple(sorted(remaining)), ()))
    return steps


def _dependents(
    aig: Aig, edge: int, variables: Sequence[int]
) -> list[tuple[int, int]]:
    """``(mask, node)`` per AND node of the cone depending on a variable.

    Bit ``k`` of ``mask`` is set when ``variables[k]`` lies in the node's
    cone.  One pass over the cached cone plan serves every variable.
    """
    plan = cone_plan(aig, (edge,))
    deps = [0] * plan.size
    for k, var in enumerate(variables):
        index = plan.pos.get(var)
        if index:
            deps[index] = 1 << k
    nodes = plan.nodes
    dependent: list[tuple[int, int]] = []
    for dst, src0, _neg0, src1, _neg1 in plan.ops:
        mask = deps[src0] | deps[src1]
        if mask:
            deps[dst] |= mask
            dependent.append((mask, nodes[dst]))
    return dependent


def dependence_costs(
    aig: Aig, edge: int, variables: Sequence[int]
) -> dict[int, int]:
    """How many AND nodes of the cone structurally depend on each variable."""
    tally = Counter(mask for mask, _ in _dependents(aig, edge, variables))
    return {
        var: sum(count for mask, count in tally.items() if mask >> k & 1)
        for k, var in enumerate(variables)
    }


def dependence_cost(aig: Aig, edge: int, var_node: int) -> int:
    """How many AND nodes of the cone structurally depend on the variable."""
    return dependence_costs(aig, edge, [var_node])[var_node]
