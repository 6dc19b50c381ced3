"""The Cube stage: recursive lookahead splitting into a cube tree.

A cube is an ordered conjunction of *gate literals* ``(node, value)``
over the shared manager.  Assuming a literal rewrites the target by
constant propagation (:meth:`repro.aig.graph.Aig.rebuild` with the gate
replaced by the constant) and conjoins the gate's consistency edge, so

    assume(target, g, v)  ==  target AND (g == v)      (pointwise)

holds by construction.  That single identity carries the whole scheme:

* sibling cubes diverge on one literal, so they are pairwise
  contradictory and the leaf cubes of a tree *partition* the space;
* any model of a leaf's reduced target is a model of the original;
* all leaves UNSAT implies the original target UNSAT.

Downstream logic of an assigned gate constant-folds away (the "genuinely
smaller CNF" the conquer workers see); the gate's own fanin cone stays,
pinned by the consistency conjunct.  Leaves whose target folds to the
constant FALSE — directly or via the lookahead's ternary refutation —
are *refuted* without ever reaching a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.graph import FALSE, TRUE, Aig
from repro.cnc.lookahead import analyze
from repro.obs import probes as _obs
from repro.util.stats import StatsBag

# Forced-value applications per tree node are bounded defensively: each
# one assigns a fresh gate, but the consistency conjuncts can surface new
# foldable structure indefinitely on pathological cones.
_MAX_FORCED_PER_NODE = 64


@dataclass(frozen=True)
class CubeLiteral:
    """One gate assignment of a cube."""

    node: int
    value: bool

    @property
    def edge(self) -> int:
        """The edge asserting "this gate's function equals the value"."""
        return 2 * self.node + (0 if self.value else 1)


@dataclass(frozen=True)
class CubeLeaf:
    """One leaf of the cube tree.

    ``target`` is the fully-reduced edge (original AND all literals);
    ``base_target`` is the ancestor's reduction with the last
    ``len(assumed)`` literals *not* applied — the conquer stage asserts
    ``base_target`` and poses the tail literals as solver assumptions,
    so an UNSAT core over them refutes an ancestor cube, not just this
    leaf.
    """

    literals: tuple[CubeLiteral, ...]
    target: int
    base_target: int
    assumed: tuple[CubeLiteral, ...]
    refuted: bool = False


@dataclass
class CubeTree:
    """The Cube stage's product: every leaf, open and refuted."""

    root_target: int
    leaves: list[CubeLeaf] = field(default_factory=list)
    splits: int = 0
    forced: int = 0

    @property
    def open_leaves(self) -> list[CubeLeaf]:
        return [leaf for leaf in self.leaves if not leaf.refuted]

    @property
    def refuted_leaves(self) -> int:
        return sum(1 for leaf in self.leaves if leaf.refuted)


def assume_literal(aig: Aig, target: int, node: int, value: bool) -> int:
    """``target AND (gate == value)``, with the gate constant-folded."""
    constant = TRUE if value else FALSE
    reduced = aig.rebuild(target, {node: constant})
    return aig.and_(reduced, 2 * node + (0 if value else 1))


def build_cube_tree(
    aig: Aig,
    target: int,
    *,
    cube_depth: int = 4,
    candidates_limit: int = 10,
    assume_tail: int = 1,
    stats: StatsBag | None = None,
) -> CubeTree:
    """Split ``target`` into a cube tree of at most ``2**cube_depth`` leaves.

    Forced values (branches the ternary lookahead refutes) are applied
    without spending depth; their refuted siblings become leaves so the
    leaf set stays a full partition.
    """
    tree = CubeTree(root_target=target)
    bag = stats if stats is not None else StatsBag()

    def leaf(literals, path_targets, refuted):
        cut = max(0, len(literals) - assume_tail)
        tree.leaves.append(
            CubeLeaf(
                literals=tuple(literals),
                target=path_targets[-1],
                base_target=path_targets[cut],
                assumed=tuple(literals[cut:]),
                refuted=refuted,
            )
        )
        if refuted:
            bag.incr("cnc_cube_refuted_leaves")

    # Depth-first over (literals, per-literal target chain, budget).
    # path_targets[i] is the reduction after literals[:i], so it is one
    # longer than literals.
    stack: list[tuple[list[CubeLiteral], list[int], int]] = [
        ([], [target], cube_depth)
    ]
    while stack:
        literals, path_targets, budget = stack.pop()
        current = path_targets[-1]
        refuted_here = False
        forced_rounds = 0
        gate = None
        while True:
            if current == FALSE:
                refuted_here = True
                break
            if budget == 0 or forced_rounds >= _MAX_FORCED_PER_NODE:
                break
            look = analyze(
                aig,
                current,
                candidates_limit=candidates_limit,
                exclude=[lit.node for lit in literals],
            )
            if look.refuted:
                refuted_here = True
                break
            if look.forced:
                for node, value in look.forced:
                    # The opposite branch is refuted by lookahead: emit
                    # it as a leaf so the partition stays complete.
                    sibling = literals + [CubeLiteral(node, not value)]
                    leaf(sibling, path_targets + [FALSE], refuted=True)
                    current = assume_literal(aig, current, node, value)
                    literals = literals + [CubeLiteral(node, value)]
                    path_targets = path_targets + [current]
                    tree.forced += 1
                    bag.incr("cnc_cube_forced")
                    forced_rounds += 1
                    if current == FALSE:
                        break
                continue
            gate = look.gate
            break
        if refuted_here:
            leaf(literals, path_targets, refuted=True)
        elif gate is None or budget == 0:
            leaf(literals, path_targets, refuted=False)
        else:
            tree.splits += 1
            bag.incr("cnc_cube_splits")
            for value in (True, False):
                child = assume_literal(aig, current, gate, value)
                stack.append(
                    (
                        literals + [CubeLiteral(gate, value)],
                        path_targets + [child],
                        budget - 1,
                    )
                )
        if _obs.ENABLED:
            _obs.sample_group(
                ("cnc.open_cubes", len(stack)),
                ("cnc.solved_cubes", 0),
                ("cnc.refuted_cubes",
                 int(bag.get("cnc_cube_refuted_leaves"))),
                ("cnc.active_workers", 0),
            )
    bag.set("cnc_cube_leaves", len(tree.leaves))
    return tree
