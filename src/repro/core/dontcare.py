"""Don't-care machinery for the optimization phase (Section 2.2).

When representing ``f0 OR f1`` we never need ``f1`` to be right where
``f0`` is already 1: the *onset of f0 is an input don't-care set for f1*
(and symmetrically).  A node ``n`` in f1's cone may be replaced by ``n'``
whenever

* input-DC rule:  ``NOT f0  ->  (n' == n)``   — checked as
  ``UNSAT( NOT f0  AND  (n XOR n') )``, the paper's
  "the transformed node is required to match the original one outside the
  don't care set"; or
* observability rule: the difference *is* inside the care set but is not
  observable at the output — checked as
  ``UNSAT( (f0 OR f1)  XOR  (f0 OR f1') )``, the paper's "additional
  equivalence check", equivalently redundancy of the EXOR gate comparing
  f1 and f1'.

Candidate ``n'`` are constants (redundancy removal) and existing nodes
modulo complementation (merge), pre-filtered by care-set simulation so the
SAT engine only sees plausible pairs.  One :class:`CareLanes` per
direction holds that simulation: random lanes and, above them, every SAT
counterexample found so far, all packed into the same integers over one
cone plan.
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, Aig
from repro.aig.ops import or_, xor
from repro.aig.simulate import RandomLanes, cone_plan, simulate_nodes
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


class DontCareOracle:
    """SAT-backed validity checks for node transformations under DCs.

    All probes run through the shared :class:`SatSweeper` solver, so one
    clause database serves the whole optimization phase.
    """

    def __init__(self, aig: Aig, sweeper: SatSweeper) -> None:
        self.aig = aig
        self.sweeper = sweeper
        self.stats = StatsBag()

    def valid_under_input_dc(
        self,
        care_edge: int,
        original: int,
        replacement: int,
        counterexample: dict[int, bool] | None = None,
    ) -> bool | None:
        """Input-DC rule: does ``original == replacement`` hold within care?

        ``care_edge`` is the care set (``NOT f0`` when f0's onset is the DC
        set).  True means the replacement is safe.  When the SAT check
        refutes it, the distinguishing input assignment (a care pattern on
        which the two differ) is written into ``counterexample``.
        """
        difference = self.aig.and_(
            care_edge, xor(self.aig, original, replacement)
        )
        if difference == FALSE:
            self.stats.incr("input_dc_trivial")
            return True
        self.stats.incr("input_dc_checks")
        return self.sweeper.check_constant(difference, False, counterexample)

    def valid_under_odc(
        self,
        f0: int,
        f1_original: int,
        f1_transformed: int,
    ) -> bool | None:
        """Observability rule: is ``f0 OR f1`` unchanged by the transform?

        This is the redundancy check on the EXOR gate comparing the two
        versions of the disjunction.
        """
        before = or_(self.aig, f0, f1_original)
        after = or_(self.aig, f0, f1_transformed)
        miter = xor(self.aig, before, after)
        if miter == FALSE:
            self.stats.incr("odc_trivial")
            return True
        self.stats.incr("odc_checks")
        return self.sweeper.check_constant(miter, False)


class CareLanes:
    """Packed simulation lanes over the cone of ``[reference, target]``.

    One plan serves the whole direction.  It is built in caller order, so
    the target's cone is the prefix of its node order
    (:attr:`target_cone`).  The low ``64 * words`` lanes are seeded random
    patterns, drawn per cone input in plan order; :meth:`add` appends one
    lane per SAT counterexample above them, and only those lanes refute
    (:meth:`refutes`).
    """

    def __init__(
        self, aig: Aig, reference: int, target: int, words: int, seed: int
    ) -> None:
        self.aig = aig
        self.roots = [reference, target]
        self.plan = cone_plan(aig, self.roots)
        self.target_cone = self.plan.nodes[1:self.plan.pos[target >> 1] + 1]
        self.lanes = RandomLanes(seed).draw(
            [node for _, node in self.plan.inputs], words
        )
        self.mask = self.random_mask = (1 << (64 * words)) - 1
        self.values: dict[int, int] | None = None

    def bits(self, edge: int) -> int:
        """The lanes of ``edge`` (simulating first if lanes changed)."""
        if self.values is None:
            self.values = simulate_nodes(
                self.aig, self.lanes, self.roots, self.mask
            )
        return self.values[edge >> 1] ^ (self.mask if edge & 1 else 0)

    def add(self, model: dict[int, bool]) -> None:
        """Append one lane holding the input assignment ``model``."""
        lane = self.mask + 1
        for node in self.lanes:
            if model.get(node):
                self.lanes[node] |= lane
        self.mask |= lane
        self.values = None

    def refutes(self, care: int, original: int, replacement: int) -> bool:
        """Whether a counterexample lane inside ``care`` separates the
        ``original`` and ``replacement`` edges."""
        if self.mask == self.random_mask:
            return False
        bits = self.bits
        return bool(
            (bits(original) ^ bits(replacement)) & bits(care)
            & ~self.random_mask
        )


def care_set_candidates(
    lanes: CareLanes, max_merge_candidates: int = 4
) -> dict[int, list[int]]:
    """Simulation-based candidate transformations for nodes of f1's cone.

    ``lanes`` simulates ``[f0, f1]``.  Patterns where ``f0`` is 1 are
    don't-cares, so signatures are compared only on random care lanes
    (``f0 == 0``).  Returns node -> candidate replacement edges, most
    promising first: constants, then merges with other nodes (modulo
    complement).  Purely heuristic — every candidate still goes through
    the :class:`DontCareOracle`.
    """
    aig = lanes.aig
    care = lanes.bits(lanes.roots[0] ^ 1) & lanes.random_mask
    values = lanes.values
    # Index care-masked signatures of *all* cone nodes (f0's included —
    # merging into f0's cone is where the sharing payoff is) so merge
    # candidates can be found in both polarities.
    by_masked: dict[int, list[int]] = {}
    for node in lanes.plan.nodes[1:]:
        value = values[node]
        by_masked.setdefault(value & care, []).append(2 * node)
        by_masked.setdefault(~value & care, []).append(2 * node + 1)
    candidates: dict[int, list[int]] = {}
    for node in lanes.target_cone:
        if not aig.is_and(node):
            continue
        value = values[node]
        masked = value & care
        entries: list[int] = []
        if not masked:
            entries.append(FALSE)
        if not ~value & care:
            entries.append(TRUE)
        added = 0
        for other in by_masked.get(masked, ()):
            if other >> 1 == node:
                continue
            entries.append(other)
            added += 1
            if added >= max_merge_candidates:
                break
        if entries:
            candidates[node] = entries
    return candidates
