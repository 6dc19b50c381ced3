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
SAT engine only sees plausible pairs.
"""

from __future__ import annotations

import numpy as np

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import or_, xor
from repro.aig.simulate import simulate_nodes
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


def care_set_candidates(
    aig: Aig,
    f0: int,
    f1: int,
    input_vectors: dict[int, np.ndarray],
    max_merge_candidates: int = 4,
) -> dict[int, list[int]]:
    """Simulation-based candidate transformations for nodes of f1's cone.

    Patterns where ``f0`` is 1 are don't-cares, so signatures are compared
    only on care patterns (``f0 == 0``).  Returns node -> candidate
    replacement edges, most promising first: constants, then merges with
    other nodes (modulo complement).  Purely heuristic — every candidate
    still goes through the :class:`DontCareOracle`.
    """
    values = simulate_nodes(aig, input_vectors, [f0, f1])
    sig_f0 = values[f0 >> 1]
    if f0 & 1:
        sig_f0 = ~sig_f0
    care = ~sig_f0  # patterns where f0 == 0
    f1_cone = [n for n in aig.cone([f1]) if aig.is_and(n)]
    # Index care-masked signatures of *all* cone nodes (f0's included —
    # merging into f0's cone is where the sharing payoff is) so merge
    # candidates can be found in both polarities.
    by_masked: dict[bytes, list[tuple[int, bool]]] = {}
    for node in aig.cone([f0, f1]):
        by_masked.setdefault(
            (values[node] & care).tobytes(), []
        ).append((node, False))
        by_masked.setdefault(
            (~values[node] & care).tobytes(), []
        ).append((node, True))
    candidates: dict[int, list[int]] = {}
    for node in f1_cone:
        entries: list[int] = []
        masked = values[node] & care
        if not masked.any():
            entries.append(FALSE)
        if not ((~values[node]) & care).any():
            entries.append(TRUE)
        added = 0
        for other, complemented in by_masked.get(masked.tobytes(), ()):
            if other == node or other == 0:
                continue
            entries.append((2 * other) ^ int(complemented))
            added += 1
            if added >= max_merge_candidates:
                break
        if entries:
            candidates[node] = entries
    return candidates
