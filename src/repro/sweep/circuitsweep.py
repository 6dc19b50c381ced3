"""Circuit-SAT sweeping: the merge phase with a circuit solver back end.

The paper runs its step-3 equivalence checks through a general CNF solver
(ZChaff) and notes "we plan to experiment with circuit-SAT in the future".
:class:`CircuitSweeper` is that experiment plugged into the same sweeping
skeleton as :class:`repro.sweep.satsweep.SatSweeper`: identical candidate
detection through simulation signatures, identical forward merge order, but
every proof obligation is discharged by the justification-based
:class:`repro.sat.circuit.CircuitSolver` directly on the AIG — no Tseitin
encoding, no clause database.

The two sweepers are deliberately interchangeable (same ``sweep`` contract)
so the merge-engine benchmarks can swap them and compare check counts and
merge yields under both back ends.
"""

from __future__ import annotations

from repro.aig.graph import Aig
from repro.sat.circuit import CircuitSolver
from repro.sweep.satsweep import forward_sweep
from repro.sweep.signatures import SignatureTable
from repro.util.stats import StatsBag


class CircuitSweeper:
    """Forward sweeping with circuit-SAT equivalence checks.

    Runs :class:`repro.sweep.satsweep.SatSweeper`'s forward pass
    (:func:`repro.sweep.satsweep.forward_sweep`) with its own checks.
    """

    def __init__(
        self,
        aig: Aig,
        signatures: SignatureTable | None = None,
        conflict_budget: int = 3000,
        max_candidates: int = 8,
        sim_words: int = 4,
        seed: int = 2005,
    ) -> None:
        self.aig = aig
        self.solver = CircuitSolver(aig, conflict_budget=conflict_budget)
        self.signatures = signatures
        self.conflict_budget = conflict_budget
        self.max_candidates = max_candidates
        self._sim_words = sim_words
        self._seed = seed
        self.stats = StatsBag()

    # ------------------------------------------------------------------ #
    # Primitive checks (same contract as SatSweeper)
    # ------------------------------------------------------------------ #

    def check_equal(self, a: int, b: int) -> bool | None:
        """Is ``a == b`` for all inputs?  True / False / None (unknown)."""
        self.stats.incr("sat_checks")
        verdict = self.solver.check_equal(a, b, self.conflict_budget)
        if verdict is True:
            self.stats.incr("proved_equal")
        elif verdict is False:
            self.stats.incr("proved_different")
            self._learn_counterexample()
        else:
            self.stats.incr("unknown_checks")
        return verdict

    def check_constant(self, edge: int, value: bool) -> bool | None:
        """Is ``edge`` constantly ``value``?  True / False / None."""
        self.stats.incr("sat_checks")
        verdict = self.solver.check_constant(edge, value, self.conflict_budget)
        if verdict is True:
            self.stats.incr("proved_constant")
        elif verdict is False:
            self._learn_counterexample()
        else:
            self.stats.incr("unknown_checks")
        return verdict

    def _learn_counterexample(self) -> None:
        if self.signatures is None:
            return
        self.signatures.add_pattern(self.solver.model_inputs())
        self.stats.incr("counterexamples_learned")

    # ------------------------------------------------------------------ #
    # Forward sweeping
    # ------------------------------------------------------------------ #

    def sweep(self, roots: list[int]) -> tuple[list[int], dict[int, int]]:
        """Forward sweep with circuit-SAT checks; same contract as SatSweeper.

        Returns ``(new_roots, rebuilt)`` where ``rebuilt`` maps original
        nodes to their representative edges in the same manager.
        """
        return forward_sweep(self, roots)
