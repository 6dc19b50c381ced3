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

from repro.aig.graph import FALSE, TRUE, Aig
from repro.sat.circuit import CircuitSolver
from repro.sweep.signatures import SignatureTable
from repro.util.stats import StatsBag


class CircuitSweeper:
    """Forward sweeping with circuit-SAT equivalence checks.

    Mirrors :class:`repro.sweep.satsweep.SatSweeper`'s forward pass:
    candidate classes come from phase-normalized simulation signatures,
    constant candidates are tried first, and counterexamples found by the
    solver refine the signature table for later checks.
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
        aig = self.aig
        if self.signatures is None:
            self.signatures = SignatureTable(
                aig, roots, words=self._sim_words, seed=self._seed
            )
        else:
            self.signatures.refresh_roots(roots)
        signatures = self.signatures
        signatures.freeze()
        rebuilt: dict[int, int] = {0: FALSE}
        reps: dict[int, list[int]] = {}
        for node in aig.cone(roots):
            if aig.is_input(node):
                rebuilt[node] = 2 * node
                phase, key = signatures.signature_key(node)
                reps.setdefault(key, []).append(2 * node ^ int(phase))
                continue
            f0, f1 = aig.fanins(node)
            default = aig.and_(
                rebuilt[f0 >> 1] ^ (f0 & 1),
                rebuilt[f1 >> 1] ^ (f1 & 1),
            )
            if default in (FALSE, TRUE):
                rebuilt[node] = default
                self.stats.incr("constant_folds")
                continue
            suggested = signatures.is_candidate_constant(node)
            if suggested is not None:
                verdict = self.check_constant(default, suggested)
                if verdict:
                    rebuilt[node] = TRUE if suggested else FALSE
                    self.stats.incr("constant_merges")
                    continue
            phase, key = signatures.signature_key(node)
            merged = False
            candidates = reps.get(key, ())
            for normalized_rep in candidates[: self.max_candidates]:
                candidate = normalized_rep ^ int(phase)
                if candidate == default:
                    rebuilt[node] = default
                    merged = True
                    self.stats.incr("hash_merges")
                    break
                verdict = self.check_equal(default, candidate)
                if verdict:
                    rebuilt[node] = candidate
                    merged = True
                    self.stats.incr("sat_merges")
                    break
            if not merged:
                rebuilt[node] = default
                reps.setdefault(key, []).append(default ^ int(phase))
        new_roots = [rebuilt[e >> 1] ^ (e & 1) for e in roots]
        signatures.thaw()
        return new_roots, rebuilt
