"""SAT-based merge-point detection (step 3 of the paper's merge phase).

All equivalence checks of one sweeping session share a single incremental
solver: the AIG cones are Tseitin-encoded once through a persistent
:class:`~repro.aig.cnf.CnfMapper`, and each check activates two temporary
"difference" clauses through a fresh selector variable assumed for that call
only.  This is the paper's factorization of "several checks together within
a single ZChaff run": no clause database is ever reloaded, and everything
the solver learns carries over to later checks.

Checks yield three verdicts: proven equal (UNSAT), proven different (SAT —
the model becomes a new simulation pattern), or unknown (conflict budget
exhausted; the pair is conservatively left unmerged).
"""

from __future__ import annotations

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.sat.solver import Solver, SolveResult
from repro.sweep.signatures import SignatureTable
from repro.util.stats import StatsBag


class SatSweeper:
    """Incremental SAT sweeping over one AIG manager."""

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
        self.mapper = CnfMapper(aig, Solver())
        self.signatures = signatures
        self.conflict_budget = conflict_budget
        self.max_candidates = max_candidates
        self._sim_words = sim_words
        self._seed = seed
        self.stats = StatsBag()

    # ------------------------------------------------------------------ #
    # Primitive checks
    # ------------------------------------------------------------------ #

    def check_equal(self, a: int, b: int) -> bool | None:
        """Is ``a == b`` for all inputs?  True / False / None (unknown).

        On a SAT (different) verdict the distinguishing input pattern is
        pushed into the signature table, refining future candidate classes.
        """
        if a == b:
            return True
        if a == edge_not(b):
            return False
        self.stats.incr("sat_checks")
        solver = self.mapper.solver
        lit_a = self.mapper.lit_for(a)
        lit_b = self.mapper.lit_for(b)
        selector = solver.new_var()
        # selector -> (a != b)
        solver.add_clause([-selector, lit_a, lit_b])
        solver.add_clause([-selector, -lit_a, -lit_b])
        result = solver.solve(
            [selector], conflict_budget=self.conflict_budget
        )
        solver.add_clause([-selector])  # retire this check's clauses
        if result is SolveResult.UNSAT:
            self.stats.incr("proved_equal")
            return True
        if result is SolveResult.SAT:
            self.stats.incr("proved_different")
            self._learn_counterexample()
            return False
        self.stats.incr("unknown_checks")
        return None

    def check_constant(
        self,
        edge: int,
        value: bool,
        counterexample: dict[int, bool] | None = None,
    ) -> bool | None:
        """Is ``edge`` constantly ``value``?  True / False / None.

        When the solver answers SAT, the model's input assignment is
        written into ``counterexample`` (if given).  Every other outcome
        leaves it untouched, so a caller never sees a stale model.
        """
        target = edge_not(edge) if value else edge
        if target == FALSE:
            return True
        if target == TRUE:
            return False
        self.stats.incr("sat_checks")
        solver = self.mapper.solver
        lit = self.mapper.lit_for(target)
        result = solver.solve([lit], conflict_budget=self.conflict_budget)
        if result is SolveResult.UNSAT:
            self.stats.incr("proved_constant")
            return True
        if result is SolveResult.SAT:
            self._learn_counterexample(counterexample)
            return False
        self.stats.incr("unknown_checks")
        return None

    def _learn_counterexample(
        self, sink: dict[int, bool] | None = None
    ) -> None:
        if self.signatures is None and sink is None:
            return
        pattern = self.mapper.model_inputs()
        if sink is not None:
            sink.update(pattern)
        if self.signatures is not None:
            self.signatures.add_pattern(pattern)
            self.stats.incr("counterexamples_learned")

    # ------------------------------------------------------------------ #
    # Forward sweeping
    # ------------------------------------------------------------------ #

    def sweep(self, roots: list[int]) -> tuple[list[int], dict[int, int]]:
        """Forward sweep: merge equivalent nodes bottom-up.

        "Forward processing is more similar to the BDD sweeping technique,
        as we start merging from primary inputs and propagate checks to the
        primary outputs.  In this case as long as we find equivalent points,
        we can learn them, thus simplifying successive equivalence checks."

        Returns ``(new_roots, rebuilt)`` where ``rebuilt`` maps original
        nodes to their representative edges in the same manager.
        """
        return forward_sweep(self, roots)

    # ------------------------------------------------------------------ #
    # Backward pairwise merging
    # ------------------------------------------------------------------ #

    def merge_pair_backward(self, a: int, b: int) -> tuple[int, dict[int, int]]:
        """Merge the cone of ``b`` into ``a`` starting from the outputs.

        "Backward processing is generally better in case of high merge
        probability (similar cofactors), as few checks on the output region
        can quickly find equivalence and merge points, and stop recursion."

        Works down from the root pair: when a pair proves equivalent the
        descent stops there (the whole sub-cone merges at once); otherwise
        the fanin pairs are tried.  Returns ``(new_b, merge_map)`` where
        ``merge_map`` maps nodes of b's cone to edges into a's cone.
        """
        aig = self.aig
        if self.signatures is None:
            self.signatures = SignatureTable(
                aig, [a, b], words=self._sim_words, seed=self._seed
            )
        else:
            self.signatures.refresh_roots([a, b])
        signatures = self.signatures
        signatures.freeze()
        merge_map: dict[int, int] = {}
        visited_pairs: set[tuple[int, int]] = set()
        # Worklist of (node_of_a_cone_edge, node_of_b_cone_edge) pairs.
        worklist: list[tuple[int, int]] = [(a, b)]
        while worklist:
            edge_a, edge_b = worklist.pop()
            node_a, node_b = edge_a >> 1, edge_b >> 1
            pair = (node_a, node_b)
            if pair in visited_pairs or node_b in merge_map:
                continue
            visited_pairs.add(pair)
            if node_a == node_b:
                continue
            if node_b == 0 or aig.is_input(node_b):
                continue  # only AND nodes of b's cone get merged
            sig_a = signatures.edge_signature(edge_a)
            sig_b = signatures.edge_signature(edge_b)
            compatible_equal = sig_a == sig_b
            compatible_compl = sig_a == sig_b ^ signatures.mask
            if compatible_equal or compatible_compl:
                target = edge_a if compatible_equal else edge_not(edge_a)
                verdict = self.check_equal(target, edge_b)
                if verdict:
                    # b-node expressed through a's cone; stop descending.
                    merge_map[node_b] = target ^ (edge_b & 1)
                    self.stats.incr("backward_merges")
                    continue
            # Descend into fanin pairs (all four combinations, signature
            # filtering happens on the next visit).
            if aig.is_and(node_a) and aig.is_and(node_b):
                a0, a1 = aig.fanins(node_a)
                b0, b1 = aig.fanins(node_b)
                for fa in (a0, a1):
                    for fb in (b0, b1):
                        worklist.append((fa, fb))
        signatures.thaw()
        if not merge_map:
            return b, merge_map
        new_b = aig.rebuild(b, merge_map)
        return new_b, merge_map


def forward_sweep(sweeper, roots: list[int]) -> tuple[list[int], dict[int, int]]:
    """The forward sweeping pass shared by the SAT and circuit-SAT sweepers.

    ``sweeper`` supplies the manager, the signature table and the
    ``check_constant``/``check_equal`` proofs; candidate classes come from
    phase-normalized simulation signatures, constant candidates are tried
    first, and each counterexample a check learns refines later classes.
    Returns ``(new_roots, rebuilt)`` as :meth:`SatSweeper.sweep`.
    """
    aig = sweeper.aig
    if sweeper.signatures is None:
        sweeper.signatures = SignatureTable(
            aig, roots, words=sweeper._sim_words, seed=sweeper._seed
        )
    else:
        sweeper.signatures.refresh_roots(roots)
    signatures = sweeper.signatures
    stats = sweeper.stats
    signatures.freeze()  # keys must stay comparable within this sweep
    rebuilt: dict[int, int] = {0: FALSE}
    # Candidate classes over *original* nodes; reps store the
    # phase-normalized rebuilt edge.
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
            stats.incr("constant_folds")
            continue
        # Constant candidates first (all-0/all-1 signature).
        suggested = signatures.is_candidate_constant(node)
        if suggested is not None:
            verdict = sweeper.check_constant(default, suggested)
            if verdict:
                rebuilt[node] = TRUE if suggested else FALSE
                stats.incr("constant_merges")
                continue
        phase, key = signatures.signature_key(node)
        merged = False
        candidates = reps.get(key, ())
        for normalized_rep in candidates[: sweeper.max_candidates]:
            candidate = normalized_rep ^ int(phase)
            if candidate == default:
                rebuilt[node] = default
                merged = True
                stats.incr("hash_merges")
                break
            verdict = sweeper.check_equal(default, candidate)
            if verdict:
                rebuilt[node] = candidate
                merged = True
                stats.incr("sat_merges")
                break
        if not merged:
            rebuilt[node] = default
            reps.setdefault(key, []).append(default ^ int(phase))
    new_roots = [rebuilt[e >> 1] ^ (e & 1) for e in roots]
    signatures.thaw()
    return new_roots, rebuilt


def prove_edges_equivalent(
    aig: Aig,
    a: int,
    b: int,
    conflict_budget: int | None = None,
    split_workers: int | None = None,
) -> tuple[bool | None, dict[int, bool] | None]:
    """One-shot combinational equivalence check of two edges.

    Returns ``(verdict, counterexample)``: verdict True (equal), False
    (different, with a distinguishing input assignment), or None (budget
    exhausted).

    ``split_workers`` (``None`` = off) reroutes the check through
    :func:`repro.cnc.engine.split_solve`: the XOR difference miter is
    cube-split and conquered on that many worker processes (0 keeps the
    cubes in-process) — the escape hatch for the rare merge candidate
    hard enough to dominate a sweeping session.
    """
    if a == b:
        return True, None
    if split_workers is not None:
        from repro.aig.ops import support_many, xnor
        from repro.cnc.engine import split_solve

        diff = edge_not(xnor(aig, a, b))
        if diff == FALSE:
            return True, None
        if diff == TRUE:
            return False, {n: False for n in support_many(aig, [a, b])}
        outcome = split_solve(
            aig, diff, workers=split_workers,
            conflict_budget=conflict_budget,
        )
        if outcome.verdict is SolveResult.UNSAT:
            return True, None
        if outcome.verdict is SolveResult.SAT:
            pattern = {n: False for n in support_many(aig, [a, b])}
            pattern.update(outcome.model)
            return False, pattern
        return None, None
    mapper = CnfMapper(aig, Solver())
    lit_a = mapper.lit_for(a)
    lit_b = mapper.lit_for(b)
    solver = mapper.solver
    selector = solver.new_var()
    solver.add_clause([-selector, lit_a, lit_b])
    solver.add_clause([-selector, -lit_a, -lit_b])
    result = solver.solve(
        [selector],
        conflict_budget=conflict_budget,
    )
    if result is SolveResult.UNSAT:
        return True, None
    if result is SolveResult.SAT:
        return False, mapper.model_inputs()
    return None, None
