"""McMillan interpolant extraction from resolution refutations.

Given a refutation of ``A AND B``, walk the proof DAG once and annotate
every clause with a partial interpolant, built directly as AIG nodes
(structural hashing de-duplicates shared subterms for free):

* an A axiom contributes the disjunction of its literals whose variable
  also occurs in B (its "global" literals);
* a B axiom contributes TRUE;
* a resolution on a pivot local to A disjoins the two annotations, any
  other pivot conjoins them.

The empty clause's annotation is the interpolant ``I``: a formula over
the shared variables with ``A implies I`` and ``I AND B`` unsatisfiable —
exactly an over-approximate image when A is "now" and B is "the future".
:func:`verify_interpolant` checks both properties differentially against
the deliberately simple DPLL oracle, so neither the CDCL solver nor the
extraction is trusted on its own.
"""

from __future__ import annotations

from typing import Mapping

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import or_, support
from repro.errors import ProofError
from repro.itp.proof import ResolutionProof
from repro.sat.cnf import CNF
from repro.sat.dpll import DpllSolver
from repro.sat.solver import SolveResult, Solver


def extract_interpolant(
    proof: ResolutionProof,
    split: int,
    aig: Aig,
    var_edge: Mapping[int, int],
) -> int:
    """The McMillan interpolant of a refutation, as an AIG edge.

    ``split`` partitions the axioms: ids below it form A, the rest form
    B.  ``var_edge`` maps every shared DIMACS variable (one occurring in
    both partitions) to the AIG edge standing for it; a shared variable
    without a mapping is an error, an unused mapping is fine.
    """
    if proof.root is None:
        raise ProofError("cannot interpolate: proof has no refutation root")
    b_vars: set[int] = set()
    for index in proof.axiom_ids():
        if index >= split:
            b_vars.update(abs(lit) for lit in proof.literals[index])

    def lit_edge(lit: int) -> int:
        edge = var_edge.get(abs(lit))
        if edge is None:
            raise ProofError(
                f"shared variable {abs(lit)} has no AIG edge mapping"
            )
        return edge_not(edge) if lit < 0 else edge

    annotations: dict[int, int] = {}
    for index in proof.antecedent_cone(proof.root):
        chain = proof.chains[index]
        if not chain:
            if index < split:
                annotations[index] = _or_shared(
                    aig, proof.literals[index], b_vars, lit_edge
                )
            else:
                annotations[index] = TRUE
            continue
        current = annotations[chain[0]]
        for antecedent, pivot, _ in proof.resolution_steps(index):
            other = annotations[antecedent]
            if abs(pivot) in b_vars:
                current = aig.and_(current, other)
            else:
                current = or_(aig, current, other)
        annotations[index] = current
    return annotations[proof.root]


def _or_shared(aig: Aig, literals, b_vars, lit_edge) -> int:
    result = FALSE
    for lit in literals:
        if abs(lit) in b_vars:
            result = or_(aig, result, lit_edge(lit))
    return result


def verify_interpolant(
    aig: Aig,
    itp_edge: int,
    cnf_a: CNF,
    cnf_b: CNF,
    var_edge: Mapping[int, int],
    oracle: str = "dpll",
) -> bool:
    """Differentially check an interpolant against its (A, B) partition.

    Verifies the two defining properties — ``A AND NOT I`` and
    ``I AND B`` are both unsatisfiable — with the reference DPLL solver
    (``oracle="cdcl"`` swaps in a fresh CDCL instance for larger
    partitions), and that I's support stays within the mapped shared
    variables.  Raises :class:`ProofError` on any violation; returns
    ``True`` so callers can assert on it directly.

    A shared variable mapped to a *constant* edge declares that the
    query pins it (the Tseitin constant variable, whose ``[-var]`` unit
    lives in only one partition); the extraction cofactored I under
    that value, so both checks evaluate under it too — otherwise the
    side without the pin axiom would be checked weaker than it really
    is and a sound interpolant could be rejected.
    """
    node_var = {
        edge >> 1: var
        for var, edge in var_edge.items()
        if edge not in (TRUE, FALSE)
    }
    pinned = [
        var if edge == TRUE else -var
        for var, edge in var_edge.items()
        if edge in (TRUE, FALSE)
    ]
    unmapped = support(aig, itp_edge) - set(node_var)
    if unmapped:
        raise ProofError(
            f"interpolant support escapes the shared variables: "
            f"nodes {sorted(unmapped)}"
        )

    def unsatisfiable(cnf: CNF) -> bool:
        if oracle == "dpll":
            return not DpllSolver(cnf).solve()
        return Solver(cnf).solve() is SolveResult.UNSAT

    def with_interpolant(cnf: CNF, negate: bool) -> CNF:
        check = cnf.copy()
        for unit in pinned:
            check.add_clause([unit])
        lit = CnfMapper(aig, check, node_var).lit_for(itp_edge)
        check.add_clause([-lit if negate else lit])
        return check

    if not unsatisfiable(with_interpolant(cnf_a, negate=True)):
        raise ProofError("A does not imply the interpolant")
    if not unsatisfiable(with_interpolant(cnf_b, negate=False)):
        raise ProofError("the interpolant does not contradict B")
    return True
