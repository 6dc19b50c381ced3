"""Merge-phase engines (Section 2.1 of the paper).

Three escalating ways to find merge points between the cofactor circuits:

1. structural hashing — free, courtesy of the AIG manager's hash-consing
   ("we exploit AIG semi-canonicity and hashing scheme to early detect
   functionally equivalent map points");
2. BDD sweeping — canonical BDDs under a node budget, cut points past it
   (:mod:`repro.sweep.bddsweep`, after Kuehlmann-Krohm [4]);
3. SAT-based checks for the remaining compare points, factorized inside a
   single incremental solver (:mod:`repro.sweep.satsweep`).  Only a BDD
   sweep that left cut points has remaining compare points: an exact one
   (no cut point, no skipped complement) has already merged every pair of
   equal or complementary nodes, so the merge phase skips this step.

Simulation signatures (:mod:`repro.sweep.signatures`) pre-filter candidate
pairs for the SAT engine, and every SAT counterexample refines the
signatures — "any SAT solver solution thus potentially rules-out several
non matching couples".  The don't-care optimization applies the same rule
to its own checks: :meth:`SatSweeper.check_constant` hands the model back
to the caller, which refutes later candidates by simulating it.
"""

from repro.sweep.signatures import SignatureTable
from repro.sweep.satsweep import SatSweeper, prove_edges_equivalent
from repro.sweep.circuitsweep import CircuitSweeper
from repro.sweep.bddsweep import bdd_sweep
from repro.sweep.engine import sweep_edges, SweepResult
from repro.sweep.fraig import fraig, fraig_in_place, fraig_netlist, FraigResult

__all__ = [
    "SignatureTable",
    "SatSweeper",
    "CircuitSweeper",
    "prove_edges_equivalent",
    "bdd_sweep",
    "sweep_edges",
    "fraig",
    "fraig_in_place",
    "fraig_netlist",
    "FraigResult",
    "SweepResult",
]
