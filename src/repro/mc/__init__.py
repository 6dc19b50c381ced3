"""Model-checking engines.

The paper's contribution is the traversal of :mod:`repro.mc.reach_aig` —
breadth-first *backward* reachability with AIG state sets and circuit-based
quantification.  Its loop lives in :mod:`repro.mc.traversal`, shared by the
forward AIG engine and both BDD engines.  Everything else here is a
baseline or a combination target named in the paper:

* :mod:`repro.mc.reach_bdd` — classical BDD reachability (the canonical
  representation whose memory explosion motivates the work);
* :mod:`repro.mc.bmc` — bounded model checking (Biere et al. [1]);
* :mod:`repro.mc.induction` — k-induction (Sheeran et al. [5]);
* :mod:`repro.mc.preimage_sat` — all-solutions SAT pre-image with circuit
  cofactoring (Ganai et al. [2]), optionally fed by partial quantification
  exactly as Section 4 proposes.

:func:`repro.mc.engine.verify` dispatches them behind one interface.
"""

from repro.mc.result import (
    InvariantCertificate,
    Status,
    Trace,
    VerificationResult,
)
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.reach_aig_fwd import ForwardReachability, ForwardReachOptions
from repro.mc.reach_bdd import (
    BddReachOptions,
    bdd_backward_reachability,
    bdd_forward_reachability,
)
from repro.mc.bmc import BmcOptions, bmc
from repro.mc.induction import KInductionOptions, k_induction
from repro.mc.preimage_sat import allsat_preimage
from repro.mc.engine import verify
from repro.mc.minimize import MinimizedTrace, minimize_trace

__all__ = [
    "InvariantCertificate",
    "Status",
    "Trace",
    "VerificationResult",
    "BackwardReachability",
    "ReachOptions",
    "ForwardReachability",
    "ForwardReachOptions",
    "BddReachOptions",
    "bdd_backward_reachability",
    "bdd_forward_reachability",
    "BmcOptions",
    "bmc",
    "KInductionOptions",
    "k_induction",
    "allsat_preimage",
    "verify",
    "MinimizedTrace",
    "minimize_trace",
]
