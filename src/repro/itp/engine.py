"""Interpolation-based unbounded model checking (McMillan, CAV 2003).

The paper's traversal quantifies images out of circuits; this engine gets
its over-approximate images for free from SAT refutations instead.  One
round at unrolling depth ``k``:

* pose ``R(V0) AND T(V0,V1)`` (partition A) against
  ``T(V1..Vk) AND (bad(V1) OR ... OR bad(Vk))`` (partition B) in one
  proof-logging CDCL solver, reusing :class:`repro.mc.unroll.Unroller`
  for the time-frame expansion;
* UNSAT: the (A, B) interpolant of the refutation is a state set over
  the frame-1 latches that contains the image of ``R`` and excludes
  every state within ``k-1`` steps of a violation.  Accumulate it into
  ``R``; when an interpolant implies the accumulated set, the fix-point
  is an inductive invariant excluding bad — PROVED, with no BDDs and no
  explicit quantification anywhere;
* SAT with ``R`` still the initial states: a real counterexample, read
  straight off the model and replay-validated upstream;
* SAT with a widened ``R``: spurious (an artifact of over-approximation)
  — restart with a deeper unrolling, which tightens the interpolants.

Every refutation can be replayed through the independent checker
(``check_proofs``, on by default), and every interpolant differentially
validated against the DPLL oracle (``verify_interpolants``, expensive,
for tests).
"""

from __future__ import annotations

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, TRUE, edge_not
from repro.aig.ops import or_
from repro.circuits.netlist import Netlist
from repro.itp.interpolant import extract_interpolant, verify_interpolant
from repro.itp.options import ItpOptions
from repro.itp.proof import ResolutionProof
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import initial_violation
from repro.mc.unroll import Unroller
from repro.obs import probes as _obs
from repro.sat.solver import SolveResult, Solver
from repro.util.stats import StatsBag


def interpolation_reachability(
    netlist: Netlist, options: ItpOptions | None = None
) -> VerificationResult:
    """Prove or refute an invariant by interpolant iteration."""
    if options is None:
        options = ItpOptions()
    netlist.validate()
    stats = StatsBag()
    trace0 = initial_violation(netlist, stats)
    if trace0 is not None:
        return VerificationResult(
            status=Status.FAILED, engine="itp", trace=trace0,
            iterations=0, stats=stats,
        )
    iterations = 0
    depth = 1
    while depth <= options.max_depth:
        stats.set("itp_depth", depth)
        with _obs.span("itp.round", "engine", depth=depth) as round_span:
            verdict, trace, spent = _itp_round(
                netlist, depth, options, stats
            )
            round_span.set(verdict=verdict, iterations=spent)
        iterations += spent
        if verdict == "proved":
            return VerificationResult(
                status=Status.PROVED, engine="itp",
                iterations=iterations, stats=stats,
            )
        if verdict == "failed":
            return VerificationResult(
                status=Status.FAILED, engine="itp", trace=trace,
                iterations=iterations, stats=stats,
            )
        if depth == options.max_depth:
            break
        depth = min(2 * depth, options.max_depth)
    return VerificationResult(
        status=Status.UNKNOWN, engine="itp",
        iterations=iterations, stats=stats,
    )


def _itp_round(
    netlist: Netlist, depth: int, options: ItpOptions, stats: StatsBag
) -> tuple[str, Trace | None, int]:
    """One fixed-depth round; returns ``(verdict, trace, iterations)``.

    The verdict is ``proved``, ``failed``, or ``deepen`` (a spurious hit
    or the iteration cap: retry with a larger unrolling).
    """
    aig = netlist.aig
    latch_nodes = netlist.latch_nodes
    bad = edge_not(netlist.property_edge)
    reach = netlist.init_state_edge()
    iterations = 0
    while iterations < options.max_iterations:
        iterations += 1
        solver = Solver(proof=True)
        unroller = Unroller(netlist, solver, assert_constraints=False)
        # Partition A: R(V0) AND C(V0) AND T(V0, V1).  Its only variables
        # shared with B are the frame-1 latches (and the constant var),
        # so the interpolant lands directly on a state set.
        unroller.ensure_frames(2)
        unroller.constrain_frame(0)
        solver.add_clause(
            [unroller.edge_lit_in(unroller.frame(0), reach)]
        )
        split = len(solver.proof)
        # Partition B: T(V1..Vk) and "some frame violates".  Constraints
        # at frames >= 1 must NOT be asserted as units: a violation at
        # frame j whose bad state has no constraint-satisfying successor
        # (a dead-end) would otherwise be unreachable in the query and
        # the engine would wrongly prove.  Instead each frame gets a
        # one-directional selector implying "bad here AND constraints
        # hold on every frame up to here".
        unroller.ensure_frames(depth + 1)
        violation_lits = _encode_violations(netlist, unroller, bad, depth)
        solver.add_clause(violation_lits)
        stats.incr("sat_calls")
        stats.set("cnf_vars", solver.num_vars)
        outcome = solver.solve()
        if outcome is SolveResult.SAT:
            if iterations == 1:
                return (
                    "failed",
                    _trace_from_model(netlist, unroller, violation_lits),
                    iterations,
                )
            stats.incr("spurious_hits")
            return "deepen", None, iterations
        proof = ResolutionProof.from_solver(solver)
        stats.set("proof_nodes", float(len(proof)))
        if options.check_proofs:
            proof.check_refutation()
            stats.incr("proofs_checked")
        frame1 = unroller.frame(1)
        var_edge = {
            frame1.var_for_node(node): 2 * node for node in latch_nodes
        }
        if unroller.const_var is not None:
            var_edge[unroller.const_var] = FALSE
        with _obs.span("itp.interpolant", "engine", depth=depth,
                       iteration=iterations) as itp_span:
            interpolant = extract_interpolant(proof, split, aig, var_edge)
            interpolant_nodes = float(aig.cone_and_count(interpolant))
            itp_span.set(nodes=interpolant_nodes)
        stats.set("interpolant_nodes", interpolant_nodes)
        if _obs.ENABLED:
            # Interpolant growth per iteration is the engine's own
            # convergence signal; sample it unconditionally of the tick.
            _obs.current_tracer().sample("itp.interpolant_nodes",
                                         interpolant_nodes)
        if options.verify_interpolants:
            cnf_a, cnf_b = proof.partition(split)
            width = max(cnf_a.num_vars, cnf_b.num_vars, solver.num_vars)
            cnf_a.num_vars = cnf_b.num_vars = width
            verify_interpolant(aig, interpolant, cnf_a, cnf_b, var_edge)
            stats.incr("interpolants_verified")
        if not _edge_satisfiable(aig, aig.and_(interpolant,
                                               edge_not(reach)), stats):
            # The over-approximation closed: reach is inductive and
            # excludes every bad state.
            stats.set("reach_nodes", float(aig.cone_and_count(reach)))
            return "proved", None, iterations
        reach = or_(aig, reach, interpolant)
        if _obs.ENABLED:
            _obs.sample("itp.reach_nodes", aig.cone_and_count(reach))
    return "deepen", None, iterations


def _encode_violations(
    netlist: Netlist, unroller: Unroller, bad: int, depth: int
) -> list[int]:
    """Selector literals, one per frame: "the property fails at frame j
    and the environment constraints hold at frames 1..j".

    Implication only (selector -> violation), which is all the big
    disjunction needs; the suffix frames past j stay unconstrained, so
    dead-end counterexamples survive.  Without constraints the selectors
    are simply the per-frame bad literals.
    """
    solver = unroller.solver
    if not netlist.constraints:
        return [
            unroller.edge_lit_in(unroller.frame(j), bad)
            for j in range(1, depth + 1)
        ]
    selectors = []
    prefix: int | None = None  # "constraints hold at frames 1..j"
    for j in range(1, depth + 1):
        frame = unroller.frame(j)
        guard = solver.new_var()
        for edge in netlist.constraints:
            solver.add_clause([-guard, unroller.edge_lit_in(frame, edge)])
        if prefix is not None:
            solver.add_clause([-guard, prefix])
        prefix = guard
        selector = solver.new_var()
        solver.add_clause([-selector, unroller.edge_lit_in(frame, bad)])
        solver.add_clause([-selector, prefix])
        selectors.append(selector)
    return selectors


def _edge_satisfiable(aig, edge: int, stats: StatsBag) -> bool:
    if edge == FALSE:
        return False
    if edge == TRUE:
        return True
    mapper = CnfMapper(aig, Solver())
    stats.incr("sat_calls")
    return mapper.solver.solve([mapper.lit_for(edge)]) is SolveResult.SAT


def _trace_from_model(
    netlist: Netlist, unroller: Unroller, violation_lits: list[int]
) -> Trace:
    """Read a concrete counterexample off a satisfying unrolling."""
    solver = unroller.solver
    depth = next(
        j
        for j, lit in enumerate(violation_lits, start=1)
        if solver.lit_true(lit)
    )
    states = [unroller.read_state(j) for j in range(depth + 1)]
    inputs = [unroller.read_inputs(j) for j in range(depth)]
    return Trace(
        states=states,
        inputs=inputs,
        violation_inputs=unroller.read_inputs(depth),
    )
