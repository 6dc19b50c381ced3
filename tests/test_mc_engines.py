"""Engine-level tests: BMC, k-induction, all-SAT pre-image, unrolling."""

import pytest

from repro.aig.graph import TRUE, edge_not
from repro.aig.ops import support
from repro.circuits import generators as G
from repro.core.partial import PartialQuantifier
from repro.core.quantify import QuantifyOptions
from repro.core.substitution import preimage_by_substitution
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.bmc import bmc
from repro.mc.induction import k_induction
from repro.mc.preimage_sat import allsat_preimage, allsat_quantify
from repro.mc.result import Status
from repro.mc.unroll import Unroller
from repro.sat.solver import SolveResult
from tests.conftest import edges_equivalent


class TestUnroller:
    def test_frame_variables_distinct(self):
        net = G.mod_counter(3, 5)
        unroller = Unroller(net)
        f0 = unroller.frame(0)
        f1 = unroller.frame(1)
        assert set(f0.var_for_node(n) for n in net.latch_nodes).isdisjoint(
            f1.var_for_node(n) for n in net.latch_nodes
        )

    def test_transition_semantics(self):
        net = G.mod_counter(3, 5)
        unroller = Unroller(net)
        unroller.assert_initial_state()
        unroller.ensure_frames(4)
        assert unroller.solver.solve() is SolveResult.SAT
        # Frame k must hold counter value k (deterministic system).
        for k in range(4):
            state = unroller.read_state(k)
            value = sum(
                int(state[node]) << i
                for i, node in enumerate(net.latch_nodes)
            )
            assert value == k

    def test_property_literal(self):
        net = G.bug_at_depth(3)
        unroller = Unroller(net)
        unroller.assert_initial_state()
        for k in range(3):
            assert unroller.solver.solve(
                [-unroller.property_lit(k)]
            ) is SolveResult.UNSAT
        assert unroller.solver.solve(
            [-unroller.property_lit(3)]
        ) is SolveResult.SAT

    def test_state_distinct_clauses(self):
        net = G.mod_counter(2, 3)
        unroller = Unroller(net)
        unroller.assert_initial_state()
        # Frames 0..2 are distinct (0,1,2); frame 3 wraps to 0 == frame 0.
        unroller.state_distinct_clauses(0, 1)
        unroller.state_distinct_clauses(1, 2)
        assert unroller.solver.solve() is SolveResult.SAT
        unroller.state_distinct_clauses(0, 3)
        assert unroller.solver.solve() is SolveResult.UNSAT

    def test_foreign_edge_rejected(self):
        net = G.mod_counter(2, 3)
        unroller = Unroller(net)
        foreign = net.aig.add_input("foreign")
        with pytest.raises(ModelCheckingError):
            unroller.edge_lit_in(unroller.frame(0), foreign)


class TestBmc:
    def test_finds_exact_depth(self):
        for depth in (1, 4, 9):
            net = G.bug_at_depth(depth)
            result = bmc(net, max_depth=depth + 3)
            assert result.status is Status.FAILED
            assert result.trace.depth == depth
            assert result.trace.validate(net)

    def test_no_bug_within_bound(self):
        net = G.bug_at_depth(10)
        result = bmc(net, max_depth=5)
        assert result.status is Status.UNKNOWN

    def test_safe_design_unknown(self):
        net = G.mod_counter(3, 6)
        result = bmc(net, max_depth=15)
        assert result.status is Status.UNKNOWN

    @pytest.mark.parametrize("folds", [1, 2, 3])
    def test_fold_equivalence(self, folds):
        net = G.bug_at_depth(5)
        result = bmc(net, max_depth=8, preimage_folds=folds)
        assert result.status is Status.FAILED
        assert result.trace.depth == 5
        assert result.trace.validate(net)

    def test_fold_shortens_unrolling(self):
        # Each fold replaces one unrolled time frame (the point of the
        # Section 4 preprocessing: fewer frames, fewer input variables in
        # the SAT problem).
        plain = bmc(G.bug_at_depth(5), max_depth=8)
        folded = bmc(G.bug_at_depth(5), max_depth=8, preimage_folds=2)
        assert (
            folded.stats.get("frames_unrolled")
            == plain.stats.get("frames_unrolled") - 2
        )

    def test_fold_deeper_than_bug(self):
        result = bmc(G.bug_at_depth(2), max_depth=6, preimage_folds=5)
        assert result.status is Status.FAILED
        assert result.trace.depth == 2

    def test_input_dependent_violation(self):
        result = bmc(G.arbiter(3, safe=False), max_depth=3)
        assert result.status is Status.FAILED
        assert result.trace.validate(G.arbiter(3, safe=False))


class TestKInduction:
    def test_proves_inductive_invariant(self):
        result = k_induction(G.shift_register(5), max_k=5)
        assert result.status is Status.PROVED

    def test_proves_counter_invariant(self):
        result = k_induction(G.mod_counter(4, 10), max_k=6)
        assert result.status is Status.PROVED

    def test_finds_bugs(self):
        result = k_induction(G.bug_at_depth(4), max_k=8)
        assert result.status is Status.FAILED
        assert result.trace.depth == 4

    @staticmethod
    def _non_inductive_safe_netlist():
        # mod_counter(4, 10) with the *weaker* property "value < 11": safe
        # (reachable values are 0..9) but not 1-inductive, because the
        # unreachable P-state 10 steps to the NOT-P state 11.  It becomes
        # provable at k=2 since 10 has no predecessor.
        from repro.circuits.generators import _less_than_constant

        net = G.mod_counter(4, 10)
        bits = [2 * node for node in net.latch_nodes]
        net.set_property(_less_than_constant(net, bits, 11))
        net.validate()
        return net

    def test_unknown_when_k_too_small(self):
        # At k=0 the step case "P(s0) and NOT P(s1)" is satisfiable via
        # the unreachable predecessor 10 -> 11.
        result = k_induction(
            self._non_inductive_safe_netlist(), max_k=0, unique_states=False
        )
        assert result.status is Status.UNKNOWN

    def test_proved_once_k_reaches_induction_depth(self):
        # At k=1 the path needs a P-predecessor of 10, which does not
        # exist, so the property becomes provable.
        result = k_induction(
            self._non_inductive_safe_netlist(), max_k=4, unique_states=False
        )
        assert result.status is Status.PROVED
        assert result.stats.get("proved_at_k") == 1

    def test_unique_states_gives_completeness(self):
        result = k_induction(G.lfsr(4), max_k=20, unique_states=True)
        assert result.status is Status.PROVED

    def test_fold_preserves_verdicts(self):
        safe = k_induction(G.mod_counter(3, 6), max_k=8, preimage_folds=1)
        assert safe.status is Status.PROVED
        buggy = k_induction(G.bug_at_depth(3), max_k=8, preimage_folds=2)
        assert buggy.status is Status.FAILED
        assert buggy.trace.depth == 3


class TestAllSatPreimage:
    def test_matches_circuit_preimage(self):
        net = G.fifo_level(3, safe=True)
        bad = edge_not(net.property_edge)
        sat_result, stats = allsat_preimage(net, bad)
        # Reference: circuit-based quantification of the same composition.
        from repro.core.quantify import quantify_exists

        composed = preimage_by_substitution(
            net.aig, bad, net.next_functions()
        )
        reference = quantify_exists(
            net.aig, composed, net.input_nodes
        )
        nodes = net.latch_nodes + net.input_nodes
        assert edges_equivalent(net.aig, sat_result, reference.edge, nodes)

    def test_cube_count_reported(self):
        net = G.fifo_level(3, safe=True)
        bad = edge_not(net.property_edge)
        _, stats = allsat_preimage(net, bad)
        assert stats.get("cubes") >= 1

    def test_no_inputs_noop(self):
        net = G.mod_counter(3, 6)   # no primary inputs
        bad = edge_not(net.property_edge)
        result, stats = allsat_preimage(net, bad)
        assert stats.get("cubes") == 0

    def test_max_cubes_limit(self):
        net = G.arbiter(4, safe=False)
        bad = edge_not(net.property_edge)
        with pytest.raises(ResourceLimit):
            allsat_preimage(net, bad, max_cubes=0)

    def test_foreign_variable_rejected(self):
        net = G.fifo_level(2)
        bad = edge_not(net.property_edge)
        with pytest.raises(ModelCheckingError):
            allsat_preimage(net, bad, inputs_to_quantify=[99])

    def test_partial_then_allsat_combination(self):
        """Section 4: partial quantification shrinks the all-SAT job."""
        net = G.fifo_level(3, safe=True)
        aig = net.aig
        bad = edge_not(net.property_edge)
        composed = preimage_by_substitution(aig, bad, net.next_functions())
        inputs = [
            n for n in net.input_nodes if n in support(aig, composed)
        ]
        # Pure all-SAT over every input:
        pure, pure_stats = allsat_quantify(aig, composed, inputs)
        # Partial circuit quantification first:
        quantifier = PartialQuantifier(aig, growth_factor=3.0)
        outcome = quantifier.quantify(composed, inputs)
        combined, combo_stats = allsat_quantify(
            aig, outcome.edge, outcome.aborted
        )
        assert combo_stats.get("decision_vars") <= pure_stats.get(
            "decision_vars"
        )
        nodes = net.latch_nodes + net.input_nodes
        assert edges_equivalent(aig, pure, combined, nodes)
