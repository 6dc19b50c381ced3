"""Tests for forward AIG reachability (the backward engine's twin).

The forward engine must agree with the backward AIG engine and the BDD
engines on every design, and its counterexample traces must replay.
"""

import pytest

from repro.circuits import generators as G
from repro.circuits.library import handshake, s27_with_property
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError
from repro.mc.engine import verify
from repro.mc.reach_aig_fwd import (
    ForwardReachability,
    ForwardReachOptions,
    forward_reachability,
)
from repro.mc.reach_bdd import bdd_forward_reachability
from repro.mc.result import Status
from repro.obs import Tracer, probes

SAFE_DESIGNS = {
    "mod_counter_3_6": lambda: G.mod_counter(3, 6, safe=True),
    "ring_counter_4": lambda: G.ring_counter(4),
    "arbiter_3": lambda: G.arbiter(3),
    "gray_3": lambda: G.gray_counter(3),
    "handshake": lambda: handshake(True),
    "s27": s27_with_property,
}

BUGGY_DESIGNS = {
    "mod_counter_3_6_bug": lambda: G.mod_counter(3, 6, safe=False),
    "arbiter_3_bug": lambda: G.arbiter(3, safe=False),
    "handshake_bug": lambda: handshake(False),
    "bug_at_depth_4": lambda: G.bug_at_depth(4),
}


class TestVerdicts:
    @pytest.mark.parametrize("design", list(SAFE_DESIGNS))
    def test_safe_designs_proved(self, design):
        result = forward_reachability(SAFE_DESIGNS[design]())
        assert result.status is Status.PROVED
        assert result.iterations > 0

    @pytest.mark.parametrize("design", list(BUGGY_DESIGNS))
    def test_buggy_designs_failed_with_valid_trace(self, design):
        netlist = BUGGY_DESIGNS[design]()
        result = forward_reachability(netlist)
        assert result.status is Status.FAILED
        assert result.trace is not None
        assert result.trace.validate(BUGGY_DESIGNS[design]())

    @pytest.mark.parametrize("design", list(BUGGY_DESIGNS))
    def test_counterexample_depth_matches_backward_engine(self, design):
        forward = forward_reachability(BUGGY_DESIGNS[design]())
        backward = verify(BUGGY_DESIGNS[design](), method="reach_aig")
        # Both engines are breadth-first, so both find shortest traces.
        assert forward.trace.depth == backward.trace.depth

    @pytest.mark.parametrize("design", list(SAFE_DESIGNS))
    def test_agrees_with_bdd_forward(self, design):
        aig_result = forward_reachability(SAFE_DESIGNS[design]())
        bdd_result = bdd_forward_reachability(SAFE_DESIGNS[design]())
        assert aig_result.status == bdd_result.status


class TestOptionsAndErrors:
    def test_requires_property(self):
        from repro.circuits.library import s27

        with pytest.raises(ModelCheckingError):
            ForwardReachability(s27())

    def test_iteration_budget_gives_unknown(self):
        netlist = G.mod_counter(4, 12)
        result = forward_reachability(
            netlist, ForwardReachOptions(max_iterations=2)
        )
        assert result.status is Status.UNKNOWN
        assert result.iterations == 2

    def test_quantify_preset_configurable(self):
        netlist = G.mod_counter(3, 5)
        options = ForwardReachOptions(
            quantify=QuantifyOptions.preset("hash")
        )
        result = forward_reachability(netlist, options)
        assert result.status is Status.PROVED

    def test_verify_dispatch(self):
        result = verify(G.mod_counter(3, 6), method="reach_aig_fwd")
        assert result.engine == "reach_aig_fwd"
        assert result.status is Status.PROVED

    def test_stats_record_frontier_series(self):
        tracer = probes.enable(Tracer(tick=0.0))
        try:
            result = forward_reachability(G.mod_counter(3, 6))
        finally:
            probes.disable()
        sizes = [
            record.value
            for record in tracer.counters
            if record.name == "reach.frontier_size"
        ]
        assert len(sizes) == result.iterations > 1
        assert max(sizes) == result.stats.get("peak_frontier_size") > 0


class TestImmediateViolation:
    def test_initial_state_violation(self):
        from repro.circuits.netlist import Netlist

        netlist = Netlist("bad_init")
        latch = netlist.add_latch("l", init=True)
        netlist.set_next(latch, latch)
        netlist.set_property(latch ^ 1)  # NOT l: false initially
        result = forward_reachability(netlist)
        assert result.status is Status.FAILED
        assert result.trace.depth == 0

    def test_input_dependent_property(self):
        from repro.aig.graph import edge_not
        from repro.circuits.netlist import Netlist

        netlist = Netlist("input_prop")
        grant = netlist.add_input("grant")
        latch = netlist.add_latch("armed", init=False)
        netlist.set_next(latch, grant)
        # Property: never (armed AND grant) — fails at depth 1.
        netlist.set_property(
            edge_not(netlist.aig.and_(latch, grant))
        )
        result = forward_reachability(netlist)
        assert result.status is Status.FAILED
        assert result.trace.validate(netlist)
        assert result.trace.violation_inputs is not None
