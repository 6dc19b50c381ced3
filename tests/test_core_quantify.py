"""Tests for circuit-based quantifier elimination — the paper's core.

Correctness oracle throughout: existential quantification computed on
canonical BDDs must agree with every preset of the circuit-based engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import and_all, or_, support, xor
from repro.bdd.from_aig import aig_to_bdd
from repro.bdd.manager import BddManager
from repro.circuits.combinational import (
    comparator,
    equality_with_constant_slices,
    mux_tree,
    parity,
    random_logic,
    ripple_adder,
)
from repro.core.merge import MergeOptions, merge_cofactors
from repro.core.partial import PartialQuantifier
from repro.core.quantify import (
    QuantifyOptions,
    quantify_exists,
    quantify_exists_one,
    quantify_forall,
)
from repro.errors import AigError
from repro.sweep.satsweep import SatSweeper
from tests.conftest import build_random_aig

PRESETS = ("shannon", "hash", "bdd", "sat", "full")


def bdd_reference_exists(aig, root, input_edges, quantified_nodes):
    manager = BddManager()
    var_map = {}
    for index, edge in enumerate(input_edges):
        manager.new_var()
        var_map[edge >> 1] = index
    bdd = aig_to_bdd(aig, root, manager, var_map)
    return manager, var_map, manager.exists(
        bdd, [var_map[n] for n in quantified_nodes]
    )


def assert_quantification_correct(aig, root, input_edges, quantified, preset):
    manager, var_map, reference = bdd_reference_exists(
        aig, root, input_edges, quantified
    )
    outcome = quantify_exists(
        aig, root, quantified, QuantifyOptions.preset(preset)
    )
    got = aig_to_bdd(aig, outcome.edge, manager, var_map)
    assert got == reference, preset
    return outcome


class TestCorrectnessAcrossPresets:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_random_logic(self, preset):
        aig, inputs, root = random_logic(6, 25, seed=41)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:3]], preset
        )

    @pytest.mark.parametrize("preset", PRESETS)
    def test_comparator(self, preset):
        aig, inputs, root = comparator(4)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:3]], preset
        )

    @pytest.mark.parametrize("preset", PRESETS)
    def test_parity(self, preset):
        aig, inputs, root = parity(6)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:2]], preset
        )

    def test_adder(self):
        aig, inputs, root = ripple_adder(4)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:4]], "full"
        )

    def test_mux_tree(self):
        aig, inputs, root = mux_tree(2)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:2]], "full"
        )

    def test_slices(self):
        aig, inputs, root = equality_with_constant_slices(3, 2)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:2]], "full"
        )


class TestAlgebraicIdentities:
    def test_quantified_vars_leave_support(self):
        aig, inputs, root = build_random_aig(5, 30, seed=42)
        target = inputs[1] >> 1
        outcome = quantify_exists(aig, root, [target])
        assert target not in support(aig, outcome.edge)

    def test_exists_of_independent_var_is_noop(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        outcome = quantify_exists(aig, f, [c >> 1])
        assert outcome.edge == f
        assert outcome.quantified == []

    def test_exists_or_distribution(self):
        # exists x (f OR g) == (exists x f) OR (exists x g)
        aig, inputs, f = build_random_aig(4, 15, seed=43)
        _, _, g_root = build_random_aig(4, 15, seed=44)
        # Rebuild g inside the same manager over the same inputs.
        import random as _random

        rng = _random.Random(44)
        nodes = list(inputs)
        for _ in range(15):
            x = rng.choice(nodes) ^ rng.randint(0, 1)
            y = rng.choice(nodes) ^ rng.randint(0, 1)
            nodes.append(aig.and_(x, y))
        g = nodes[-1] ^ rng.randint(0, 1)
        var = inputs[0] >> 1
        combined = quantify_exists(aig, or_(aig, f, g), [var]).edge
        separate = or_(
            aig,
            quantify_exists(aig, f, [var]).edge,
            quantify_exists(aig, g, [var]).edge,
        )
        from tests.conftest import edges_equivalent

        assert edges_equivalent(
            aig, combined, separate, [e >> 1 for e in inputs]
        )

    def test_forall_duality(self):
        aig, inputs, root = build_random_aig(4, 20, seed=45)
        var = inputs[2] >> 1
        forall = quantify_forall(aig, root, [var]).edge
        exists_not = edge_not(
            quantify_exists(aig, edge_not(root), [var]).edge
        )
        from tests.conftest import edges_equivalent

        assert edges_equivalent(
            aig, forall, exists_not, [e >> 1 for e in inputs]
        )

    def test_quantify_constant(self):
        aig = Aig()
        a = aig.add_input()
        assert quantify_exists(aig, TRUE, [a >> 1]).edge == TRUE
        assert quantify_exists(aig, FALSE, [a >> 1]).edge == FALSE

    def test_quantify_all_vars_gives_constant(self):
        aig, inputs, root = build_random_aig(4, 20, seed=46)
        outcome = quantify_exists(aig, root, [e >> 1 for e in inputs])
        assert outcome.edge in (TRUE, FALSE)
        # exists-all is TRUE iff the function is satisfiable.
        from repro.aig.simulate import truth_table

        satisfiable = truth_table(aig, root, [e >> 1 for e in inputs]) != 0
        assert (outcome.edge == TRUE) == satisfiable

    def test_unknown_preset_rejected(self):
        with pytest.raises(AigError):
            QuantifyOptions.preset("magic")

    def test_stats_reported(self):
        aig, inputs, root = build_random_aig(5, 25, seed=47)
        outcome = quantify_exists(aig, root, [inputs[0] >> 1])
        assert "final_size" in outcome.stats
        assert outcome.stats.get("vars_quantified") >= 0


class TestSweeperStats:
    """A shared sweeper's counters are reported once per call."""

    @pytest.mark.parametrize("preset", ["sat", "full"])
    def test_fresh_sweeper_counters_reported_once(self, preset):
        aig, inputs, root = comparator(5)
        sweeper = SatSweeper(aig)
        outcome = quantify_exists(
            aig, root, [e >> 1 for e in inputs[:6]],
            QuantifyOptions.preset(preset), sweeper=sweeper,
        )
        assert sweeper.stats.get("sat_checks") > 0
        for key, value in sweeper.stats:
            assert outcome.stats.get(key) == value, key

    def test_reused_sweeper_reports_the_call_delta(self):
        aig, inputs, root = comparator(5)
        variables = [e >> 1 for e in inputs[:6]]
        sweeper = SatSweeper(aig)
        options = QuantifyOptions.preset("full")
        quantify_exists(aig, root, variables[:3], options, sweeper=sweeper)
        before = sweeper.stats.as_dict()
        outcome = quantify_exists(
            aig, root ^ 1, variables, options, sweeper=sweeper
        )
        gained = {
            key: value - before.get(key, 0) for key, value in sweeper.stats
        }
        assert gained["sat_checks"] > 0
        for key, value in gained.items():
            assert outcome.stats.get(key) == value, key

    def test_partial_quantifier_counters_reported_once(self):
        aig, inputs, root = comparator(5)
        sweeper = SatSweeper(aig)
        quantifier = PartialQuantifier(
            aig, QuantifyOptions.preset("full"), sweeper=sweeper
        )
        outcome = quantifier.quantify(root, [e >> 1 for e in inputs[:6]])
        assert sweeper.stats.get("sat_checks") > 0
        for key, value in sweeper.stats:
            assert outcome.stats.get(key) == value, key


class TestMergePhase:
    def test_merge_orders_equivalent_results(self):
        aig, inputs, root = equality_with_constant_slices(3, 2)
        var = inputs[0] >> 1
        from repro.aig.ops import cofactor

        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        for order in ("backward", "forward"):
            c0, c1, stats = merge_cofactors(
                aig, cof0, cof1, MergeOptions(order=order)
            )
            from tests.conftest import edges_equivalent

            nodes = [e >> 1 for e in inputs]
            assert edges_equivalent(aig, c0, cof0, nodes)
            assert edges_equivalent(aig, c1, cof1, nodes)

    def test_invalid_order_rejected(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        with pytest.raises(AigError):
            merge_cofactors(aig, a, b, MergeOptions(order="sideways"))

    def test_backward_cheaper_on_similar_cofactors(self):
        # The T3 shape claim in miniature: similar cofactors need fewer
        # SAT checks backward than forward.
        aig, inputs, root = equality_with_constant_slices(4, 3)
        var = inputs[0] >> 1
        from repro.aig.ops import cofactor

        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        _, _, backward_stats = merge_cofactors(
            aig, cof0, cof1,
            MergeOptions(order="backward", use_bdd_sweep=False),
        )
        _, _, forward_stats = merge_cofactors(
            aig, cof0, cof1,
            MergeOptions(order="forward", use_bdd_sweep=False),
        )
        assert backward_stats.get("merge_sat_checks") <= forward_stats.get(
            "merge_sat_checks"
        )


class TestSizeContainment:
    def test_full_no_worse_than_shannon_on_families(self):
        for build, args in (
            (comparator, (5,)),
            (ripple_adder, (5,)),
            (equality_with_constant_slices, (3, 3)),
        ):
            aig_s, inputs_s, root_s = build(*args)
            shannon = quantify_exists(
                aig_s, root_s,
                [e >> 1 for e in inputs_s[:4]],
                QuantifyOptions.preset("shannon"),
            )
            aig_f, inputs_f, root_f = build(*args)
            full = quantify_exists(
                aig_f, root_f,
                [e >> 1 for e in inputs_f[:4]],
                QuantifyOptions.preset("full"),
            )
            assert aig_f.cone_and_count(full.edge) <= aig_s.cone_and_count(
                shannon.edge
            )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_quantified=st.integers(min_value=1, max_value=3),
    preset=st.sampled_from(["shannon", "hash", "full"]),
)
def test_quantification_matches_bdd_property(seed, num_quantified, preset):
    aig, inputs, root = build_random_aig(4, 18, seed=seed)
    quantified = [e >> 1 for e in inputs[:num_quantified]]
    assert_quantification_correct(aig, root, inputs, quantified, preset)
