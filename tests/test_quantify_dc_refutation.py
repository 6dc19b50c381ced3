"""Counterexample refutation of input-DC candidates changes no result.

``_simplify_against`` folds every SAT counterexample of a failed input-DC
check into a packed simulation lane of its ``CareLanes`` and refutes a
later candidate that differs from its node on a care lane without calling
the solver.  The
golden values below were recorded while every candidate still went to
the solver: the final cone, the replacements, the quantification order
and the ODC counters must stay as recorded, and every check made then
is now either made or refuted (``input_dc_checks + input_dc_refuted``).
"""

import random

import pytest

from repro.aig.graph import FALSE, TRUE
from repro.circuits import combinational as C
from repro.core import QuantifyOptions, quantify_exists
from repro.core.dontcare import CareLanes, DontCareOracle
from repro.sweep.satsweep import SatSweeper


def largest_random_cone(inputs: int, gates: int, seed: int):
    """random_logic rooted at the gate with the largest cone."""
    aig, _, _ = C.random_logic(inputs, gates, seed=seed)
    node = max(aig.and_nodes(), key=lambda n: (aig.cone_and_count(2 * n), n))
    cone = set(aig.cone([2 * node]))
    return aig, [e for e in aig.input_edges if e >> 1 in cone], 2 * node


# name -> (builder, parameters, variables quantified)
QUERIES = {
    "comparator6": (C.comparator, (6,), 4),
    "comparator8": (C.comparator, (8,), 5),
    "comparator10": (C.comparator, (10,), 5),
    "adder_sum_parity5": (C.adder_sum_parity, (5,), 4),
    "adder_sum_parity6": (C.adder_sum_parity, (6,), 5),
    "random_logic_10x80": (C.random_logic, (10, 80, 3), 5),
    "random_logic_12x120": (C.random_logic, (12, 120, 7), 6),
    "random_logic_16x300": (largest_random_cone, (16, 300, 11), 6),
    "slices_4x3": (C.equality_with_constant_slices, (4, 3), 6),
    "slices_6x4": (C.equality_with_constant_slices, (6, 4), 8),
    "mux_of_variants_8": (C.mux_of_variants, (8, True), 4),
    "mux_of_variants_8_dissimilar": (C.mux_of_variants, (8, False), 5),
}


def run_query(name: str, use_odc: bool):
    build, params, k = QUERIES[name]
    aig, inputs, root = build(*params)
    rng = random.Random(name)
    variables = rng.sample([e >> 1 for e in inputs], k)
    options = QuantifyOptions.preset("full")
    options.optimize.use_odc = use_odc
    return aig, quantify_exists(aig, root, variables, options)


# (name, use_odc) -> (final AND count, input_dc_replacements, quantified
# order, input-DC SAT checks, odc_replacements, odc_checks)
RECORDED = {
    ('adder_sum_parity5', False): (0, 51, (10,), 4, 0, 0),
    ('adder_sum_parity5', True): (0, 51, (10,), 4, 0, 0),
    ('adder_sum_parity6', False): (0, 63, (6,), 4, 0, 0),
    ('adder_sum_parity6', True): (0, 63, (6,), 4, 0, 0),
    ('comparator10', False): (33, 37, (17, 16, 15, 11, 2), 51, 0, 0),
    ('comparator10', True): (33, 37, (17, 16, 15, 11, 2), 51, 0, 8),
    ('comparator6', False): (14, 23, (5, 4, 9, 2), 23, 0, 0),
    ('comparator6', True): (14, 23, (5, 4, 9, 2), 23, 0, 0),
    ('comparator8', False): (23, 43, (8, 13, 4, 9, 10), 45, 0, 0),
    ('comparator8', True): (23, 43, (8, 13, 4, 9, 10), 45, 0, 0),
    ('mux_of_variants_8', False): (0, 83, (43, 51, 50), 59, 0, 0),
    ('mux_of_variants_8', True): (0, 83, (43, 51, 50), 59, 0, 0),
    ('mux_of_variants_8_dissimilar', False):
        (25, 126, (28, 27, 19, 4), 265, 0, 0),
    ('mux_of_variants_8_dissimilar', True):
        (24, 149, (28, 27, 4, 3, 19), 295, 5, 26),
    ('random_logic_10x80', False): (1, 0, (1, 10, 6), 0, 0, 0),
    ('random_logic_10x80', True): (1, 0, (1, 10, 6), 0, 0, 0),
    ('random_logic_12x120', False): (0, 9, (3, 6), 5, 0, 0),
    ('random_logic_12x120', True): (0, 9, (3, 6), 5, 0, 0),
    ('random_logic_16x300', False): (2, 1, (6, 5), 0, 0, 0),
    ('random_logic_16x300', True): (2, 1, (6, 5), 0, 0, 0),
    ('slices_4x3', False): (5, 26, (9, 10, 12, 5, 8, 2), 22, 0, 0),
    ('slices_4x3', True): (5, 26, (9, 10, 12, 5, 8, 2), 22, 0, 0),
    ('slices_6x4', False): (15, 56, (11, 5, 1, 2, 3, 17, 13, 15), 51, 0, 0),
    ('slices_6x4', True): (15, 56, (11, 5, 1, 2, 3, 17, 13, 15), 51, 0, 0),
}


@pytest.mark.parametrize(
    "name,use_odc", sorted(RECORDED), ids=str
)
def test_results_match_recorded(name, use_odc):
    aig, outcome = run_query(name, use_odc)
    stats = outcome.stats
    final, replaced, order, checks, odc_replaced, odc_checks = RECORDED[
        (name, use_odc)
    ]
    assert aig.cone_and_count(outcome.edge) == final
    assert stats.get("input_dc_replacements") == replaced
    assert tuple(outcome.quantified) == order
    assert (
        stats.get("input_dc_checks") + stats.get("input_dc_refuted") == checks
    )
    assert stats.get("odc_replacements") == odc_replaced
    assert stats.get("odc_checks") == odc_checks


@pytest.mark.parametrize(
    "name", ["comparator8", "comparator10", "mux_of_variants_8_dissimilar"]
)
def test_every_refuted_candidate_fails_its_sat_check(monkeypatch, name):
    refuted: list[tuple] = []
    refutes = CareLanes.refutes

    def recording(self, care, original, replacement):
        verdict = refutes(self, care, original, replacement)
        if verdict:
            refuted.append((self.plan, care, original, replacement))
        return verdict

    monkeypatch.setattr(CareLanes, "refutes", recording)
    aig, outcome = run_query(name, False)
    assert refuted
    assert len(refuted) == outcome.stats.get("input_dc_refuted")
    oracle = DontCareOracle(aig, SatSweeper(aig))
    for _, care, original, replacement in refuted:
        model: dict[int, bool] = {}
        assert (
            oracle.valid_under_input_dc(care, original, replacement, model)
            is False
        )
        assert model


def test_counterexample_written_only_on_sat_answer():
    aig, inputs, _ = C.comparator(4)
    a, b = inputs[:2]
    sweeper = SatSweeper(aig)
    untouched: dict[int, bool] = {}
    # Structurally constant: decided without a solver call.
    assert sweeper.check_constant(aig.and_(a, a ^ 1), False, untouched)
    assert sweeper.check_constant(TRUE, False, untouched) is False
    # UNSAT: no model either.
    unsat = aig.and_(aig.and_(a, b), a ^ 1)
    assert sweeper.check_constant(unsat, False, untouched)
    assert untouched == {}
    model: dict[int, bool] = {}
    assert sweeper.check_constant(aig.and_(a, b), False, model) is False
    assert model[a >> 1] and model[b >> 1]


def test_only_care_lanes_refute():
    aig, inputs, _ = C.comparator(2)
    a, b = inputs[:2]
    node = aig.and_(a, b)
    care = a ^ 1  # the reference is ``a``; its onset is don't-care
    lanes = CareLanes(aig, a, node, words=1, seed=0)
    assert not lanes.refutes(care, node, b)
    # Outside care: node and FALSE differ, but that does not count.
    lanes.add({a >> 1: True, b >> 1: True})
    assert not lanes.refutes(care, node, FALSE)
    assert not lanes.refutes(care, node, b)
    # Inside care: node == 0 while b == 1.
    lanes.add({a >> 1: False, b >> 1: True})
    assert lanes.refutes(care, node, b)
    assert lanes.refutes(care, node ^ 1, b ^ 1)
    assert not lanes.refutes(care, node, FALSE)
