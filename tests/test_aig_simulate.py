"""Tests for bit-parallel simulation and truth tables."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import or_, xor
from repro.aig.simulate import (
    RandomLanes,
    cone_plan,
    eval_edge,
    simulate,
    simulate_nodes,
    truth_table,
)
import repro
from repro.errors import AigError
from tests.conftest import build_random_aig


class TestEval:
    def test_and_gate(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        an, bn = a >> 1, b >> 1
        assert eval_edge(aig, f, {an: True, bn: True})
        assert not eval_edge(aig, f, {an: True, bn: False})

    def test_complement_edge(self):
        aig = Aig()
        a = aig.add_input()
        assert eval_edge(aig, edge_not(a), {a >> 1: False})

    def test_constants(self):
        aig = Aig()
        assert eval_edge(aig, TRUE, {})
        assert not eval_edge(aig, FALSE, {})

    def test_missing_inputs_default_false(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = or_(aig, a, b)
        assert not eval_edge(aig, f, {})


WORD = (1 << 64) - 1


class TestSimulate:
    def test_matches_eval_on_words(self):
        aig, inputs, root = build_random_aig(5, 30, seed=11)
        lanes = RandomLanes(3).draw(aig.inputs, 2)
        out = simulate(aig, lanes, [root], (1 << 128) - 1)[root]
        # Check lane 17 of the first word against scalar evaluation.
        bit = 17
        assignment = {
            node: bool(lane >> bit & 1) for node, lane in lanes.items()
        }
        assert bool(out >> bit & 1) == eval_edge(aig, root, assignment)

    def test_lanes_wider_than_mask_rejected(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        with pytest.raises(AigError):
            simulate(aig, {a >> 1: 0, b >> 1: 1 << 64}, [f], WORD)
        with pytest.raises(AigError):
            simulate_nodes(aig, {a >> 1: -1}, [f], WORD)

    def test_complement_output(self):
        aig = Aig()
        a = aig.add_input()
        out = simulate(aig, {a >> 1: WORD}, [a, edge_not(a)], WORD)
        assert out[a] == 0xFFFFFFFFFFFFFFFF
        assert out[edge_not(a)] == 0

    def test_simulate_nodes_covers_cone(self):
        aig, inputs, root = build_random_aig(4, 15, seed=12)
        lanes = RandomLanes(1).draw(aig.inputs, 1)
        values = simulate_nodes(aig, lanes, [root], WORD)
        for node in aig.cone([root]):
            assert node in values

    def test_random_lanes_pack_the_seeded_words(self):
        # Word k of the numpy draw is lanes 64k..64k+63, inputs in the
        # order given, one generator stream across draws.
        import numpy as np

        rng = np.random.default_rng(5)
        expected = [
            [int(w) for w in rng.integers(0, 2**64, size=2, dtype=np.uint64)]
            for _ in range(3)
        ]
        source = RandomLanes(5)
        first = source.draw([7, 3], 2)
        second = source.draw([9], 2)
        got = [first[7], first[3], second[9]]
        for lane, (low, high) in zip(got, expected):
            assert lane == low | high << 64

    def test_plan_lists_the_last_root_cone_first(self):
        aig, inputs, root = build_random_aig(5, 30, seed=4)
        other = aig.and_(inputs[0], edge_not(inputs[1]))
        plan = cone_plan(aig, [other, root])
        prefix = plan.nodes[1:plan.pos[root >> 1] + 1]
        assert prefix == aig.cone([root])
        assert plan.nodes[1:] == aig.cone([other, root])


class TestTruthTable:
    def test_known_function(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        assert truth_table(aig, f, [a >> 1, b >> 1]) == 0b1000

    def test_input_order_matters(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, edge_not(b))
        forward = truth_table(aig, f, [a >> 1, b >> 1])
        backward = truth_table(aig, f, [b >> 1, a >> 1])
        assert forward == 0b0010
        assert backward == 0b0100

    def test_matches_exhaustive_eval(self):
        aig, inputs, root = build_random_aig(4, 20, seed=13)
        nodes = [e >> 1 for e in inputs]
        mask = truth_table(aig, root, nodes)
        for row, values in enumerate(itertools.product([False, True], repeat=4)):
            # row bit k corresponds to input k value.
            assignment = {nodes[k]: bool((row >> k) & 1) for k in range(4)}
            assert bool((mask >> row) & 1) == eval_edge(aig, root, assignment)

    def test_wide_tables_span_words(self):
        # 7 inputs = 128 rows = 2 simulation words.
        aig = Aig()
        xs = aig.add_inputs(7)
        acc = FALSE
        for x in xs:
            acc = xor(aig, acc, x)
        mask = truth_table(aig, acc, [x >> 1 for x in xs])
        for row in (0, 1, 127):
            expected = bin(row).count("1") % 2 == 1
            assert bool((mask >> row) & 1) == expected

    def test_too_many_inputs_rejected(self):
        aig = Aig()
        xs = aig.add_inputs(17)
        with pytest.raises(AigError):
            truth_table(aig, xs[0], [x >> 1 for x in xs])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_simulation_consistency_property(seed):
    """64 parallel patterns agree with 64 scalar evaluations."""
    aig, inputs, root = build_random_aig(3, 12, seed=seed)
    lanes = RandomLanes(seed).draw(aig.inputs, 1)
    out = simulate(aig, lanes, [root], WORD)[root]
    for bit in range(0, 64, 17):
        assignment = {
            node: bool(lane >> bit & 1) for node, lane in lanes.items()
        }
        assert bool(out >> bit & 1) == eval_edge(aig, root, assignment)


def test_numpy_is_imported_only_by_the_simulation_module():
    """Lanes are packed ints everywhere; numpy only draws seeded patterns."""
    root = Path(repro.__file__).parent
    importers = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if re.search(r"^\s*(import|from) numpy\b", path.read_text(), re.M)
    )
    assert importers == ["aig/simulate.py"]
