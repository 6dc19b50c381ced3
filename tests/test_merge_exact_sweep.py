"""An exact BDD sweep leaves the SAT merge stage nothing to find.

A ``bdd_sweep`` with no cut point and no skipped complement gives every
node of the rebuilt cones its canonical BDD over primary inputs, so no
two of them are equal or complementary functions.  Backward pairwise
merging and forward SAT sweeping must then find nothing, which is why
``merge_cofactors`` skips its SAT stage after such a sweep.  With cut
points the SAT stage still runs.
"""

import pytest

from repro.aig.ops import cofactor
from repro.circuits import combinational as C
from repro.core.merge import MergeOptions, merge_cofactors
from repro.sweep.bddsweep import bdd_sweep
from repro.sweep.satsweep import SatSweeper
from tests.conftest import build_random_aig, edges_equivalent

FAMILIES = {
    "comparator6": lambda: C.comparator(6),
    "adder_sum_parity5": lambda: C.adder_sum_parity(5),
    "random_logic_12x120": lambda: C.random_logic(12, 120, seed=7),
    "slices_4x3": lambda: C.equality_with_constant_slices(4, 3),
    "mux_of_variants_6": lambda: C.mux_of_variants(6, True),
    "mux_of_variants_6_dissimilar": lambda: C.mux_of_variants(6, False),
}
FAMILIES.update(
    {
        f"random_{seed}": (lambda seed=seed: build_random_aig(8, 60, seed))
        for seed in range(8)
    }
)


def cofactor_pairs(name):
    """(aig, input nodes, cof0, cof1) for the first three inputs."""
    aig, inputs, root = FAMILIES[name]()
    nodes = [e >> 1 for e in inputs]
    for var in nodes[:3]:
        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        if cof0 != cof1:
            yield aig, nodes, cof0, cof1


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sat_stage_finds_nothing_after_exact_sweep(name):
    pairs = 0
    for aig, _, cof0, cof1 in cofactor_pairs(name):
        (swept0, swept1), _, bdd_stats = bdd_sweep(aig, [cof0, cof1])
        assert bdd_stats.get("cut_points") == 0
        assert bdd_stats.get("complement_skipped") == 0
        pairs += 1

        backward = SatSweeper(aig)
        new1, merge_map = backward.merge_pair_backward(swept0, swept1)
        assert merge_map == {} and new1 == swept1

        forward = SatSweeper(aig)
        roots, rebuilt = forward.sweep([swept0, swept1])
        assert roots == [swept0, swept1]
        assert all(edge == 2 * node for node, edge in rebuilt.items())
        for key in ("sat_merges", "constant_merges", "hash_merges"):
            assert forward.stats.get(key) == 0

        for order in ("backward", "forward"):
            merged0, merged1, stats = merge_cofactors(
                aig, cof0, cof1, MergeOptions(order=order)
            )
            assert (merged0, merged1) == (swept0, swept1)
            assert stats.get("merge_sat_checks") == 0
            assert stats.get("sat_merge_skipped") == 1
    assert pairs


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_sat_stage_runs_after_cut_points(order):
    checks = 0
    for name in ("comparator6", "mux_of_variants_6_dissimilar", "random_3"):
        for aig, nodes, cof0, cof1 in cofactor_pairs(name):
            merged0, merged1, stats = merge_cofactors(
                aig, cof0, cof1, MergeOptions(order=order, bdd_node_limit=8)
            )
            assert stats.get("cut_points") > 0
            assert "sat_merge_skipped" not in stats
            assert "merge_sat_checks" in stats
            checks += stats.get("merge_sat_checks")
            assert edges_equivalent(aig, merged0, cof0, nodes)
            assert edges_equivalent(aig, merged1, cof1, nodes)
    assert checks > 0


def test_sat_merge_off_is_not_a_skip():
    for aig, _, cof0, cof1 in cofactor_pairs("comparator6"):
        _, _, stats = merge_cofactors(
            aig, cof0, cof1, MergeOptions(use_sat_merge=False)
        )
        assert "sat_merge_skipped" not in stats
        assert "merge_sat_checks" not in stats
