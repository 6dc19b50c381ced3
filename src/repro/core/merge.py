"""Merge-phase orchestration for cofactor pairs (Section 2.1).

Given the two cofactors of a Shannon expansion, maximize sub-circuit
sharing before taking their disjunction.  Three engines run in the paper's
order — structural hashing (implicit), BDD sweeping, SAT checks — and the
SAT stage supports both processing directions the paper compares:

* ``backward``: try to prove output-region pairs equivalent first and stop
  descending on success (wins when the cofactors are similar);
* ``forward``: sweep the union of both cones from the inputs up, learning
  merges as it goes (wins when cofactors are dissimilar — behaves like
  BDD sweeping).

The SAT stage runs only after an *inexact* BDD sweep.  A sweep that ends
with no cut point and no skipped complement has given every node of both
cones its canonical BDD over primary inputs, so functionally equal or
complementary nodes are already one AIG node: SAT merging cannot find
anything and is skipped (counted as ``sat_merge_skipped``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.graph import Aig
from repro.errors import AigError
from repro.sweep.bddsweep import bdd_sweep
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class MergeOptions:
    """Configuration of the merge phase."""

    use_bdd_sweep: bool = True
    use_sat_merge: bool = True
    order: str = "backward"          # "backward" | "forward"
    bdd_node_limit: int = 2000
    sat_conflict_budget: int = 3000
    sim_words: int = 4


def merge_cofactors(
    aig: Aig,
    cof0: int,
    cof1: int,
    options: MergeOptions | None = None,
    sweeper: SatSweeper | None = None,
) -> tuple[int, int, StatsBag]:
    """Run the merge phase on a cofactor pair; returns merged edges + stats.

    The counters of ``sweeper`` are reported only when this call built it;
    a shared sweeper's counters belong to the caller.
    """
    if options is None:
        options = MergeOptions()
    if options.order not in ("backward", "forward"):
        raise AigError(f"unknown merge order: {options.order!r}")
    stats = StatsBag()
    exact = False
    if options.use_bdd_sweep:
        (cof0, cof1), _, bdd_stats = bdd_sweep(
            aig, [cof0, cof1], node_limit=options.bdd_node_limit
        )
        stats.merge(bdd_stats)
        exact = not (
            bdd_stats.get("cut_points") or bdd_stats.get("complement_skipped")
        )
    if options.use_sat_merge and exact:
        stats.incr("sat_merge_skipped")
        stats.set("merge_sat_checks", 0)
    elif options.use_sat_merge:
        own_sweeper = sweeper is None
        if own_sweeper:
            sweeper = SatSweeper(
                aig,
                conflict_budget=options.sat_conflict_budget,
                sim_words=options.sim_words,
            )
        checks_before = sweeper.stats.get("sat_checks")
        if options.order == "backward":
            cof1, _ = sweeper.merge_pair_backward(cof0, cof1)
        else:
            (cof0, cof1), _ = sweeper.sweep([cof0, cof1])
        if own_sweeper:
            stats.merge(sweeper.stats)
        stats.set(
            "merge_sat_checks", sweeper.stats.get("sat_checks") - checks_before
        )
    return cof0, cof1, stats
