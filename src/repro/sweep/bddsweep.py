"""BDD sweeping (step 2 of the merge phase, after Kuehlmann-Krohm [4]).

BDDs are built bottom-up for every node of the target cones inside a
node-budgeted manager.  Two nodes whose BDDs coincide (directly or as
complements) are *provably* equivalent — canonicity makes the check free —
and merge immediately.  When a node's BDD construction blows the budget,
the node becomes a *cut point*: it gets a fresh BDD variable and
construction continues above it.  Equality of BDDs over cut variables still
implies functional equivalence (the cut variable can be re-substituted by
the common function), so merging stays sound; inequality however proves
nothing, which is why SAT checks follow as step 3.

Without cut points (and with every complement stored) the sweep is
*exact*: all BDDs are over primary inputs only, so unequal BDDs prove
inequivalence and the rebuilt cones hold no two nodes with equal or
complementary functions.  The stats report ``cut_points`` and
``complement_skipped``; when both are zero a later SAT stage can merge
nothing (:func:`repro.core.merge.merge_cofactors` skips it).
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, Aig
from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.errors import BddLimitExceeded
from repro.util.stats import StatsBag


def bdd_sweep(
    aig: Aig,
    roots: list[int],
    node_limit: int = 5000,
) -> tuple[list[int], dict[int, int], StatsBag]:
    """Sweep the cones of ``roots`` by bounded BDD construction.

    Returns ``(new_roots, rebuilt, stats)``: ``rebuilt`` maps original
    nodes to representative edges in the same AIG manager.
    """
    stats = StatsBag()
    manager = BddManager(max_nodes=node_limit)
    # BDD variables for primary inputs are allocated on demand; cut points
    # get fresh variables as well.
    bdd_of_input: dict[int, int] = {}
    rebuilt: dict[int, int] = {0: FALSE}
    node_bdd: dict[int, int] = {0: BDD_FALSE}
    # Canonical BDD -> representative AIG edge.  Store both phases so that
    # antivalent nodes merge through a complemented edge.
    representative: dict[int, int] = {BDD_FALSE: FALSE, BDD_TRUE: TRUE}

    def fresh_var_for(node: int) -> int:
        var_bdd = manager.new_var()
        bdd_of_input[node] = var_bdd
        return var_bdd

    for node in aig.cone(roots):
        if aig.is_input(node):
            rebuilt[node] = 2 * node
            bdd = fresh_var_for(node)
            node_bdd[node] = bdd
            representative.setdefault(bdd, 2 * node)
            try:
                representative.setdefault(manager.not_(bdd), 2 * node + 1)
            except BddLimitExceeded:
                stats.incr("complement_skipped")
            continue
        f0, f1 = aig.fanins(node)
        default = aig.and_(
            rebuilt[f0 >> 1] ^ (f0 & 1),
            rebuilt[f1 >> 1] ^ (f1 & 1),
        )
        if default in (FALSE, TRUE):
            rebuilt[node] = default
            node_bdd[node] = BDD_FALSE if default == FALSE else BDD_TRUE
            stats.incr("constant_folds")
            continue
        b0 = node_bdd[f0 >> 1]
        b1 = node_bdd[f1 >> 1]
        try:
            if f0 & 1:
                b0 = manager.not_(b0)
            if f1 & 1:
                b1 = manager.not_(b1)
            bdd = manager.and_(b0, b1)
        except BddLimitExceeded:
            # Too big: this node becomes a cut point with a fresh variable.
            stats.incr("cut_points")
            bdd = fresh_var_for(node)
        node_bdd[node] = bdd
        existing = representative.get(bdd)
        if existing is not None:
            if existing != default:
                stats.incr("bdd_merges")
            rebuilt[node] = existing
            continue
        rebuilt[node] = default
        representative[bdd] = default
        try:
            representative.setdefault(manager.not_(bdd), default ^ 1)
        except BddLimitExceeded:
            stats.incr("complement_skipped")
    stats.set("bdd_nodes", manager.num_nodes)
    new_roots = [rebuilt[e >> 1] ^ (e & 1) for e in roots]
    return new_roots, rebuilt, stats
