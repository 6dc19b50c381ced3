"""Existential quantification over circuit-based state sets (Section 2).

``exists x . f`` is computed as ``f|x=0 OR f|x=1``.  Unmitigated, each
variable can double the circuit, so the engine interleaves

* the **merge phase** — structural hashing, optional BDD sweeping,
  SAT-based checks in forward or backward order (:mod:`repro.core.merge`);
* the **optimization phase** — cofactor-vs-cofactor don't-care
  simplification and optional rewriting (:mod:`repro.core.optimize`).

``QuantifyOptions.preset`` builds the ablation ladder the benchmarks sweep:
``"shannon"`` (nothing but hashing-free expansion), ``"hash"``, ``"bdd"``,
``"sat"`` and ``"full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.aig.graph import Aig
from repro.aig.ops import cofactor, or_, support
from repro.aig.simulate import cone_plan
from repro.core.merge import MergeOptions, merge_cofactors
from repro.core.optimize import OptimizeOptions, optimize_disjunction
from repro.core.schedule import get_scheduler
from repro.errors import AigError
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class QuantifyOptions:
    """Configuration of one quantification run."""

    merge: MergeOptions = field(default_factory=MergeOptions)
    optimize: OptimizeOptions = field(default_factory=OptimizeOptions)
    use_merge: bool = True
    use_optimize: bool = True
    # Variable-ordering heuristic; see repro.core.schedule for choices.
    schedule: str = "min_dependence"

    @classmethod
    def preset(cls, name: str) -> "QuantifyOptions":
        """The ablation ladder used throughout the experiments.

        - ``shannon``: bare Shannon expansion (cofactors still share the
          manager, so constant folding applies, but no merging effort);
        - ``hash``: structural-hash merging only;
        - ``bdd``: hash + BDD sweeping;
        - ``sat``: hash + SAT merging;
        - ``full``: hash + BDD + SAT merging + don't-care optimization.
        """
        if name == "shannon":
            return cls(use_merge=False, use_optimize=False)
        if name == "hash":
            return cls(
                merge=MergeOptions(use_bdd_sweep=False, use_sat_merge=False),
                use_optimize=False,
            )
        if name == "bdd":
            return cls(
                merge=MergeOptions(use_bdd_sweep=True, use_sat_merge=False),
                use_optimize=False,
            )
        if name == "sat":
            return cls(
                merge=MergeOptions(use_bdd_sweep=False, use_sat_merge=True),
                use_optimize=False,
            )
        if name == "full":
            return cls()
        raise AigError(f"unknown quantification preset: {name!r}")


@dataclass
class QuantifyOutcome:
    """Result of quantifying a set of variables."""

    edge: int
    quantified: list[int]
    stats: StatsBag

    @property
    def size(self) -> int:
        return int(self.stats.get("final_size"))


def quantify_exists_one(
    aig: Aig,
    edge: int,
    var_node: int,
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
    stats: StatsBag | None = None,
) -> int:
    """``exists var . edge`` for a single input variable."""
    if options is None:
        options = QuantifyOptions()
    if stats is None:
        stats = StatsBag()
    cache: dict[int, int] = {}
    cof0 = cofactor(aig, edge, var_node, False, cache)
    cof1 = cofactor(aig, edge, var_node, True)
    stats.incr("vars_quantified")
    if cof0 == cof1:
        # Variable was not semantically in the support.
        stats.incr("independent_vars")
        return cof0
    if options.use_merge:
        cof0, cof1, merge_stats = merge_cofactors(
            aig, cof0, cof1, options.merge, sweeper=sweeper
        )
        stats.merge(merge_stats)
    if options.use_optimize:
        result, opt_stats = optimize_disjunction(
            aig, cof0, cof1, sweeper=sweeper, options=options.optimize
        )
        stats.merge(opt_stats)
    else:
        result = or_(aig, cof0, cof1)
    return result


def _and_count(aig: Aig, edge: int) -> int:
    return len(cone_plan(aig, (edge,)).ops)


def quantify_exists(
    aig: Aig,
    edge: int,
    variables: Iterable[int],
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
    order: Sequence[int] | None = None,
) -> QuantifyOutcome:
    """``exists {vars} . edge`` — quantifies one variable at a time.

    Variables outside the structural support are skipped (already
    quantified for free).  ``options.schedule`` picks the next variable at
    every step — by default the greedy minimum-dependence order, which
    keeps intermediate results small (see :mod:`repro.core.schedule`).

    ``order`` overrides the dynamic scheduler with a precomputed static
    order (e.g. one slice of a partitioned-image plan from
    :func:`repro.core.schedule.schedule_variable_order`); variables not
    mentioned in ``order`` fall back to caller order.

    Support, AND counts and the scheduler's dependence costs all read the
    one cached cone plan of the current edge.
    """
    if options is None:
        options = QuantifyOptions()
    stats = StatsBag()
    stats.set("initial_size", _and_count(aig, edge))
    if sweeper is None and (options.use_merge or options.use_optimize):
        sweeper = SatSweeper(aig)
    sweeper_before = sweeper.stats.as_dict() if sweeper is not None else {}
    scheduler = get_scheduler(options.schedule)
    remaining = [v for v in dict.fromkeys(variables)]
    remaining_set = set(remaining)
    plan = (
        [v for v in dict.fromkeys(order) if v in remaining_set]
        if order is not None
        else None
    )
    current = edge
    quantified: list[int] = []
    while remaining:
        present = support(aig, current)
        remaining = [v for v in remaining if v in present]
        if not remaining:
            break
        if plan is not None:
            plan = [v for v in plan if v in remaining]
            var = plan[0] if plan else remaining[0]
        else:
            var = scheduler(aig, current, remaining)
        remaining.remove(var)
        current = quantify_exists_one(
            aig, current, var, options, sweeper=sweeper, stats=stats
        )
        quantified.append(var)
        stats.max("peak_size", _and_count(aig, current))
    if sweeper is not None:
        stats.merge_since(sweeper.stats, sweeper_before)
    stats.set("final_size", _and_count(aig, current))
    return QuantifyOutcome(edge=current, quantified=quantified, stats=stats)


def quantify_forall(
    aig: Aig,
    edge: int,
    variables: Iterable[int],
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
) -> QuantifyOutcome:
    """``forall {vars} . edge``  ==  ``NOT exists {vars} . NOT edge``."""
    outcome = quantify_exists(aig, edge ^ 1, variables, options, sweeper)
    return QuantifyOutcome(
        edge=outcome.edge ^ 1,
        quantified=outcome.quantified,
        stats=outcome.stats,
    )


