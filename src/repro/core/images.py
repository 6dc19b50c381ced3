"""Pre-image and post-image over AIG state sets (Section 3 support).

``ImageComputer`` binds a netlist to a quantification strategy:

* **pre-image** uses the in-lining rule — compose the next-state functions
  into the state set (no quantifier for next-state variables at all) —
  then existentially quantifies the primary inputs with the circuit-based
  engine;
* **post-image** builds the relational product with next-state placeholder
  variables and quantifies both current state and inputs.  By default the
  product is *partitioned*: the ``y_k == delta_k`` conjuncts are conjoined
  in the order chosen by :func:`repro.core.schedule.schedule_variable_order`
  and every variable is quantified as soon as no later conjunct depends on
  it — the same plan vocabulary the BDD engine's scheduled image uses
  (:func:`repro.core.schedule.plan_partitioned_quantification`).  Set
  ``schedule_image=False`` (or ``partial=True``, which needs the whole
  product for residual bookkeeping) for the monolithic
  conjoin-then-quantify pipeline.

The reachability engines of :mod:`repro.mc.traversal` take their images
from here: ``reach_aig_fwd`` its post-images, ``reach_aig`` its
pre-images through :meth:`ImageComputer.substitute` and
:meth:`ImageComputer.quantify` (so its all-SAT modes can take over the
quantification), as do bmc and k-induction for their pre-image folds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.graph import Aig
from repro.aig.ops import and_all, compose, support, xnor
from repro.circuits.netlist import Netlist
from repro.core.partial import PartialOutcome, PartialQuantifier
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.core.schedule import (
    plan_partitioned_quantification,
    schedule_variable_order,
)
from repro.core.substitution import preimage_by_substitution
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class ImageResult:
    """An image computation outcome."""

    edge: int
    quantified: list[int]
    residual: list[int]          # inputs left unquantified (partial mode)
    stats: StatsBag


class ImageComputer:
    """Pre/post-image engine over one netlist.

    With ``partial=True`` the input quantification aborts expensive
    variables and reports them in ``ImageResult.residual`` — the hook that
    experiment T6/T7 use to hand residual variables to SAT engines.
    The netlist must be valid (:meth:`Netlist.validate`); the engines
    check that once per run, before building their image computer.
    """

    def __init__(
        self,
        netlist: Netlist,
        options: QuantifyOptions | None = None,
        partial: bool = False,
        growth_factor: float = 2.0,
        share_solver: bool = True,
        schedule_image: bool = True,
    ) -> None:
        self.netlist = netlist
        self.aig: Aig = netlist.aig
        self.options = options if options is not None else QuantifyOptions()
        self.partial = partial
        self.growth_factor = growth_factor
        self.schedule_image = schedule_image
        self._sweeper: SatSweeper | None = (
            SatSweeper(self.aig) if share_solver else None
        )
        self._next_functions = netlist.next_functions()
        self._placeholders: dict[int, int] | None = None
        # (constraints, plan) for the scheduled product — the transition
        # relation is invariant across calls, only the state set changes.
        self._image_plan: tuple[list[int], list] | None = None

    # ------------------------------------------------------------------ #
    # Pre-image
    # ------------------------------------------------------------------ #

    def preimage(self, state_set: int) -> ImageResult:
        """States with *some constrained* input leading into ``state_set``.

        In-lining first (cost: one compose), then input quantification.
        Environment constraints are conjoined before quantifying, so the
        result is ``exists i . C(s, i) AND S(delta(s, i))``.
        """
        composed = self.substitute(state_set)
        return self.quantify(composed, self.input_support(composed))

    def substitute(self, state_set: int) -> int:
        """``C(s, i) AND S(delta(s, i))``: the pre-image before quantifying."""
        composed = preimage_by_substitution(
            self.aig, state_set, self._next_functions
        )
        return self.aig.and_(composed, self.netlist.constraint_edge())

    def input_support(self, edge: int) -> list[int]:
        """The primary inputs ``edge`` reads, in netlist order."""
        inputs = self.netlist.input_nodes
        if not inputs:
            return []           # no cone walk for an input-free netlist
        present = support(self.aig, edge)
        return [node for node in inputs if node in present]

    # ------------------------------------------------------------------ #
    # Post-image
    # ------------------------------------------------------------------ #

    def _next_placeholders(self) -> dict[int, int]:
        if self._placeholders is None:
            self._placeholders = {}
            for latch in self.netlist.latches:
                edge = self.aig.add_input(f"next_{latch.name}")
                self._placeholders[latch.node] = edge >> 1
        return self._placeholders

    def postimage(self, state_set: int) -> ImageResult:
        """States reachable from ``state_set`` in one step.

        Relational product: ``exists s, i . S(s) AND AND_k (y_k == delta_k)``
        followed by renaming y back to the state variables.  Unless
        ``schedule_image`` is off (or ``partial`` is on), the product is
        conjoined partition by partition with early quantification along
        the shared image-scheduling plan.
        """
        placeholders = self._next_placeholders()
        constraints = [
            xnor(self.aig, 2 * placeholders[node], fn)
            for node, fn in self._next_functions.items()
        ]
        constraints.append(self.netlist.constraint_edge())
        if self.schedule_image and not self.partial:
            result = self._scheduled_product(state_set, constraints)
        else:
            product = self.aig.and_(state_set, and_all(self.aig, constraints))
            to_quantify = [
                node
                for node in (
                    self.netlist.latch_nodes + self.netlist.input_nodes
                )
                if node in support(self.aig, product)
            ]
            result = self.quantify(product, to_quantify)
        renamed = compose(
            self.aig,
            result.edge,
            {y: 2 * node for node, y in placeholders.items()},
        )
        return ImageResult(
            edge=renamed,
            quantified=result.quantified,
            residual=result.residual,
            stats=result.stats,
        )

    def _scheduled_product(
        self, state_set: int, constraints: list[int]
    ) -> ImageResult:
        """Partitioned relational product with early quantification.

        The conjuncts are folded into the product along the
        :func:`~repro.core.schedule.plan_partitioned_quantification` plan;
        each plan step hands its freed variables to the circuit-based
        quantifier at once, so no variable ever waits for conjuncts it does
        not depend on.  The plan depends only on the transition relation,
        so it is computed once and reused across traversal steps.
        """
        aig = self.aig
        if self._image_plan is None:
            # The full structural conjunction is cheap on AIGs; it only
            # seeds the scheduling heuristics, the product never builds it.
            relation = and_all(aig, constraints)
            # Every current-state/input variable is a candidate — one the
            # relation ignores is freed in the plan's first step and costs
            # nothing unless the state set happens to read it.
            candidates = (
                self.netlist.latch_nodes + self.netlist.input_nodes
            )
            order = schedule_variable_order(
                aig, relation, candidates, self.options.schedule
            )
            candidate_set = set(candidates)
            supports = [
                support(aig, term) & candidate_set for term in constraints
            ]
            self._image_plan = (
                list(constraints),
                plan_partitioned_quantification(order, supports),
            )
        constraints, plan = self._image_plan
        stats = StatsBag()
        product = state_set
        quantified: list[int] = []
        for step in plan:
            for index in step.conjoin:
                product = aig.and_(product, constraints[index])
            if step.quantify:
                outcome = quantify_exists(
                    aig,
                    product,
                    step.quantify,
                    self.options,
                    sweeper=self._sweeper,
                    order=step.quantify,
                )
                product = outcome.edge
                quantified.extend(outcome.quantified)
                stats.merge(outcome.stats)
        return ImageResult(
            edge=product, quantified=quantified, residual=[], stats=stats
        )

    # ------------------------------------------------------------------ #
    # Shared quantification entry
    # ------------------------------------------------------------------ #

    def quantify(self, edge: int, variables: list[int]) -> ImageResult:
        """``exists variables . edge``, partial when ``partial`` is on."""
        if self.partial:
            quantifier = PartialQuantifier(
                self.aig,
                options=self.options,
                growth_factor=self.growth_factor,
                sweeper=self._sweeper,
            )
            outcome: PartialOutcome = quantifier.quantify(edge, variables)
            return ImageResult(
                edge=outcome.edge,
                quantified=outcome.quantified,
                residual=outcome.aborted,
                stats=outcome.stats,
            )
        full = quantify_exists(
            self.aig, edge, variables, self.options, sweeper=self._sweeper
        )
        return ImageResult(
            edge=full.edge,
            quantified=full.quantified,
            residual=[],
            stats=full.stats,
        )
