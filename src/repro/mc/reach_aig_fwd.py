"""Forward reachability with AIG state sets and circuit quantification.

The paper's traversal is backward ("we start reachability from [the
property's] complement"), but its Section 1 motivation covers both
directions: "post-image and pre-image computations involve existential
quantification of input and state variables".  This engine is the forward
twin: starting from the initial states, post-images (the relational
product over next-state placeholders, quantifying current state *and*
input variables) are accumulated to a fix-point or until a bad state is
reached.

Forward post-image is the harder quantification workload — there is no
in-lining shortcut, so every current-state and input variable goes through
the circuit-based engine.  The T4/F1-style comparisons between this engine
and the backward one quantify exactly that asymmetry.

Counterexample traces are rebuilt by walking the stored onion rings
backwards: for each concrete state in ring ``k`` a SAT call finds a ring
``k-1`` predecessor and the driving inputs.

The manager is never compacted, so every SAT query of a run — frontier
emptiness, violation and predecessor checks — goes through one persistent
:class:`~repro.aig.cnf.CnfMapper` and encodes only nodes new to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.analysis import cone_size
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import or_, xnor
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import find_violation_inputs
from repro.sat.solver import SolveResult
from repro.util.stats import StatsBag


@dataclass
class ForwardReachOptions:
    """Configuration of the forward traversal."""

    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions.preset("full")
    )
    max_iterations: int = 10_000
    max_manager_nodes: int = 2_000_000


class ForwardReachability:
    """Breadth-first forward traversal over one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        options: ForwardReachOptions | None = None,
    ) -> None:
        netlist.validate()
        if not netlist.has_property:
            raise ModelCheckingError("forward reachability needs a property")
        self.original = netlist
        self.options = options if options is not None else ForwardReachOptions()
        self.model, _, node_map = netlist.clone()
        self._to_original = {new: old for old, new in node_map.items()}
        self.stats = StatsBag()
        self._images = ImageComputer(self.model, self.options.quantify)
        self._cnf = CnfMapper(self.model.aig)

    # ------------------------------------------------------------------ #
    # SAT helpers
    # ------------------------------------------------------------------ #

    def _violating_state(self, state_set: int) -> dict[int, bool] | None:
        """A state of ``state_set`` where the property can fail, if any.

        The violating step must itself satisfy the environment
        constraints (an unconstrained input pattern does not count).
        """
        bad = self.model.aig.and_(
            state_set, edge_not(self.model.property_edge)
        )
        bad = self.model.aig.and_(bad, self.model.constraint_edge())
        return self._satisfiable_state(bad)

    def _satisfiable_state(self, edge: int) -> dict[int, bool] | None:
        if edge == FALSE:
            return None
        mapper = self._cnf
        lit = mapper.lit_for(edge)
        if mapper.solver.solve([lit]) is not SolveResult.SAT:
            return None
        model = mapper.model_inputs()
        return {
            node: model.get(node, False) for node in self.model.latch_nodes
        }

    def _predecessor_in(
        self, source_set: int, target_state: dict[int, bool]
    ) -> tuple[dict[int, bool], dict[int, bool]]:
        """A (state, inputs) pair of ``source_set`` stepping onto the target."""
        aig = self.model.aig
        constraint = aig.and_(source_set, self.model.constraint_edge())
        for latch in self.model.latches:
            want = target_state[latch.node]
            next_edge = latch.next_edge
            constraint = aig.and_(
                constraint,
                next_edge if want else edge_not(next_edge),
            )
        mapper = self._cnf
        lit = mapper.lit_for(constraint)
        if mapper.solver.solve([lit]) is not SolveResult.SAT:
            raise ModelCheckingError(
                "onion-ring state has no predecessor (engine bug)"
            )
        model = mapper.model_inputs()
        state = {
            node: model.get(node, False) for node in self.model.latch_nodes
        }
        inputs = {
            node: model.get(node, False) for node in self.model.input_nodes
        }
        return state, inputs

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        options = self.options
        aig = self.model.aig
        init = self.model.init_state_edge()
        rings: list[int] = [init]
        reached = init
        frontier = init
        violating = self._violating_state(frontier)
        if violating is not None:
            return self._counterexample(violating, rings)
        iteration = 0
        while iteration < options.max_iterations:
            iteration += 1
            image = self._images.postimage(frontier)
            self.stats.merge(image.stats)
            new_frontier = aig.and_(image.edge, edge_not(reached))
            frontier_size = cone_size(aig, new_frontier)
            self.stats.set(f"frontier_size_{iteration}", frontier_size)
            self.stats.max("peak_frontier_size", frontier_size)
            if self._satisfiable_state(new_frontier) is None:
                self.stats.set("iterations", iteration)
                return VerificationResult(
                    status=Status.PROVED,
                    engine="reach_aig_fwd",
                    iterations=iteration,
                    stats=self.stats,
                )
            rings.append(new_frontier)
            reached = or_(aig, reached, new_frontier)
            frontier = new_frontier
            violating = self._violating_state(new_frontier)
            if violating is not None:
                self.stats.set("iterations", iteration)
                return self._counterexample(violating, rings)
            if aig.num_nodes > options.max_manager_nodes:
                raise ResourceLimit(
                    f"AIG manager exceeded {options.max_manager_nodes} nodes"
                )
        return VerificationResult(
            status=Status.UNKNOWN,
            engine="reach_aig_fwd",
            iterations=options.max_iterations,
            stats=self.stats,
        )

    # ------------------------------------------------------------------ #
    # Trace reconstruction (backwards through the onion rings)
    # ------------------------------------------------------------------ #

    def _counterexample(
        self, bad_state: dict[int, bool], rings: list[int]
    ) -> VerificationResult:
        states = [dict(bad_state)]
        inputs: list[dict[int, bool]] = []
        for ring_index in range(len(rings) - 2, -1, -1):
            predecessor, step_inputs = self._predecessor_in(
                rings[ring_index], states[0]
            )
            states.insert(0, predecessor)
            inputs.insert(0, step_inputs)
        violation = find_violation_inputs(self.model, states[-1], self._cnf)
        trace = Trace(
            states=[self._map_assignment(s) for s in states],
            inputs=[self._map_assignment(i) for i in inputs],
            violation_inputs=(
                self._map_assignment(violation)
                if violation is not None
                else None
            ),
        )
        return VerificationResult(
            status=Status.FAILED,
            engine="reach_aig_fwd",
            trace=trace,
            iterations=len(rings) - 1,
            stats=self.stats,
        )

    def _map_assignment(self, values: dict[int, bool]) -> dict[int, bool]:
        return {
            self._to_original.get(node, node): value
            for node, value in values.items()
        }


def forward_reachability(
    netlist: Netlist, options: ForwardReachOptions | None = None
) -> VerificationResult:
    """Convenience wrapper: build the forward engine and run it."""
    return ForwardReachability(netlist, options).run()
