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

The breadth-first loop is :func:`repro.mc.traversal.breadth_first`, shared
with the backward and BDD engines; post-images come from
:class:`~repro.core.images.ImageComputer`.

Counterexample traces are rebuilt by walking the stored onion rings
backwards: for each concrete state in ring ``k`` a SAT call finds a ring
``k-1`` predecessor and the driving inputs.

The manager is never compacted, so every SAT query of a run — frontier
emptiness, violation and predecessor checks — goes through one persistent
:class:`~repro.aig.cnf.CnfMapper` and encodes only nodes new to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.cnf import CnfMapper
from repro.aig.graph import edge_not
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError
from repro.mc.result import Trace, VerificationResult
from repro.mc.traversal import AigStateSets, breadth_first


@dataclass
class ForwardReachOptions:
    """Configuration of the forward traversal."""

    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions.preset("full")
    )
    max_iterations: int = 10_000
    max_manager_nodes: int = 2_000_000


class ForwardReachability(AigStateSets):
    """Breadth-first forward traversal over one netlist."""

    engine = "reach_aig_fwd"

    def __init__(
        self,
        netlist: Netlist,
        options: ForwardReachOptions | None = None,
    ) -> None:
        super().__init__(netlist, "forward")
        self.options = options if options is not None else ForwardReachOptions()
        self._images = ImageComputer(self.model, self.options.quantify)

    def _new_mapper(self) -> CnfMapper:
        return CnfMapper(self.model.aig)

    def run(self) -> VerificationResult:
        return breadth_first(self, self.options.max_iterations)

    def start(self) -> int:
        return self.model.init_state_edge()

    def image(self, frontier: int, iteration: int) -> int:
        image = self._images.postimage(frontier)
        self.stats.merge(image.stats)
        return image.edge

    def target_hit(self, state_set: int) -> dict[int, bool] | None:
        """A state of ``state_set`` where the property can fail, if any.

        The violating step must itself satisfy the environment
        constraints (an unconstrained input pattern does not count).
        """
        aig = self.model.aig
        bad = aig.and_(state_set, edge_not(self.model.property_edge))
        return self._satisfiable(aig.and_(bad, self.model.constraint_edge()))

    # ------------------------------------------------------------------ #
    # Trace reconstruction (backwards through the onion rings)
    # ------------------------------------------------------------------ #

    def trace(self, bad_state: dict[int, bool], rings: list[int]) -> Trace:
        states = [dict(bad_state)]
        inputs: list[dict[int, bool]] = []
        for ring_index in range(len(rings) - 2, -1, -1):
            predecessor, step_inputs = self._predecessor_in(
                rings[ring_index], states[0]
            )
            states.insert(0, predecessor)
            inputs.insert(0, step_inputs)
        return self._trace(states, inputs)

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
        model = self._solve(constraint)
        if model is None:
            raise ModelCheckingError(
                "onion-ring state has no predecessor (engine bug)"
            )
        state = {
            node: model.get(node, False) for node in self.model.latch_nodes
        }
        inputs = {
            node: model.get(node, False) for node in self.model.input_nodes
        }
        return state, inputs


def forward_reachability(
    netlist: Netlist, options: ForwardReachOptions | None = None
) -> VerificationResult:
    """Convenience wrapper: build the forward engine and run it."""
    return ForwardReachability(netlist, options).run()
