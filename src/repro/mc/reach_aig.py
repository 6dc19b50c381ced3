"""Backward reachability with AIG state sets (Section 3 of the paper).

"We modify standard breadth-first reachability in order to exploit circuit
based quantification.  Given an invariant property P we start reachability
from its complement and we terminate as soon as no newly reached states are
found (fix-point) or we intersect the initial state set, delivering a
counter-example.  In our implementation all state sets are represented and
manipulated using AIGs instead of BDDs.  Operations on AIGs, e.g.,
equivalence, are performed using a SAT engine."

The breadth-first loop itself is :func:`repro.mc.traversal.breadth_first`,
shared with the forward and BDD engines; this module supplies its AIG
state sets.  The engine keeps a private clone of the netlist and takes
its pre-images from a :class:`~repro.core.images.ImageComputer` —
in-lining, then circuit-based input quantification (partial in the
hybrid mode) — and keeps only the all-SAT elimination itself (the whole
pre-image in the all-SAT mode, the hybrid residual of Section 4).  It
checks frontier emptiness and init intersection with SAT, and
periodically compacts its manager, rebuilding the image computer on the
new working copy.

All SAT checks on one working model — frontier emptiness, init
intersection and the violating inputs of a counterexample — share one
persistent :class:`~repro.aig.cnf.CnfMapper`, so each check encodes only
the nodes no earlier check reached ("we load the clause database once and
for-all").  Compaction renumbers every node, so it drops that mapper and
the next check starts a fresh one on the new working copy.  The checks
pass their query as an assumption and never add permanent clauses other
than Tseitin definitions; all-SAT pre-images, whose blocking clauses would
poison later checks, keep their own solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.analysis import cone_size
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError
from repro.mc.preimage_sat import allsat_quantify
from repro.mc.result import Trace, VerificationResult
from repro.mc.trace import concretize_suffix
from repro.mc.traversal import AigStateSets, breadth_first


@dataclass
class ReachOptions:
    """Configuration of the backward traversal."""

    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions.preset("full")
    )
    # "circuit": full circuit quantification (the paper's core method);
    # "allsat": pure SAT enumeration (the Ganai et al. baseline);
    # "hybrid": partial circuit quantification, all-SAT on the residual
    #           (the Section 4 combination).
    input_elimination: str = "circuit"
    partial_growth_factor: float = 2.0
    max_iterations: int = 10_000
    compact_every: int = 4          # manager compaction period (iterations)
    max_manager_nodes: int = 2_000_000
    allsat_max_cubes: int | None = None
    # Functionally reduce the live state sets at each compaction (FRAIG):
    # recovers merges the per-step pipeline missed, at one sweep's cost.
    fraig_compaction: bool = False


class BackwardReachability(AigStateSets):
    """The paper's traversal routine over one netlist.

    Rings are distance layers: ``rings[k]`` holds the states at backward
    distance ``k`` from the violation, ring 0 the bad states.
    """

    engine = "reach_aig"

    def __init__(
        self, netlist: Netlist, options: ReachOptions | None = None
    ) -> None:
        super().__init__(netlist, "backward")
        self.options = options if options is not None else ReachOptions()
        if self.options.input_elimination not in ("circuit", "allsat", "hybrid"):
            raise ModelCheckingError(
                f"unknown input elimination mode: "
                f"{self.options.input_elimination!r}"
            )
        self._images = self._image_computer()
        self._init = self._bad = FALSE

    def _new_mapper(self) -> CnfMapper:
        return CnfMapper(self.model.aig)

    def _image_computer(self) -> ImageComputer:
        # No shared solver: each pre-image quantification opens its own
        # sweeper.  The hybrid mode quantifies partially.
        return ImageComputer(
            self.model,
            self.options.quantify,
            partial=self.options.input_elimination == "hybrid",
            growth_factor=self.options.partial_growth_factor,
            share_solver=False,
        )

    # ------------------------------------------------------------------ #
    # Pre-image with the configured input elimination
    # ------------------------------------------------------------------ #

    def _eliminate_inputs(self, edge: int) -> int:
        """Existentially remove primary inputs per the configured mode."""
        inputs = self._images.input_support(edge)
        if not inputs:
            return edge
        mode = self.options.input_elimination
        if mode == "allsat":
            return self._allsat(edge, inputs)
        image = self._images.quantify(edge, inputs)
        self.stats.merge(image.stats)
        if mode == "circuit":
            return image.edge
        # hybrid: partial circuit quantification, residual to all-SAT.
        self.stats.incr("hybrid_residual_vars", len(image.residual))
        if not image.residual:
            return image.edge
        return self._allsat(image.edge, image.residual)

    def _allsat(self, edge: int, inputs: list[int]) -> int:
        result, sat_stats = allsat_quantify(
            self.model.aig, edge, inputs, max_cubes=self.options.allsat_max_cubes
        )
        self.stats.merge(sat_stats)
        return result

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        return breadth_first(self, self.options.max_iterations)

    def start(self) -> int:
        model = self.model
        # The bad *states*: inputs of an input-dependent property are
        # existentially quantified away so every layer is a pure state set.
        # The violating step must itself satisfy the constraints.
        self._bad = self._eliminate_inputs(
            model.aig.and_(edge_not(model.property_edge), model.constraint_edge())
        )
        self._init = model.init_state_edge()
        return self._bad

    def image(self, frontier: int, iteration: int) -> int:
        return self._eliminate_inputs(self._images.substitute(frontier))

    def measure(self, new: int, reached: int) -> None:
        super().measure(new, reached)
        self.stats.max("peak_reached_size", cone_size(self.model.aig, reached))

    def target_hit(self, state_set: int) -> dict[int, bool] | None:
        """An initial state inside ``state_set``, if any."""
        return self._satisfiable(self.model.aig.and_(self._init, state_set))

    def trace(self, start_state: dict[int, bool], layers: list[int]) -> Trace:
        """Walk the initial state down the distance layers to the bug."""
        suffix_states, inputs = concretize_suffix(self.model, start_state, layers)
        return self._trace([dict(start_state)] + suffix_states, inputs)

    def upkeep(
        self, iteration: int, rings: list[int], reached: int
    ) -> tuple[list[int], int]:
        every = self.options.compact_every
        if every and iteration % every == 0:
            rings, reached = self._compact(rings, reached)
        return super().upkeep(iteration, rings, reached)

    def _compact(
        self, layers: list[int], reached: int
    ) -> tuple[list[int], int]:
        """Shrink the working manager, transferring the live state sets."""
        before = self.model.aig.num_nodes
        # The frontier (the last layer) is listed twice: the FRAIG
        # signatures and the clone's node numbering follow this root order.
        extras = list(layers) + [reached, layers[-1], self._init, self._bad]
        if self.options.fraig_compaction:
            from repro.sweep.fraig import fraig_in_place

            extras, fraig_stats = fraig_in_place(self.model.aig, extras)
            self.stats.incr(
                "fraig_nodes_recovered",
                fraig_stats.get("size_before") - fraig_stats.get("size_after"),
            )
        new_model, moved, node_map = self.model.clone(extras)
        self.model = new_model
        self._cnf = None        # node ids changed: the old encoding is stale
        self._images = self._image_computer()
        # Chain the original-node mapping through the new clone.
        self._to_original = {
            new: self._to_original.get(old, old)
            for old, new in node_map.items()
        }
        self.stats.incr("compactions")
        self.stats.incr("compaction_nodes_freed", before - new_model.aig.num_nodes)
        n = len(layers)
        self._init, self._bad = moved[n + 2], moved[n + 3]
        return list(moved[:n]), moved[n]


def backward_reachability(
    netlist: Netlist, options: ReachOptions | None = None
) -> VerificationResult:
    """Convenience wrapper: build the engine and run it."""
    return BackwardReachability(netlist, options).run()
