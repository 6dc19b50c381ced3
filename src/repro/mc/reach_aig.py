"""Backward reachability with AIG state sets (Section 3 of the paper).

"We modify standard breadth-first reachability in order to exploit circuit
based quantification.  Given an invariant property P we start reachability
from its complement and we terminate as soon as no newly reached states are
found (fix-point) or we intersect the initial state set, delivering a
counter-example.  In our implementation all state sets are represented and
manipulated using AIGs instead of BDDs.  Operations on AIGs, e.g.,
equivalence, are performed using a SAT engine."

The engine keeps a private clone of the netlist, computes pre-images by
in-lining + circuit-based input quantification (or all-SAT / the hybrid
partial+all-SAT combination of Section 4), checks frontier emptiness and
init intersection with SAT, and periodically compacts its manager.

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
from repro.aig.ops import or_, support
from repro.circuits.netlist import Netlist
from repro.core.partial import PartialQuantifier
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.core.substitution import preimage_by_substitution
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.preimage_sat import allsat_quantify
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import concretize_suffix, find_violation_inputs
from repro.obs import probes as _obs
from repro.sat.solver import SolveResult
from repro.util.stats import StatsBag


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


class BackwardReachability:
    """The paper's traversal routine over one netlist."""

    def __init__(
        self, netlist: Netlist, options: ReachOptions | None = None
    ) -> None:
        netlist.validate()
        if not netlist.has_property:
            raise ModelCheckingError("backward reachability needs a property")
        self.original = netlist
        self.options = options if options is not None else ReachOptions()
        if self.options.input_elimination not in ("circuit", "allsat", "hybrid"):
            raise ModelCheckingError(
                f"unknown input elimination mode: "
                f"{self.options.input_elimination!r}"
            )
        # Private working copy: traversal adds heaps of nodes and must not
        # pollute (or be confused by) the caller's manager.
        self.model, _, node_map = netlist.clone()
        self._to_original = {
            new: old for old, new in node_map.items()
        }
        self.stats = StatsBag()
        self._cnf: CnfMapper | None = None

    # ------------------------------------------------------------------ #
    # SAT helpers on the working model
    # ------------------------------------------------------------------ #

    def _mapper(self) -> CnfMapper:
        """The persistent SAT context of the current working model."""
        if self._cnf is None:
            self._cnf = CnfMapper(self.model.aig)
        return self._cnf

    def _satisfiable(self, edge: int) -> dict[int, bool] | None:
        """SAT model of an edge over the working model, or None."""
        if edge == FALSE:
            return None
        mapper = self._mapper()
        lit = mapper.lit_for(edge)
        if mapper.solver.solve([lit]) is not SolveResult.SAT:
            return None
        model = mapper.model_inputs()
        return {
            node: model.get(node, False) for node in self.model.latch_nodes
        }

    # ------------------------------------------------------------------ #
    # Pre-image with the configured input elimination
    # ------------------------------------------------------------------ #

    def _preimage(self, state_set: int) -> int:
        composed = preimage_by_substitution(
            self.model.aig, state_set, self.model.next_functions()
        )
        # Environment constraints gate every transition: only inputs with
        # C(s, i) may justify membership in the pre-image.
        composed = self.model.aig.and_(
            composed, self.model.constraint_edge()
        )
        return self._eliminate_inputs(composed)

    def _eliminate_inputs(self, composed: int) -> int:
        """Existentially remove primary inputs per the configured mode."""
        aig = self.model.aig
        inputs = [
            node
            for node in self.model.input_nodes
            if node in support(aig, composed)
        ]
        mode = self.options.input_elimination
        if not inputs:
            return composed
        if mode == "circuit":
            outcome = quantify_exists(
                aig, composed, inputs, self.options.quantify
            )
            self.stats.merge(outcome.stats)
            return outcome.edge
        if mode == "allsat":
            result, sat_stats = allsat_quantify(
                aig, composed, inputs, max_cubes=self.options.allsat_max_cubes
            )
            self.stats.merge(sat_stats)
            return result
        # hybrid: partial circuit quantification, residual to all-SAT.
        quantifier = PartialQuantifier(
            aig,
            options=self.options.quantify,
            growth_factor=self.options.partial_growth_factor,
        )
        outcome = quantifier.quantify(composed, inputs)
        self.stats.merge(outcome.stats)
        self.stats.incr("hybrid_residual_vars", len(outcome.aborted))
        if not outcome.aborted:
            return outcome.edge
        result, sat_stats = allsat_quantify(
            aig,
            outcome.edge,
            outcome.aborted,
            max_cubes=self.options.allsat_max_cubes,
        )
        self.stats.merge(sat_stats)
        return result

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        options = self.options
        model = self.model
        aig = model.aig
        # The bad *states*: inputs of an input-dependent property are
        # existentially quantified away so every layer is a pure state set.
        # The violating step must itself satisfy the constraints.
        bad = self._eliminate_inputs(
            aig.and_(edge_not(model.property_edge), model.constraint_edge())
        )
        init = model.init_state_edge()
        # Distance layers for trace reconstruction: layers[k] = states at
        # backward distance k from the violation.
        layers: list[int] = [bad]
        reached = bad
        frontier = bad
        init_hit = self._check_init(init, bad)
        if init_hit is not None:
            return self._counterexample(init_hit, layers, iterations=0)
        iteration = 0
        while iteration < options.max_iterations:
            iteration += 1
            preimage = self._preimage(frontier)
            new_frontier = aig.and_(preimage, edge_not(reached))
            frontier_size = cone_size(aig, new_frontier)
            if _obs.ENABLED:
                _obs.sample("reach.frontier_size", frontier_size)
            self.stats.max("peak_frontier_size", frontier_size)
            self.stats.max("peak_reached_size", cone_size(aig, reached))
            witness = self._satisfiable(new_frontier)
            if witness is None:
                # Fix-point: no newly reached states.
                self.stats.set("iterations", iteration)
                return VerificationResult(
                    status=Status.PROVED,
                    engine="reach_aig",
                    iterations=iteration,
                    stats=self.stats,
                )
            layers.append(new_frontier)
            reached = or_(aig, reached, new_frontier)
            frontier = new_frontier
            init_hit = self._check_init(init, new_frontier)
            if init_hit is not None:
                return self._counterexample(init_hit, layers, iterations=iteration)
            if (
                options.compact_every
                and iteration % options.compact_every == 0
            ):
                layers, reached, frontier, init, bad = self._compact(
                    layers, reached, frontier, init, bad
                )
                model = self.model      # compaction swapped the working copy
                aig = model.aig
            if aig.num_nodes > options.max_manager_nodes:
                raise ResourceLimit(
                    f"AIG manager exceeded {options.max_manager_nodes} nodes"
                )
        return VerificationResult(
            status=Status.UNKNOWN,
            engine="reach_aig",
            iterations=options.max_iterations,
            stats=self.stats,
        )

    def _check_init(self, init: int, frontier: int) -> dict[int, bool] | None:
        """Does the frontier contain the initial state?"""
        return self._satisfiable(self.model.aig.and_(init, frontier))

    def _counterexample(
        self,
        start_state: dict[int, bool],
        layers: list[int],
        iterations: int,
    ) -> VerificationResult:
        """Walk the initial state down the distance layers to the bug."""
        states = [dict(start_state)]
        suffix_states, inputs = concretize_suffix(
            self.model, start_state, layers
        )
        states.extend(suffix_states)
        violation = find_violation_inputs(
            self.model, states[-1], self._mapper()
        )
        trace = Trace(
            states=[self._map_state(s) for s in states],
            inputs=[self._map_inputs(i) for i in inputs],
            violation_inputs=(
                self._map_inputs(violation) if violation is not None else None
            ),
        )
        self.stats.set("iterations", iterations)
        return VerificationResult(
            status=Status.FAILED,
            engine="reach_aig",
            trace=trace,
            iterations=iterations,
            stats=self.stats,
        )

    def _map_state(self, state: dict[int, bool]) -> dict[int, bool]:
        return {
            self._to_original.get(node, node): value
            for node, value in state.items()
        }

    def _map_inputs(self, inputs: dict[int, bool]) -> dict[int, bool]:
        return {
            self._to_original.get(node, node): value
            for node, value in inputs.items()
        }

    def _compact(
        self,
        layers: list[int],
        reached: int,
        frontier: int,
        init: int,
        bad: int,
    ) -> tuple[list[int], int, int, int, int]:
        """Shrink the working manager, transferring the live state sets."""
        before = self.model.aig.num_nodes
        extras = list(layers) + [reached, frontier, init, bad]
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
        # Chain the original-node mapping through the new clone.
        self._to_original = {
            new: self._to_original.get(old, old)
            for old, new in node_map.items()
        }
        self.stats.incr("compactions")
        self.stats.incr("compaction_nodes_freed", before - new_model.aig.num_nodes)
        n = len(layers)
        return list(moved[:n]), moved[n], moved[n + 1], moved[n + 2], moved[n + 3]


def backward_reachability(
    netlist: Netlist, options: ReachOptions | None = None
) -> VerificationResult:
    """Convenience wrapper: build the engine and run it."""
    return BackwardReachability(netlist, options).run()
