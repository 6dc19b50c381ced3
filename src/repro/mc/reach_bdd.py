"""BDD-based reachability with scheduled partitioned image computation.

The seed version of this engine was the "traditional methodology" baseline:
conjoin the entire transition relation, then quantify state and input
variables one at a time.  It now practices what the paper preaches — *when*
you quantify matters as much as *what* you quantify:

* the transition relation is kept **partitioned** (one ``y_k == delta_k``
  conjunct per latch plus the environment constraint), clustered up to a
  node threshold, IWLS95-style;
* the conjunction order and the early-quantification points are chosen by
  the variable-ordering heuristics of :mod:`repro.core.schedule` — the
  same vocabulary the AIG quantification path uses — so each variable is
  existentially quantified by a fused
  :meth:`~repro.bdd.manager.BddManager.and_exists` as soon as no later
  cluster depends on it;
* pre-images fuse the constraint conjunction with input quantification;
* the kernel's operation caches are trimmed between frontier steps and
  their hit/miss counters surface through the result's ``StatsBag``.

Both traversals run the breadth-first loop of
:func:`repro.mc.traversal.breadth_first`, shared with the AIG engines;
this module supplies BDD state sets, whose emptiness is ``BDD_FALSE``.

The monolithic conjoin-then-quantify image survives as
``BddReachOptions(image="monolithic")`` for A/B benchmarking
(``benchmarks/bench_t14_bdd_image.py``).  Backward traversal mirrors
:mod:`repro.mc.reach_aig` (pre-image via vector composition of the
next-state functions, then input quantification); forward traversal builds
the relational product with next-state variables.  BDD peak sizes are
reported so experiment T4 can contrast them with the AIG engine's circuit
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.ops import and_all
from repro.bdd.from_aig import aig_to_bdd
from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.circuits.netlist import Netlist
from repro.core.schedule import (
    plan_partitioned_quantification,
    schedule_variable_order,
)
from repro.errors import ModelCheckingError
from repro.mc.result import Trace, VerificationResult
from repro.mc.traversal import StateSets, breadth_first
from repro.obs import probes as _obs
from repro.util.stats import StatsBag


@dataclass
class BddReachOptions:
    """Configuration of the BDD traversals.

    ``image`` selects the post-image pipeline: ``"scheduled"`` (default)
    runs the clustered partitioned relational product with early
    quantification; ``"monolithic"`` conjoins the full transition relation
    first — the seed behaviour, kept for comparison.  ``schedule`` names a
    :mod:`repro.core.schedule` heuristic that orders the quantified
    variables (and thereby the cluster conjunctions).  ``cluster_size``
    bounds the BDD node count of one transition-relation cluster.
    ``max_cache_entries`` bounds each kernel operation cache; caches
    beyond the bound are dropped between frontier steps.
    """

    max_iterations: int = 10_000
    max_nodes: int | None = None
    image: str = "scheduled"
    schedule: str = "min_dependence"
    cluster_size: int = 2_000
    max_cache_entries: int | None = 1 << 20


class _BddModel:
    """Netlist lifted into a BDD manager.

    Variable order: latches first (interleaving-friendly creation order),
    then primary inputs, then next-state placeholders for forward images.
    """

    def __init__(
        self, netlist: Netlist, options: BddReachOptions
    ) -> None:
        netlist.validate()
        if options.image not in ("scheduled", "monolithic"):
            raise ModelCheckingError(
                f"unknown image mode {options.image!r}; "
                "choose 'scheduled' or 'monolithic'"
            )
        self.netlist = netlist
        self.options = options
        self.manager = BddManager(
            max_nodes=options.max_nodes,
            max_cache_entries=options.max_cache_entries,
        )
        self.var_of_node: dict[int, int] = {}
        for node in netlist.latch_nodes:
            self.var_of_node[node] = len(self.var_of_node)
            self.manager.new_var(f"s{node}")
        for node in netlist.input_nodes:
            self.var_of_node[node] = len(self.var_of_node)
            self.manager.new_var(f"i{node}")
        self.next_var_of_latch: dict[int, int] = {}
        for node in netlist.latch_nodes:
            self.next_var_of_latch[node] = len(self.var_of_node) + len(
                self.next_var_of_latch
            )
            self.manager.new_var(f"n{node}")
        cache: dict[int, int] = {}
        self.delta = {
            node: aig_to_bdd(
                netlist.aig, fn, self.manager, self.var_of_node, cache
            )
            for node, fn in netlist.next_functions().items()
        }
        self.input_vars = [self.var_of_node[n] for n in netlist.input_nodes]
        self.state_vars = [self.var_of_node[n] for n in netlist.latch_nodes]
        self.input_cube = self.manager.cube_pos(self.input_vars)
        # Environment constraints gate transitions and violations alike.
        self.constraint = aig_to_bdd(
            netlist.aig,
            netlist.constraint_edge(),
            self.manager,
            self.var_of_node,
            cache,
        )
        # bad_raw may read inputs; bad is the pure-state projection
        # (only constraint-satisfying input patterns count).
        self.bad_raw = self.manager.and_(
            aig_to_bdd(
                netlist.aig,
                netlist.property_edge ^ 1,
                self.manager,
                self.var_of_node,
                cache,
            ),
            self.constraint,
        )
        self.bad = self.manager.exists_cube(self.bad_raw, self.input_cube)
        self.init = self.manager.cube(
            {
                self.var_of_node[node]: value
                for node, value in netlist.init_assignment().items()
            }
        )
        self._rename_map = {
            self.next_var_of_latch[node]: self.var_of_node[node]
            for node in self.delta
        }
        # (clusters, quantification cube) steps, built on first post-image.
        self._image_plan: list[tuple[list[int], int]] | None = None

    # ------------------------------------------------------------------ #
    # Pre-image
    # ------------------------------------------------------------------ #

    def preimage(self, state_set: int) -> int:
        """exists i . C(s, i) AND S(delta(s, i)) by composition.

        The constraint conjunction and the input quantification are fused
        into one ``and_exists`` — the composed set is never conjoined with
        the constraint in full.
        """
        composed = self.manager.compose(
            state_set,
            {self.var_of_node[node]: fn for node, fn in self.delta.items()},
        )
        return self.manager.and_exists_cube(
            composed, self.constraint, self.input_cube
        )

    def preimage_into(self, layer: int, state: dict[int, bool]) -> int:
        """BDD over the input variables: choices taking ``state`` into layer."""
        composed = self.manager.compose(
            layer,
            {self.var_of_node[node]: fn for node, fn in self.delta.items()},
        )
        composed = self.manager.and_(composed, self.constraint)
        for node, value in state.items():
            composed = self.manager.restrict(
                composed, self.var_of_node[node], value
            )
        return composed

    # ------------------------------------------------------------------ #
    # Post-image
    # ------------------------------------------------------------------ #

    def postimage(self, state_set: int) -> int:
        """Relational image with next-state variables, then rename back."""
        if self.options.image == "monolithic":
            return self.postimage_monolithic(state_set)
        return self.postimage_scheduled(state_set)

    def postimage_monolithic(self, state_set: int) -> int:
        """The seed pipeline: conjoin the full relation, then quantify."""
        manager = self.manager
        product = manager.and_(state_set, self.constraint)
        for node, fn in self.delta.items():
            product = manager.and_(
                product,
                manager.xnor(manager.var_node(self.next_var_of_latch[node]), fn),
            )
        product = manager.exists(product, self.state_vars + self.input_vars)
        return manager.rename(product, self._rename_map)

    def postimage_scheduled(self, state_set: int) -> int:
        """Clustered partitioned image with scheduled early quantification.

        The full transition relation is never built: clusters are conjoined
        in the scheduler-chosen order and every current-state/input
        variable is quantified by a fused ``and_exists`` as soon as no
        later cluster depends on it.
        """
        manager = self.manager
        product = state_set
        for clusters, cube in self._scheduled_plan():
            if not clusters:
                if cube != BDD_TRUE:
                    product = manager.exists_cube(product, cube)
                continue
            for cluster in clusters[:-1]:
                product = manager.and_(product, cluster)
                if product == BDD_FALSE:
                    return BDD_FALSE
            if cube == BDD_TRUE:
                product = manager.and_(product, clusters[-1])
            else:
                product = manager.and_exists_cube(
                    product, clusters[-1], cube
                )
            if product == BDD_FALSE:
                return BDD_FALSE
        return manager.rename(product, self._rename_map)

    def _scheduled_plan(self) -> list[tuple[list[int], int]]:
        """Build (once) the clustered conjunction/quantification schedule."""
        if self._image_plan is not None:
            return self._image_plan
        manager = self.manager
        quantify_vars = set(self.state_vars + self.input_vars)
        # Partition: the constraint plus one y_k == delta_k per latch.
        conjuncts: list[int] = []
        if self.constraint != BDD_TRUE:
            conjuncts.append(self.constraint)
        for node, fn in self.delta.items():
            conjuncts.append(
                manager.xnor(
                    manager.var_node(self.next_var_of_latch[node]), fn
                )
            )
        supports = [
            manager.support(c) & quantify_vars for c in conjuncts
        ]
        var_order = self._scheduled_var_order()
        plan = plan_partitioned_quantification(var_order, supports)
        steps: list[tuple[list[int], int]] = []
        for step in plan:
            # Cluster the step's conjuncts up to the node threshold so
            # small relations amortize into one cached cluster BDD.
            clusters: list[int] = []
            acc: int | None = None
            for index in step.conjoin:
                piece = conjuncts[index]
                if acc is None:
                    acc = piece
                    continue
                combined = manager.and_(acc, piece)
                if manager.size(combined) > self.options.cluster_size:
                    clusters.append(acc)
                    acc = piece
                else:
                    acc = combined
            if acc is not None:
                clusters.append(acc)
            steps.append((clusters, manager.cube_pos(step.quantify)))
        self._image_plan = steps
        return steps

    def _scheduled_var_order(self) -> list[int]:
        """Variable order from the shared AIG schedulers, as BDD indices.

        The heuristics of :mod:`repro.core.schedule` analyse AIG cones, so
        they run on a throwaway clone of the netlist (scheduling must not
        pollute the caller's manager) over the conjunction of the
        next-state functions and the constraint.
        """
        netlist = self.netlist
        candidates = netlist.latch_nodes + netlist.input_nodes
        if not candidates:
            return []
        clone, _, node_map = netlist.clone()
        edge = and_all(
            clone.aig,
            [clone.constraint_edge()]
            + [fn for fn in clone.next_functions().values()],
        )
        back = {new: old for old, new in node_map.items()}
        order = schedule_variable_order(
            clone.aig,
            edge,
            [node_map[node] for node in candidates],
            self.options.schedule,
        )
        return [self.var_of_node[back[node]] for node in order]


class _BddStateSets(StateSets):
    """State sets as BDDs of one :class:`_BddModel`; empty is ``BDD_FALSE``."""

    def __init__(self, netlist: Netlist, options: BddReachOptions) -> None:
        self.model = _BddModel(netlist, options)
        self.manager = self.model.manager
        self.stats = StatsBag()

    def subtract(self, image: int, reached: int) -> int:
        return self.manager.and_(image, self.manager.not_(reached))

    def unite(self, reached: int, new: int) -> int:
        return self.manager.or_(reached, new)

    def measure(self, new: int, reached: int) -> None:
        manager = self.manager
        self.stats.max("peak_frontier_bdd", manager.size(new))
        self.stats.max("peak_reached_bdd", manager.size(reached))
        if _obs.ENABLED:
            _obs.bdd_tick(manager)
        manager.trim_caches()

    def is_empty(self, new: int) -> bool:
        return new == BDD_FALSE

    def finish(self) -> None:
        """Surface the kernel cache counters through the StatsBag."""
        for key, value in self.manager.cache_summary().items():
            self.stats.set(f"bdd_{key}", value)
        self.stats.set("manager_nodes", self.manager.num_nodes)

    def _from_cube(
        self, cube: dict[int, bool], nodes: list[int]
    ) -> dict[int, bool]:
        var_of_node = self.model.var_of_node
        return {node: cube.get(var_of_node[node], False) for node in nodes}

    def _violation_inputs(self, state: dict[int, bool]) -> dict[int, bool] | None:
        """Witness inputs for an input-reading property in ``state``."""
        restricted = self.model.bad_raw
        for node, value in state.items():
            restricted = self.manager.restrict(
                restricted, self.model.var_of_node[node], value
            )
        cube = self.manager.pick_cube(restricted)
        if cube is None:
            return None
        return self._from_cube(cube, self.model.netlist.input_nodes)


class _BddBackward(_BddStateSets):
    """Pre-images from the bad states until the initial state is hit."""

    engine = "reach_bdd"

    def start(self) -> int:
        return self.model.bad

    def image(self, frontier: int, iteration: int) -> int:
        with _obs.span("bdd.preimage", "bdd", iteration=iteration):
            return self.model.preimage(frontier)

    def target_hit(self, state_set: int) -> bool | None:
        return self.manager.and_(self.model.init, state_set) != BDD_FALSE or None

    def trace(self, hit: object, layers: list[int]) -> Trace:
        """Replay from init through the distance layers, choosing inputs."""
        model = self.model
        manager = self.manager
        netlist = model.netlist
        state = dict(netlist.init_assignment())
        states = [dict(state)]
        inputs: list[dict[int, bool]] = []
        # Find the deepest layer containing init = distance to violation.
        containing = [
            k
            for k, layer in enumerate(layers)
            if manager.evaluate(
                layer, {model.var_of_node[n]: v for n, v in state.items()}
            )
        ]
        if not containing:
            raise ModelCheckingError("init not in any layer (engine bug)")
        distance = min(containing)
        for layer_index in range(distance - 1, -1, -1):
            # Choose inputs steering into the next layer: satisfy
            # layer(delta(s, i)) with s fixed.
            target = model.preimage_into(layers[layer_index], state)
            cube = manager.pick_cube(target)
            if cube is None:
                raise ModelCheckingError("trace reconstruction failed")
            step_inputs = self._from_cube(cube, netlist.input_nodes)
            inputs.append(step_inputs)
            state = netlist.simulate_step(state, step_inputs)
            states.append(dict(state))
        return Trace(
            states=states,
            inputs=inputs,
            violation_inputs=self._violation_inputs(state),
        )


class _BddForward(_BddStateSets):
    """Post-images from the initial state until a bad state is hit."""

    engine = "reach_bdd_fwd"

    def start(self) -> int:
        return self.model.init

    def image(self, frontier: int, iteration: int) -> int:
        with _obs.span("bdd.postimage", "bdd", iteration=iteration):
            return self.model.postimage(frontier)

    def target_hit(self, state_set: int) -> bool | None:
        return self.manager.and_(state_set, self.model.bad) != BDD_FALSE or None

    def trace(self, hit: object, rings: list[int]) -> Trace:
        """Pick a bad state in the last ring, walk predecessors back to init."""
        model = self.model
        manager = self.manager
        latches = model.netlist.latch_nodes
        bad_cube = manager.pick_cube(manager.and_(rings[-1], model.bad))
        if bad_cube is None:
            raise ModelCheckingError("bad ring is empty (engine bug)")
        states = [self._from_cube(bad_cube, latches)]
        inputs: list[dict[int, bool]] = []
        for ring_index in range(len(rings) - 2, -1, -1):
            # Predecessors in the previous ring: ring(s) AND C(s, i) AND
            # delta(s, i) == target, solved by one cube pick.
            target = states[0]
            predecessors = manager.and_(rings[ring_index], model.constraint)
            for node, fn in model.delta.items():
                literal = fn if target[node] else manager.not_(fn)
                predecessors = manager.and_(predecessors, literal)
            cube = manager.pick_cube(predecessors)
            if cube is None:
                raise ModelCheckingError(
                    "onion-ring state has no predecessor (engine bug)"
                )
            states.insert(0, self._from_cube(cube, latches))
            inputs.insert(0, self._from_cube(cube, model.netlist.input_nodes))
        return Trace(
            states=states,
            inputs=inputs,
            violation_inputs=self._violation_inputs(states[-1]),
        )


def bdd_backward_reachability(
    netlist: Netlist,
    max_iterations: int = 10_000,
    max_nodes: int | None = None,
    options: BddReachOptions | None = None,
) -> VerificationResult:
    """Backward BDD traversal; same verdict contract as the AIG engine.

    Raises :class:`~repro.errors.BddLimitExceeded` when ``max_nodes`` is
    exceeded — the memory-explosion outcome the paper's method avoids.
    """
    if options is None:
        options = BddReachOptions(max_iterations=max_iterations, max_nodes=max_nodes)
    return breadth_first(_BddBackward(netlist, options), options.max_iterations)


def bdd_forward_reachability(
    netlist: Netlist,
    max_iterations: int = 10_000,
    max_nodes: int | None = None,
    options: BddReachOptions | None = None,
) -> VerificationResult:
    """Forward BDD traversal with onion-ring trace reconstruction."""
    if options is None:
        options = BddReachOptions(max_iterations=max_iterations, max_nodes=max_nodes)
    return breadth_first(_BddForward(netlist, options), options.max_iterations)
