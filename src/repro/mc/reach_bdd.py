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
from repro.errors import BddLimitExceeded, ModelCheckingError
from repro.mc.result import Status, Trace, VerificationResult
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


def _state_from_cube(
    model: _BddModel, cube: dict[int, bool]
) -> dict[int, bool]:
    return {
        node: cube.get(model.var_of_node[node], False)
        for node in model.netlist.latch_nodes
    }


def _finalize_stats(model: _BddModel, stats: StatsBag) -> None:
    """Surface the kernel cache counters through the StatsBag."""
    for key, value in model.manager.cache_summary().items():
        stats.set(f"bdd_{key}", value)
    stats.set("manager_nodes", model.manager.num_nodes)


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
        options = BddReachOptions(
            max_iterations=max_iterations, max_nodes=max_nodes
        )
    stats = StatsBag()
    model = _BddModel(netlist, options)
    manager = model.manager
    layers = [model.bad]
    reached = model.bad
    frontier = model.bad
    iteration = 0
    if manager.and_(model.init, model.bad) != BDD_FALSE:
        return _bdd_counterexample(model, layers, stats, iteration)
    while iteration < options.max_iterations:
        iteration += 1
        with _obs.span("bdd.preimage", "bdd", iteration=iteration):
            preimage = model.preimage(frontier)
        new_frontier = manager.and_(preimage, manager.not_(reached))
        stats.max("peak_frontier_bdd", manager.size(new_frontier))
        stats.max("peak_reached_bdd", manager.size(reached))
        if _obs.ENABLED:
            _obs.bdd_tick(manager)
        manager.trim_caches()
        if new_frontier == BDD_FALSE:
            stats.set("iterations", iteration)
            _finalize_stats(model, stats)
            return VerificationResult(
                status=Status.PROVED,
                engine="reach_bdd",
                iterations=iteration,
                stats=stats,
            )
        layers.append(new_frontier)
        reached = manager.or_(reached, new_frontier)
        frontier = new_frontier
        if manager.and_(model.init, new_frontier) != BDD_FALSE:
            stats.set("iterations", iteration)
            return _bdd_counterexample(model, layers, stats, iteration)
    _finalize_stats(model, stats)
    return VerificationResult(
        status=Status.UNKNOWN,
        engine="reach_bdd",
        iterations=options.max_iterations,
        stats=stats,
    )


def _bdd_counterexample(
    model: _BddModel,
    layers: list[int],
    stats: StatsBag,
    iterations: int,
) -> VerificationResult:
    """Replay from init through the distance layers, choosing inputs."""
    manager = model.manager
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
        step_inputs = {
            node: cube.get(model.var_of_node[node], False)
            for node in netlist.input_nodes
        }
        inputs.append(step_inputs)
        state = netlist.simulate_step(state, step_inputs)
        states.append(dict(state))
    # Witness inputs for an input-reading property in the final state.
    restricted = model.bad_raw
    for node, value in state.items():
        restricted = manager.restrict(
            restricted, model.var_of_node[node], value
        )
    witness_cube = manager.pick_cube(restricted)
    violation = None
    if witness_cube is not None:
        violation = {
            node: witness_cube.get(model.var_of_node[node], False)
            for node in netlist.input_nodes
        }
    _finalize_stats(model, stats)
    return VerificationResult(
        status=Status.FAILED,
        engine="reach_bdd",
        trace=Trace(
            states=states, inputs=inputs, violation_inputs=violation
        ),
        iterations=iterations,
        stats=stats,
    )


def bdd_forward_reachability(
    netlist: Netlist,
    max_iterations: int = 10_000,
    max_nodes: int | None = None,
    options: BddReachOptions | None = None,
) -> VerificationResult:
    """Forward BDD traversal with onion-ring trace reconstruction."""
    if options is None:
        options = BddReachOptions(
            max_iterations=max_iterations, max_nodes=max_nodes
        )
    stats = StatsBag()
    model = _BddModel(netlist, options)
    manager = model.manager
    rings = [model.init]
    reached = model.init
    frontier = model.init
    iteration = 0
    if manager.and_(frontier, model.bad) != BDD_FALSE:
        return _bdd_forward_counterexample(model, rings, stats)
    while iteration < options.max_iterations:
        iteration += 1
        with _obs.span("bdd.postimage", "bdd", iteration=iteration):
            image = model.postimage(frontier)
        new_frontier = manager.and_(image, manager.not_(reached))
        stats.max("peak_frontier_bdd", manager.size(new_frontier))
        stats.max("peak_reached_bdd", manager.size(reached))
        if _obs.ENABLED:
            _obs.bdd_tick(manager)
        manager.trim_caches()
        if new_frontier == BDD_FALSE:
            stats.set("iterations", iteration)
            _finalize_stats(model, stats)
            return VerificationResult(
                status=Status.PROVED,
                engine="reach_bdd_fwd",
                iterations=iteration,
                stats=stats,
            )
        rings.append(new_frontier)
        reached = manager.or_(reached, new_frontier)
        frontier = new_frontier
        if manager.and_(new_frontier, model.bad) != BDD_FALSE:
            stats.set("iterations", iteration)
            return _bdd_forward_counterexample(model, rings, stats)
    _finalize_stats(model, stats)
    return VerificationResult(
        status=Status.UNKNOWN,
        engine="reach_bdd_fwd",
        iterations=options.max_iterations,
        stats=stats,
    )


def _bdd_forward_counterexample(
    model: _BddModel,
    rings: list[int],
    stats: StatsBag,
) -> VerificationResult:
    """Pick a bad state in the last ring, walk predecessors back to init."""
    manager = model.manager
    netlist = model.netlist
    bad_cube = manager.pick_cube(manager.and_(rings[-1], model.bad))
    if bad_cube is None:
        raise ModelCheckingError("bad ring is empty (engine bug)")
    states = [_state_from_cube(model, bad_cube)]
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
        states.insert(0, _state_from_cube(model, cube))
        inputs.insert(
            0,
            {
                node: cube.get(model.var_of_node[node], False)
                for node in netlist.input_nodes
            },
        )
    # Witness inputs for an input-reading property in the final state.
    restricted = model.bad_raw
    for node, value in states[-1].items():
        restricted = manager.restrict(
            restricted, model.var_of_node[node], value
        )
    witness_cube = manager.pick_cube(restricted)
    violation = None
    if witness_cube is not None:
        violation = {
            node: witness_cube.get(model.var_of_node[node], False)
            for node in netlist.input_nodes
        }
    _finalize_stats(model, stats)
    return VerificationResult(
        status=Status.FAILED,
        engine="reach_bdd_fwd",
        trace=Trace(
            states=states, inputs=inputs, violation_inputs=violation
        ),
        iterations=len(rings) - 1,
        stats=stats,
    )
