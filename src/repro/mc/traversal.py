"""The breadth-first frontier loop of the four reachability engines.

Section 3 of the paper keeps "standard breadth-first reachability" and
changes only the representation: "all state sets are represented and
manipulated using AIGs instead of BDDs".  :func:`breadth_first` is that
standard loop, written once.  An engine hands it a :class:`StateSets` —
AIG edges checked by SAT (:mod:`repro.mc.reach_aig`,
:mod:`repro.mc.reach_aig_fwd`) or BDDs compared against ``BDD_FALSE``
(:mod:`repro.mc.reach_bdd`) — and picks the direction through the set it
starts from, its image and its target: backward engines start from the
bad states and hit the initial states, forward engines the reverse.

One iteration: ``new = image(frontier) AND NOT reached``; an empty
``new`` is the fix-point (PROVED); otherwise ``new`` becomes the next
ring, joins ``reached``, and a ring that hits the target yields a
counterexample walked back through the rings (FAILED).  PROVED and
FAILED results carry ``stats["iterations"] == result.iterations``;
``max_iterations`` steps without a verdict give UNKNOWN.
"""

from __future__ import annotations

from repro.aig.analysis import cone_size
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import or_
from repro.circuits.netlist import Netlist
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import find_violation_inputs
from repro.obs import probes as _obs
from repro.sat.solver import SolveResult
from repro.util.stats import StatsBag


class StateSets:
    """What an engine supplies to :func:`breadth_first`.

    ``rings[k]`` holds the states first reached in step ``k``; ring 0 is
    the start set.  A *hit* is any non-None witness that a set meets the
    target; :meth:`trace` turns it into a counterexample.
    """

    engine: str
    stats: StatsBag

    def start(self) -> int:
        raise NotImplementedError

    def image(self, frontier: int, iteration: int) -> int:
        raise NotImplementedError

    def subtract(self, image: int, reached: int) -> int:
        """``image AND NOT reached``."""
        raise NotImplementedError

    def unite(self, reached: int, new: int) -> int:
        raise NotImplementedError

    def measure(self, new: int, reached: int) -> None:
        """Record the sizes of a step (before its emptiness test)."""

    def is_empty(self, new: int) -> bool:
        raise NotImplementedError

    def target_hit(self, state_set: int) -> object | None:
        raise NotImplementedError

    def trace(self, hit: object, rings: list[int]) -> Trace:
        raise NotImplementedError

    def upkeep(
        self, iteration: int, rings: list[int], reached: int
    ) -> tuple[list[int], int]:
        """Per-iteration housekeeping; may move the live sets."""
        return rings, reached

    def finish(self) -> None:
        """Last stats of a run, once its verdict is known."""


def breadth_first(sets: StateSets, max_iterations: int) -> VerificationResult:
    """Run the frontier loop over ``sets`` to a verdict."""
    start = sets.start()
    rings = [start]
    reached = start
    iteration = 0
    hit = sets.target_hit(start)
    while hit is None:
        if iteration >= max_iterations:
            return _verdict(sets, Status.UNKNOWN, max_iterations)
        iteration += 1
        new = sets.subtract(sets.image(rings[-1], iteration), reached)
        sets.measure(new, reached)
        if sets.is_empty(new):
            return _verdict(sets, Status.PROVED, iteration)
        rings.append(new)
        reached = sets.unite(reached, new)
        hit = sets.target_hit(new)
        if hit is None:
            rings, reached = sets.upkeep(iteration, rings, reached)
    return _verdict(sets, Status.FAILED, iteration, sets.trace(hit, rings))


def _verdict(
    sets: StateSets,
    status: Status,
    iterations: int,
    trace: Trace | None = None,
) -> VerificationResult:
    if status is not Status.UNKNOWN:
        sets.stats.set("iterations", iterations)
    sets.finish()
    return VerificationResult(
        status=status,
        engine=sets.engine,
        trace=trace,
        iterations=iterations,
        stats=sets.stats,
    )


class AigStateSets(StateSets):
    """State sets as AIG edges over a private working copy of a netlist.

    Every SAT check on one working model — frontier emptiness, target
    hits, trace steps and the violating inputs of a counterexample —
    goes through one persistent :class:`~repro.aig.cnf.CnfMapper` and
    encodes only the nodes no earlier check reached.  Each engine builds
    the mapper in :meth:`_new_mapper`; dropping ``_cnf`` (after the
    working copy changes) makes the next check start a fresh one.
    Results are reported over the caller's node ids.
    """

    def __init__(self, netlist: Netlist, direction: str) -> None:
        netlist.validate()
        if not netlist.has_property:
            raise ModelCheckingError(f"{direction} reachability needs a property")
        self.original = netlist
        # Private working copy: traversal adds heaps of nodes and must not
        # pollute (or be confused by) the caller's manager.
        self.model, _, node_map = netlist.clone()
        self._to_original = {new: old for old, new in node_map.items()}
        self.stats = StatsBag()
        self._cnf = None

    def _new_mapper(self):
        raise NotImplementedError

    def _mapper(self):
        """The persistent SAT context of the current working model."""
        if self._cnf is None:
            self._cnf = self._new_mapper()
        return self._cnf

    def _solve(self, edge: int) -> dict[int, bool] | None:
        """Input-node model of ``edge`` over the working model, or None."""
        if edge == FALSE:
            return None
        mapper = self._mapper()
        if mapper.solver.solve([mapper.lit_for(edge)]) is not SolveResult.SAT:
            return None
        return mapper.model_inputs()

    def _satisfiable(self, edge: int) -> dict[int, bool] | None:
        """A latch assignment satisfying ``edge``, or None."""
        model = self._solve(edge)
        if model is None:
            return None
        return {node: model.get(node, False) for node in self.model.latch_nodes}

    def subtract(self, image: int, reached: int) -> int:
        return self.model.aig.and_(image, edge_not(reached))

    def unite(self, reached: int, new: int) -> int:
        return or_(self.model.aig, reached, new)

    def measure(self, new: int, reached: int) -> None:
        frontier_size = cone_size(self.model.aig, new)
        if _obs.ENABLED:
            _obs.sample("reach.frontier_size", frontier_size)
        self.stats.max("peak_frontier_size", frontier_size)

    def is_empty(self, new: int) -> bool:
        return self._satisfiable(new) is None

    def upkeep(
        self, iteration: int, rings: list[int], reached: int
    ) -> tuple[list[int], int]:
        limit = self.options.max_manager_nodes
        if self.model.aig.num_nodes > limit:
            raise ResourceLimit(f"AIG manager exceeded {limit} nodes")
        return rings, reached

    def _trace(
        self, states: list[dict[int, bool]], inputs: list[dict[int, bool]]
    ) -> Trace:
        """The trace in caller node ids, with the violating inputs."""
        violation = find_violation_inputs(self.model, states[-1], self._mapper())
        return Trace(
            states=[self._to_caller(s) for s in states],
            inputs=[self._to_caller(i) for i in inputs],
            violation_inputs=(
                self._to_caller(violation) if violation is not None else None
            ),
        )

    def _to_caller(self, values: dict[int, bool]) -> dict[int, bool]:
        return {
            self._to_original.get(node, node): value
            for node, value in values.items()
        }
