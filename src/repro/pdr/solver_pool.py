"""One incremental SAT solver per PDR frame.

Every frame ``k`` owns a :class:`repro.sat.solver.Solver` that encodes
the transition relation exactly once (frames 0 and 1 of a two-frame
:class:`repro.mc.unroll.Unroller`), the environment constraints at the
*source* frame, and — via the solver's removable-clause/activation
machinery — the lemmas of ``F_k``.  Lemmas are added and retired without
ever rebuilding CNF: each lemma clause carries an activation literal
that queries pass as an assumption, and a subsumed lemma's literal is
pinned false.

Constraints are deliberately **not** asserted at the successor frame:
a violating state needs constraint-satisfying inputs of its own (the
bad-cone literal includes them), but a state's mere reachability does
not — asserting them would excise reachable dead-end states from the
frames and the final certificate would not close.

The pool poses the three PDR queries:

* ``intersects_bad(k)`` — SAT?\\ [F_k ∧ C ∧ ¬P];
* ``relative_query(level, cube)`` — SAT?\\ [F_{level-1} ∧ C ∧ ¬cube ∧ T
  ∧ cube'] (the consecution query of an obligation at ``level``); on
  UNSAT the assumption core is mapped back to cube literals for
  generalization;
* ``push_query(k, cube)`` — SAT?\\ [F_k ∧ C ∧ T ∧ cube'] (clause
  propagation).

Frame 0 is special: its solver pins the latches to the initial state,
and it never holds lemmas (the initial state satisfies them all).
"""

from __future__ import annotations

from repro.aig.graph import edge_not
from repro.circuits.netlist import Netlist
from repro.mc.unroll import Unroller
from repro.pdr.frames import FrameTrace, Lemma
from repro.sat.solver import SolveResult, Solver
from repro.util.stats import StatsBag


# Retired clauses (spent query guards, subsumed lemmas) accumulate as
# dead variables in a frame's solver; past this many the pool rebuilds
# the solver from the live lemmas instead of dragging the garbage along.
COMPACT_RETIRED_LIMIT = 1000


class FrameSolver:
    """The incremental solver of one frame (T + C + activated lemmas)."""

    def __init__(self, netlist: Netlist, pin_init: bool) -> None:
        self.solver = Solver()
        self.unroller = Unroller(netlist, self.solver,
                                 assert_constraints=False)
        self.unroller.ensure_frames(2)
        self.unroller.constrain_frame(0)
        if pin_init:
            self.unroller.assert_initial_state()
        self._now = self.unroller.frame(0)
        self._next = self.unroller.frame(1)
        self._acts: dict[Lemma, int] = {}
        self._bad_lit: int | None = None
        self.retired = 0   # spent activation literals since construction

    # ------------------------------------------------------------------ #
    # Literal plumbing
    # ------------------------------------------------------------------ #

    def lit(self, state_lit: int, primed: bool = False) -> int:
        """Solver literal of a signed latch node, at frame 0 or 1."""
        frame = self._next if primed else self._now
        var = frame.var_for_node(abs(state_lit))
        return -var if state_lit < 0 else var

    def bad_lit(self, bad_edge: int) -> int:
        """Literal of the bad cone (¬P ∧ C) over the source frame."""
        if self._bad_lit is None:
            self._bad_lit = self.unroller.edge_lit_in(self._now, bad_edge)
        return self._bad_lit

    # ------------------------------------------------------------------ #
    # Lemma lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, lemma: Lemma) -> None:
        if lemma in self._acts:
            return
        self._acts[lemma] = self.solver.add_removable_clause(
            [self.lit(lit) for lit in lemma.clause()]
        )

    def detach(self, lemma: Lemma) -> None:
        activation = self._acts.pop(lemma, None)
        if activation is not None:
            self.solver.retire_clause(activation)
            self.retired += 1

    def assumptions(self) -> list[int]:
        """Activation literals of every live lemma of this frame."""
        return list(self._acts.values())

    def read_state(self) -> dict[int, bool]:
        return self.unroller.read_state(0)

    def read_inputs(self) -> dict[int, bool]:
        return self.unroller.read_inputs(0)


class SolverPool:
    """Lazily created frame solvers sharing one frame trace."""

    def __init__(
        self, netlist: Netlist, frames: FrameTrace, stats: StatsBag
    ) -> None:
        self.netlist = netlist
        self.frames = frames
        self.stats = stats
        aig = netlist.aig
        self.bad_edge = aig.and_(
            edge_not(netlist.property_edge), netlist.constraint_edge()
        )
        self._solvers: dict[int, FrameSolver] = {}

    def solver(self, frame_index: int) -> FrameSolver:
        existing = self._solvers.get(frame_index)
        if existing is not None:
            if existing.retired <= COMPACT_RETIRED_LIMIT:
                return existing
            # Too much garbage (spent query guards, subsumed lemmas):
            # a rebuild from the live lemmas is cheaper than dragging
            # thousands of dead variables through every later solve.
            del self._solvers[frame_index]
            self.stats.incr("pdr_solver_compactions")
        created = FrameSolver(self.netlist, pin_init=frame_index == 0)
        self._solvers[frame_index] = created
        if frame_index > 0:
            # A solver born late (or rebuilt) inherits every lemma its
            # frame holds.
            for lemma in self.frames.from_level(frame_index):
                created.attach(lemma)
        self.stats.max("pdr_solvers", float(len(self._solvers)))
        return created

    # ------------------------------------------------------------------ #
    # Lemma bookkeeping (mirrors FrameTrace operations)
    # ------------------------------------------------------------------ #

    def attach(self, lemma: Lemma) -> None:
        """Install a fresh lemma into solvers 1..level (those that exist)."""
        for frame_index in range(1, lemma.level + 1):
            solver = self._solvers.get(frame_index)
            if solver is not None:
                solver.attach(lemma)

    def attach_promoted(self, lemma: Lemma) -> None:
        """A lemma just moved up one level: install at its new frame."""
        solver = self._solvers.get(lemma.level)
        if solver is not None:
            solver.attach(lemma)

    def detach(self, lemma: Lemma) -> None:
        for solver in self._solvers.values():
            solver.detach(lemma)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def intersects_bad(
        self, frame_index: int
    ) -> tuple[dict[int, bool], dict[int, bool]] | None:
        """A bad state in F_k with its violating inputs, or ``None``."""
        frame_solver = self.solver(frame_index)
        assumptions = frame_solver.assumptions()
        assumptions.append(frame_solver.bad_lit(self.bad_edge))
        self.stats.incr("sat_calls")
        if frame_solver.solver.solve(assumptions) is SolveResult.SAT:
            return frame_solver.read_state(), frame_solver.read_inputs()
        return None

    def relative_query(
        self, level: int, cube: frozenset[int]
    ) -> tuple[str, object, object]:
        """The consecution query of an obligation ``(cube, level)``.

        Returns ``("sat", predecessor_state, inputs)`` when some
        ``F_{level-1}`` state steps into the cube, else
        ``("unsat", core_cube, None)`` where ``core_cube`` is the subset
        of cube literals whose primed assumptions the refutation used.
        """
        frame_solver = self.solver(level - 1)
        solver = frame_solver.solver
        assumptions = frame_solver.assumptions()
        temp = None
        if level - 1 > 0:
            # ¬cube at the source frame (relative induction).  Frame 0
            # pins the initial state, which never satisfies the cube, so
            # the clause is omitted there.
            temp = solver.add_removable_clause(
                [frame_solver.lit(-lit) for lit in cube]
            )
            assumptions.append(temp)
        primed = {
            frame_solver.lit(lit, primed=True): lit
            for lit in sorted(cube, key=abs)
        }
        assumptions.extend(primed)
        self.stats.incr("sat_calls")
        outcome = solver.solve(assumptions)
        if outcome is SolveResult.SAT:
            result = (
                "sat",
                frame_solver.read_state(),
                frame_solver.read_inputs(),
            )
        else:
            core = solver.core or ()
            result = (
                "unsat",
                frozenset(primed[lit] for lit in core if lit in primed),
                None,
            )
        if temp is not None:
            solver.retire_clause(temp)
            frame_solver.retired += 1
        return result

    def push_query(self, frame_index: int, cube: frozenset[int]) -> bool:
        """True iff F_k ∧ C ∧ T cannot step into the cube (pushable)."""
        frame_solver = self.solver(frame_index)
        assumptions = frame_solver.assumptions()
        assumptions.extend(
            frame_solver.lit(lit, primed=True)
            for lit in sorted(cube, key=abs)
        )
        self.stats.incr("sat_calls")
        return (
            frame_solver.solver.solve(assumptions)
            is not SolveResult.SAT
        )
