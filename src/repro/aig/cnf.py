"""Tseitin encoding of AIG cones into CNF.

:class:`CnfMapper` keeps a persistent node-to-variable map over one solver
instance, so several cones (and several checks) share a clause database —
the exact workflow the paper built on top of ZChaff: "we load the clause
database once and for-all, and we factorize several checks together within
a single ZChaff run".

Encoding is incremental and pruned: a query walks the fanin cone only down
to nodes some earlier query already encoded.  The encoded set is
fanin-closed, so the post-order of the new nodes is exactly the one a full
:meth:`Aig.cone` walk gives — variable numbering and clause order do not
depend on what was encoded before, only on which nodes were.  A query on
a long-lived mapper therefore costs the new nodes only, and reading a
model costs the encoded inputs only.

A mapper built with ``bound`` inputs (node -> existing variable) encodes
over exactly those leaves and rejects any other input.  That is how the
time-frame expansion of :mod:`repro.mc.unroll` works — one bound mapper
per frame over the shared solver, its latches and inputs bound to that
frame's variables — and how :func:`repro.itp.interpolant.verify_interpolant`
encodes an interpolant over the shared variables of a partition, so this
module holds the only Tseitin encoder of AND gates.

The clause sink is anything with ``new_var``/``add_clause``: a
:class:`~repro.sat.solver.Solver` for incremental checks, or a
:class:`~repro.sat.cnf.CNF` for the standalone :func:`edge_to_cnf`.
"""

from __future__ import annotations

from repro.aig.graph import Aig
from repro.errors import AigError
from repro.sat.cnf import CNF
from repro.sat.solver import Solver


class CnfMapper:
    """Incrementally encode AIG nodes as CNF variables in one solver.

    >>> aig = Aig()
    >>> a, b = aig.add_input(), aig.add_input()
    >>> f = aig.and_(a, b)
    >>> mapper = CnfMapper(aig, Solver())
    >>> lit = mapper.lit_for(f)
    >>> mapper.solver.solve([lit])         # is a AND b satisfiable?
    <SolveResult.SAT: 'sat'>
    """

    def __init__(
        self,
        aig: Aig,
        solver: Solver | CNF | None = None,
        bound: dict[int, int] | None = None,
    ) -> None:
        self.aig = aig
        self.solver = solver if solver is not None else Solver()
        # ``bound`` (node -> var) fixes the leaves up front; reaching any
        # other input is then an error instead of a fresh variable.
        self._node_var: dict[int, int] = dict(bound) if bound else {}
        self._bound = bound is not None
        # The inputs this mapper allocated, in encoding order (a subset
        # of _node_var; bound leaves belong to the caller).
        self._input_var: dict[int, int] = {}
        self._const_var: int | None = None

    def _var_for_const(self) -> int:
        if self._const_var is None:
            self._const_var = self.solver.new_var()
            self.solver.add_clause([-self._const_var])  # constant FALSE
        return self._const_var

    def var_for_node(self, node: int) -> int:
        """The solver variable carrying this node's value (encode if new)."""
        node_var = self._node_var
        existing = node_var.get(node)
        if existing is not None:
            return existing
        if node == 0:
            return self._var_for_const()
        aig = self.aig
        solver = self.solver
        # Iterative post-order DFS (recursion-free for deep AIGs), cut at
        # already-encoded nodes; same visiting order as Aig.cone.
        seen: set[int] = set()
        stack: list[tuple[int, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if not expanded:
                if current in seen or current in node_var or current == 0:
                    continue
                seen.add(current)
                stack.append((current, True))
                if aig.is_and(current):
                    f0, f1 = aig.fanins(current)
                    stack.append((f0 >> 1, False))
                    stack.append((f1 >> 1, False))
                continue
            if aig.is_input(current):
                if self._bound:
                    raise AigError(f"input node {current} is not bound")
                var = solver.new_var()
                node_var[current] = var
                self._input_var[current] = var
                continue
            f0, f1 = aig.fanins(current)
            a = self._edge_lit_encoded(f0)
            b = self._edge_lit_encoded(f1)
            out = solver.new_var()
            node_var[current] = out
            # out <-> a AND b
            solver.add_clause([-out, a])
            solver.add_clause([-out, b])
            solver.add_clause([out, -a, -b])
        return node_var[node]

    def _edge_lit_encoded(self, edge: int) -> int:
        node = edge >> 1
        if node == 0:
            var = self._var_for_const()
        else:
            var = self._node_var[node]
        return -var if edge & 1 else var

    def lit_for(self, edge: int) -> int:
        """DIMACS literal equivalent to the edge (encoding its cone).

        The constant node is backed by a variable pinned to false, so the
        FALSE edge maps to that (unsatisfiable) literal and TRUE to its
        negation.  An edge outside the AIG raises :class:`AigError`.
        """
        var = self._node_var.get(edge >> 1)
        if var is None:
            self.aig._check_edge(edge)
            var = self.var_for_node(edge >> 1)
        return -var if edge & 1 else var

    def input_literal(self, input_node: int) -> int:
        """The literal of a primary input (useful for model extraction)."""
        if not self.aig.is_input(input_node):
            raise AigError(f"node {input_node} is not an input")
        return self.var_for_node(input_node)

    def model_inputs(self) -> dict[int, bool]:
        """Read back input values from the solver's last model.

        Inputs encoded after the last solve are absent.
        """
        if not self._input_var:
            return {}
        model = self.solver.model
        size = len(model)
        return {
            node: model[var - 1]
            for node, var in self._input_var.items()
            if var <= size
        }


def edge_to_cnf(aig: Aig, edge: int) -> tuple[CNF, int, dict[int, int]]:
    """Standalone Tseitin encoding of one edge.

    Returns ``(cnf, root_literal, input_node_to_var)``.  Asserting
    ``root_literal`` makes the CNF equisatisfiable with the edge function;
    the FALSE edge maps to a pinned-false (unsatisfiable) literal.
    """
    mapper = CnfMapper(aig, CNF())
    root = mapper.lit_for(edge)
    return mapper.solver, root, dict(mapper._input_var)
