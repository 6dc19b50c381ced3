"""Tests for Tseitin encoding: CnfMapper and standalone edge_to_cnf."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.cnf import CnfMapper, edge_to_cnf
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import or_, xor
from repro.aig.simulate import eval_edge
from repro.errors import AigError
from repro.sat.solver import SolveResult, Solver
from tests.conftest import build_random_aig


class TestCnfMapper:
    def test_satisfiable_edge(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        mapper = CnfMapper(aig)
        lit = mapper.lit_for(aig.and_(a, b))
        assert mapper.solver.solve([lit]) is SolveResult.SAT

    def test_unsatisfiable_edge(self):
        aig = Aig()
        a = aig.add_input()
        mapper = CnfMapper(aig)
        # a AND NOT a folds to FALSE at construction:
        lit = mapper.lit_for(aig.and_(a, edge_not(a)))
        assert mapper.solver.solve([lit]) is SolveResult.UNSAT

    def test_constant_edges(self):
        aig = Aig()
        mapper = CnfMapper(aig)
        assert mapper.solver.solve([mapper.lit_for(TRUE)]) is SolveResult.SAT
        assert mapper.solver.solve([mapper.lit_for(FALSE)]) is SolveResult.UNSAT

    def test_model_matches_simulation(self):
        aig, inputs, root = build_random_aig(5, 25, seed=21)
        mapper = CnfMapper(aig)
        lit = mapper.lit_for(root)
        if mapper.solver.solve([lit]) is SolveResult.SAT:
            assignment = mapper.model_inputs()
            assert eval_edge(aig, root, assignment)

    def test_shared_encoding_two_edges(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = or_(aig, a, b)
        mapper = CnfMapper(aig)
        lit_f = mapper.lit_for(f)
        vars_after_f = mapper.solver.num_vars
        lit_g = mapper.lit_for(g)
        # g shares the inputs already encoded; only new gate vars appear.
        assert mapper.solver.num_vars <= vars_after_f + 2
        # f implies g: f AND NOT g unsatisfiable.
        assert mapper.solver.solve([lit_f, -lit_g]) is SolveResult.UNSAT

    def test_complement_edge_literal(self):
        aig = Aig()
        a = aig.add_input()
        mapper = CnfMapper(aig)
        assert mapper.lit_for(edge_not(a)) == -mapper.lit_for(a)

    def test_input_literal(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig)
        lit = mapper.lit_for(f)
        assert mapper.solver.solve(
            [lit, -mapper.input_literal(a >> 1)]
        ) is SolveResult.UNSAT

    def test_input_literal_non_input_rejected(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig)
        mapper.lit_for(f)
        with pytest.raises(AigError):
            mapper.input_literal(f >> 1)

    @pytest.mark.parametrize("edge", [10**6, -3])
    def test_foreign_edge_rejected(self, edge):
        aig = Aig()
        aig.add_inputs(2)
        mapper = CnfMapper(aig)
        with pytest.raises(AigError, match="does not belong"):
            mapper.lit_for(edge)
        assert mapper.solver.num_vars == 0

    def test_bound_mapper_encodes_over_bound_leaves_only(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        solver = Solver()
        va, vb = solver.new_var(), solver.new_var()
        mapper = CnfMapper(aig, solver, {a >> 1: va, b >> 1: vb})
        lit = mapper.lit_for(aig.and_(a, edge_not(b)))
        assert solver.solve([lit, -va]) is SolveResult.UNSAT
        assert solver.solve([lit, vb]) is SolveResult.UNSAT
        assert mapper.var_for_node(b >> 1) == vb
        with pytest.raises(AigError, match=f"input node {c >> 1} is not bound"):
            mapper.lit_for(aig.and_(a, c))

    def test_miter_check_equivalent(self):
        # (a AND b) == NOT(NOT a OR NOT b): miter is UNSAT.
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = edge_not(or_(aig, edge_not(a), edge_not(b)))
        assert f == g  # hashing already merges them!
        mapper = CnfMapper(aig)
        # A structurally different equivalent pair:
        h = edge_not(xor(aig, f, FALSE ^ 0))  # NOT (f XOR 0) == NOT f... build directly
        lit_f = mapper.lit_for(f)
        lit_g = mapper.lit_for(g)
        assert mapper.solver.solve([lit_f, -lit_g]) is SolveResult.UNSAT
        assert mapper.solver.solve([-lit_f, lit_g]) is SolveResult.UNSAT


class TestEdgeToCnf:
    def test_equisatisfiability(self):
        aig, inputs, root = build_random_aig(4, 18, seed=22)
        cnf, lit, input_vars = edge_to_cnf(aig, root)
        cnf.add_clause([lit])
        solver = Solver(cnf)
        from repro.aig.simulate import truth_table

        has_onset = truth_table(aig, root, [e >> 1 for e in inputs]) != 0
        assert (solver.solve() is SolveResult.SAT) == has_onset

    def test_constant_edges(self):
        aig = Aig()
        cnf_t, lit_t, _ = edge_to_cnf(aig, TRUE)
        cnf_t.add_clause([lit_t])
        assert Solver(cnf_t).solve() is SolveResult.SAT
        cnf_f, lit_f, _ = edge_to_cnf(aig, FALSE)
        cnf_f.add_clause([lit_f])
        assert Solver(cnf_f).solve() is SolveResult.UNSAT

    def test_input_map_returned(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        cnf, lit, input_vars = edge_to_cnf(aig, f)
        assert set(input_vars) == {a >> 1, b >> 1}

    def test_model_projects_to_onset(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(aig.and_(a, edge_not(b)), c)
        cnf, lit, input_vars = edge_to_cnf(aig, f)
        cnf.add_clause([lit])
        solver = Solver(cnf)
        assert solver.solve() is SolveResult.SAT
        assignment = {
            node: solver.value(var) for node, var in input_vars.items()
        }
        assert eval_edge(aig, f, assignment)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cnf_equisat_property(seed):
    """SAT(edge asserted) iff the function has a non-empty onset."""
    from repro.aig.simulate import truth_table

    aig, inputs, root = build_random_aig(4, 15, seed=seed)
    mapper = CnfMapper(aig)
    lit = mapper.lit_for(root)
    result = mapper.solver.solve([lit])
    onset_nonempty = truth_table(aig, root, [e >> 1 for e in inputs]) != 0
    assert (result is SolveResult.SAT) == onset_nonempty


# edge_to_cnf(build_random_aig(6, 60, seed)) as recorded from the
# standalone full-cone encoder it replaced: (seed, num_vars, num_clauses,
# root literal, input map items, sha256 prefix of repr(cnf.clauses)).
RECORDED_EDGE_TO_CNF = [
    (0, 17, 39, 17, [(4, 1), (1, 2), (2, 4), (5, 8)], "2fd26871bb0fbcf2"),
    (1, 14, 27, 14, [(3, 1), (2, 2), (1, 4), (5, 6), (6, 10)], "0d341642b09486de"),
    (2, 10, 18, -10, [(5, 1), (1, 2), (3, 4), (6, 6)], "02f8596f74350930"),
    (3, 18, 39, 18, [(3, 1), (1, 2), (6, 4), (5, 5), (2, 7)], "1bac18a42981ec2c"),
    (4, 19, 42, 19, [(5, 1), (1, 2), (4, 4), (3, 6), (2, 8)], "05d8f6c28838699f"),
    (5, 13, 24, 13, [(5, 1), (3, 2), (6, 4), (4, 6), (1, 7)], "bd1615446fb72fdd"),
    (6, 1, 1, 1, [], "15d515f12947b3bd"),
    (7, 18, 42, 18, [(4, 1), (3, 2), (2, 5), (1, 7)], "3b6929db8613ebad"),
    (8, 21, 48, -21, [(4, 1), (2, 2), (3, 4), (1, 6), (5, 12)], "3161d06f4fea30d9"),
    (9, 8, 15, 8, [(4, 1), (3, 2), (1, 5)], "ba9ca732feb6a3b8"),
]


@pytest.mark.parametrize("case", RECORDED_EDGE_TO_CNF, ids=lambda c: f"seed{c[0]}")
def test_edge_to_cnf_matches_recorded_encoding(case):
    seed, num_vars, num_clauses, root_lit, input_items, digest = case
    aig, _, root = build_random_aig(6, 60, seed=seed)
    cnf, lit, input_vars = edge_to_cnf(aig, root)
    assert (cnf.num_vars, cnf.num_clauses, lit) == (num_vars, num_clauses, root_lit)
    assert list(input_vars.items()) == input_items
    assert hashlib.sha256(repr(cnf.clauses).encode()).hexdigest()[:16] == digest


class _RecordingSink:
    """A clause sink that logs every new_var/add_clause call in order."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.log: list[tuple] = []

    def new_var(self) -> int:
        self.num_vars += 1
        self.log.append(("var", self.num_vars))
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.log.append(("clause", tuple(lits)))


class _FullConeMapper(CnfMapper):
    """Reference encoder: walks the whole Aig.cone on every query."""

    def var_for_node(self, node: int) -> int:
        existing = self._node_var.get(node)
        if existing is not None:
            return existing
        if node == 0:
            return self._var_for_const()
        for cone_node in self.aig.cone([2 * node]):
            if cone_node in self._node_var:
                continue
            if self.aig.is_input(cone_node):
                self._node_var[cone_node] = self.solver.new_var()
                continue
            f0, f1 = self.aig.fanins(cone_node)
            a = self._edge_lit_encoded(f0)
            b = self._edge_lit_encoded(f1)
            out = self.solver.new_var()
            self._node_var[cone_node] = out
            self.solver.add_clause([-out, a])
            self.solver.add_clause([-out, b])
            self.solver.add_clause([out, -a, -b])
        return self._node_var[node]


def _random_edges(seed: int, num_inputs: int, num_gates: int):
    rng = random.Random(seed)
    aig = Aig()
    edges = [FALSE, TRUE] + aig.add_inputs(num_inputs)
    for _ in range(num_gates):
        a = rng.choice(edges) ^ rng.randint(0, 1)
        b = rng.choice(edges) ^ rng.randint(0, 1)
        edges.append(aig.and_(a, b))
    return aig, edges


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=15),
)
def test_pruned_encoding_matches_full_cone_walk(seed, picks):
    """Interleaved queries emit the same var/clause sequence as the old walk."""
    aig, edges = _random_edges(seed, 5, 40)
    pruned = CnfMapper(aig, _RecordingSink())
    reference = _FullConeMapper(aig, _RecordingSink())
    for pick in picks:
        edge = edges[pick % len(edges)] ^ (pick // len(edges) & 1)
        if pick % 3 == 0 and aig.is_input(edge >> 1):
            assert pruned.input_literal(edge >> 1) == reference.input_literal(
                edge >> 1
            )
        else:
            assert pruned.lit_for(edge) == reference.lit_for(edge)
        assert pruned.solver.log == reference.solver.log
    assert list(pruned._node_var.items()) == list(reference._node_var.items())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_model_inputs_reads_every_encoded_input(seed):
    """The input index gives what a scan of all encoded nodes gives."""
    aig, edges = _random_edges(seed, 6, 40)
    mapper = CnfMapper(aig)
    rng = random.Random(seed)
    for _ in range(4):
        lit = mapper.lit_for(rng.choice(edges))
        if mapper.solver.solve([lit]) is not SolveResult.SAT:
            continue
        scanned = {
            node: mapper.solver.value(var)
            for node, var in mapper._node_var.items()
            if aig.is_input(node)
        }
        assert mapper.model_inputs() == scanned
    # Inputs encoded after the last solve have no value yet.
    fresh = aig.add_input()
    mapper.lit_for(fresh)
    if mapper.solver.solve([]) is SolveResult.SAT:
        mapper.lit_for(aig.and_(aig.add_input(), fresh))
        assert len(mapper.model_inputs()) == len(mapper._input_var) - 1
