"""Recorded clause streams of the time-frame encoder.

Every ``Solver.new_var``/``Solver.add_clause`` call made by bmc,
k-induction, a PDR frame solver, the PDR certificate check and one
interpolation round is logged (with the creating solver's index) and
hashed.  The digests were recorded from the plan-walk encoder that
``Unroller`` used before frames became bound-input ``CnfMapper``\\s: a
change to variable numbering or clause order on any of these paths
changes the solver trajectory and fails here.
"""

import hashlib
import random

import pytest

from repro.aig.graph import TRUE, edge_not
from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.itp.engine import _itp_round
from repro.itp.options import ItpOptions
from repro.mc.bmc import bmc
from repro.mc.induction import k_induction
from repro.pdr import PdrOptions, check_certificate, pdr_reachability
from repro.pdr.solver_pool import FrameSolver
from repro.sat.solver import Solver
from repro.util.stats import StatsBag


def seeded_netlist(seed: int) -> Netlist:
    """A random sequential circuit; odd seeds add an input constraint."""
    rng = random.Random(seed)
    netlist = Netlist(f"stream_{seed}")
    inputs = [netlist.add_input(f"i{k}") for k in range(3)]
    latches = [
        netlist.add_latch(f"l{k}", init=bool(rng.randint(0, 1)))
        for k in range(4)
    ]
    aig = netlist.aig
    pool = inputs + latches
    for _ in range(16):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for latch in latches:
        netlist.set_next(latch, rng.choice(pool) ^ rng.randint(0, 1))
    # "Never this latch cube", which the initial state satisfies.
    cube = TRUE
    for latch in rng.sample(latches, 2):
        init = netlist.init_assignment()[latch >> 1]
        cube = aig.and_(cube, latch ^ int(init))
    netlist.set_property(cube ^ 1)
    if seed % 2:
        netlist.add_constraint(edge_not(aig.and_(inputs[0], inputs[1])))
    netlist.validate()
    return netlist


def constrained_arbiter(safe: bool) -> Netlist:
    netlist = G.arbiter(3, safe=safe)
    aig = netlist.aig
    first, second = (2 * node for node in netlist.input_nodes[:2])
    netlist.add_constraint(edge_not(aig.and_(first, second)))
    return netlist


NETLISTS = {
    "seed0": lambda: seeded_netlist(0),
    "seed1": lambda: seeded_netlist(1),
    "seed2": lambda: seeded_netlist(2),
    "seed3": lambda: seeded_netlist(3),
    "seed4": lambda: seeded_netlist(4),
    "seed5": lambda: seeded_netlist(5),
    "mod_counter": lambda: G.mod_counter(3, 6, with_enable=True),
    "bug_at_depth": lambda: G.bug_at_depth(4),
    "fifo_level": lambda: G.fifo_level(2),
    "johnson_counter": lambda: G.johnson_counter(3),
    "arbiter_constrained": lambda: constrained_arbiter(True),
    "arbiter_buggy_constrained": lambda: constrained_arbiter(False),
}


class _StreamRecorder:
    """Log every new_var/add_clause call on any Solver, in call order."""

    def __init__(self, monkeypatch) -> None:
        self.log: list[tuple] = []
        self._solvers: dict[int, int] = {}
        self._keep: list[Solver] = []  # ids stay unique while recording
        new_var, add_clause = Solver.new_var, Solver.add_clause
        recorder = self

        def logged_new_var(solver):
            var = new_var(solver)
            recorder.log.append((recorder._index(solver), var))
            return var

        def logged_add_clause(solver, lits):
            lits = list(lits)
            recorder.log.append((recorder._index(solver), tuple(lits)))
            return add_clause(solver, lits)

        monkeypatch.setattr(Solver, "new_var", logged_new_var)
        monkeypatch.setattr(Solver, "add_clause", logged_add_clause)

    def _index(self, solver: Solver) -> int:
        key = id(solver)
        if key not in self._solvers:
            self._solvers[key] = len(self._solvers)
            self._keep.append(solver)
        return self._solvers[key]

    def digest(self) -> tuple[int, str]:
        text = repr(self.log).encode()
        return len(self.log), hashlib.sha256(text).hexdigest()[:16]


def run_bmc(netlist, recorder):
    bmc(netlist, max_depth=6)


def run_k_induction(netlist, recorder):
    k_induction(netlist, max_k=4)


def run_frame_solver(netlist, recorder):
    aig = netlist.aig
    bad_edge = aig.and_(
        edge_not(netlist.property_edge), netlist.constraint_edge()
    )
    for pin_init in (True, False):
        frame_solver = FrameSolver(netlist, pin_init=pin_init)
        frame_solver.bad_lit(bad_edge)
        frame_solver.bad_lit(bad_edge)


def run_check_certificate(netlist, recorder):
    result = pdr_reachability(netlist, PdrOptions(certify=False))
    assert result.certificate is not None
    recorder.log.clear()
    check_certificate(netlist, result.certificate)


def run_itp_round(netlist, recorder):
    options = ItpOptions(verify_interpolants=True)
    _itp_round(netlist, 2, options, StatsBag())


RUNS = {
    "bmc": run_bmc,
    "k_induction": run_k_induction,
    "frame_solver": run_frame_solver,
    "check_certificate": run_check_certificate,
    "itp_round": run_itp_round,
}

# (run, netlist) -> (number of logged calls, sha256 prefix of the log);
# check_certificate runs on the netlists whose property holds.
RECORDED = {
    ('bmc', 'arbiter_buggy_constrained'): (30, 'e6c2faeb8aef028d'),
    ('bmc', 'arbiter_constrained'): (340, '9bf8fe872fbe4e3c'),
    ('bmc', 'bug_at_depth'): (356, '08d7d7e2f512bbc1'),
    ('bmc', 'fifo_level'): (586, 'e3775ddf562df9b2'),
    ('bmc', 'johnson_counter'): (144, 'd5261fa8cdd76936'),
    ('bmc', 'mod_counter'): (503, '1a0fdfd5fc85c13a'),
    ('bmc', 'seed0'): (85, '226e1ab6fc13ddf2'),
    ('bmc', 'seed1'): (308, '65a02309fd9f4c22'),
    ('bmc', 'seed2'): (273, '3ce4140a056a3027'),
    ('bmc', 'seed3'): (60, '7d39ec677fac9a3c'),
    ('bmc', 'seed4'): (70, '08ed981c6d626f78'),
    ('bmc', 'seed5'): (84, '435441b9539b90fd'),
    ('check_certificate', 'arbiter_constrained'): (170, '7e70a924fac0608b'),
    ('check_certificate', 'fifo_level'): (120, 'e89a626b1b6abd36'),
    ('check_certificate', 'johnson_counter'): (31, 'fa0dbfd8fc7bf5ac'),
    ('check_certificate', 'mod_counter'): (111, 'ce34308507cd42a8'),
    ('check_certificate', 'seed1'): (93, '287c1f48369d5d48'),
    ('check_certificate', 'seed2'): (78, '6166d97ee3786493'),
    ('frame_solver', 'arbiter_buggy_constrained'): (89, 'a3aa35ff053437ec'),
    ('frame_solver', 'arbiter_constrained'): (121, '2099b158a0697687'),
    ('frame_solver', 'bug_at_depth'): (180, '6a45fb2ed16d6c03'),
    ('frame_solver', 'fifo_level'): (202, 'ea2e313e05ec26cb'),
    ('frame_solver', 'johnson_counter'): (51, '8bbb5c1e6afb4cc2'),
    ('frame_solver', 'mod_counter'): (175, '84591a3316ad1c13'),
    ('frame_solver', 'seed0'): (88, '41cd7cd9c94a2691'),
    ('frame_solver', 'seed1'): (122, '1ac0b82ecbf80ebc'),
    ('frame_solver', 'seed2'): (104, '207e86d7d5533361'),
    ('frame_solver', 'seed3'): (106, 'f7613296e0056378'),
    ('frame_solver', 'seed4'): (128, '2226a6c35f728620'),
    ('frame_solver', 'seed5'): (90, '89da0cdce609a554'),
    ('itp_round', 'arbiter_buggy_constrained'): (96, '1119869e43943238'),
    ('itp_round', 'arbiter_constrained'): (573, '602c96ac34f28bd5'),
    ('itp_round', 'bug_at_depth'): (710, 'a24dfea77e5f9127'),
    ('itp_round', 'fifo_level'): (704, '07cebc4f327f49b1'),
    ('itp_round', 'johnson_counter'): (205, '0389cc3854bc8421'),
    ('itp_round', 'mod_counter'): (1353, 'a240edc98988d728'),
    ('itp_round', 'seed0'): (91, '3d7f26bf12176d7c'),
    ('itp_round', 'seed1'): (497, '3c69f5deac21711e'),
    ('itp_round', 'seed2'): (262, 'e2a8fe8e84835fae'),
    ('itp_round', 'seed3'): (115, 'df954c8cbc277bc6'),
    ('itp_round', 'seed4'): (127, 'fcd5cbb51287d172'),
    ('itp_round', 'seed5'): (99, 'a9224311fa78566c'),
    ('k_induction', 'arbiter_buggy_constrained'): (30, 'e6c2faeb8aef028d'),
    ('k_induction', 'arbiter_constrained'): (430, '4eb4a0b5191ed10f'),
    ('k_induction', 'bug_at_depth'): (918, '4b3a30bade380553'),
    ('k_induction', 'fifo_level'): (125, '8895537ed3617e2b'),
    ('k_induction', 'johnson_counter'): (70, '3da737814a8c3cc8'),
    ('k_induction', 'mod_counter'): (117, 'a1b8858a755e38d1'),
    ('k_induction', 'seed0'): (229, '0182e588c4d9f4d6'),
    ('k_induction', 'seed1'): (243, 'a5b26b3f4df4d247'),
    ('k_induction', 'seed2'): (218, '1b31f569da7556d0'),
    ('k_induction', 'seed3'): (137, '9d843b39d509ada2'),
    ('k_induction', 'seed4'): (157, 'fac77d504e2dd31c'),
    ('k_induction', 'seed5'): (227, '83c2d323c77ac38b'),
}


@pytest.mark.parametrize("run_name, netlist_name", sorted(RECORDED))
def test_unrolling_clause_stream_matches_recorded(
    monkeypatch, run_name, netlist_name
):
    netlist = NETLISTS[netlist_name]()
    recorder = _StreamRecorder(monkeypatch)
    RUNS[run_name](netlist, recorder)
    assert recorder.digest() == RECORDED[run_name, netlist_name]
