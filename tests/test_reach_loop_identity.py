"""The four breadth-first reachability engines, pinned run by run.

Each case records a digest of everything a run reports: status,
``iterations``, the counterexample trace (states, inputs, violation
inputs) and the full stats dict with its counter/gauge split.  The
golden digests were taken from the engines as they stood before their
frontier loops were merged into :mod:`repro.mc.traversal`; a refactor of
the loop must reproduce them bit for bit.

The shared loop adds one stats key the old loops did not write:
``iterations`` on a depth-0 counterexample of ``reach_aig_fwd``,
``reach_bdd`` and ``reach_bdd_fwd``.  No corpus netlist fails at depth 0,
so the digests do not see it; ``test_depth0_counterexample_reports_iterations``
asserts it on its own.
"""

import hashlib
import json

import pytest

from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.mc.engine import verify
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.result import Status

ENGINES = [
    "reach_aig",
    "reach_aig_hybrid",
    "reach_aig_allsat",
    "reach_aig_fwd",
    "reach_bdd",
    "reach_bdd_fwd",
]

CORPUS = {
    "bug_at_depth_4": lambda: G.bug_at_depth(4),
    "mod_counter_en_fail": lambda: G.mod_counter(
        4, 11, safe=False, with_enable=True
    ),
    "mod_counter_safe": lambda: G.mod_counter(4, 12),
    "fifo_level_fail": lambda: G.fifo_level(3, safe=False),
    "one_hot_fsm": lambda: G.one_hot_fsm(5),
}

# Backward runs long enough to compact: with inputs and FAILED, without
# inputs and PROVED.
COMPACTION_CORPUS = {
    "mod_counter_en_fail": CORPUS["mod_counter_en_fail"],
    "johnson_counter_4": lambda: G.johnson_counter(4),
}


def _assignment(values):
    return sorted(values.items()) if values is not None else None


def digest(result) -> str:
    stats = result.stats
    trace = result.trace
    payload = {
        "status": result.status.value,
        "engine": result.engine,
        "iterations": result.iterations,
        "trace": None
        if trace is None
        else [
            [_assignment(s) for s in trace.states],
            [_assignment(i) for i in trace.inputs],
            _assignment(trace.violation_inputs),
        ],
        "stats": sorted(stats.as_dict().items()),
        "gauges": sorted(stats.gauge_keys()),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


GOLDEN = {
    ("bug_at_depth_4", "reach_aig"): "7aa882cd2bc9db27e7bb",
    ("bug_at_depth_4", "reach_aig_hybrid"): "7aa882cd2bc9db27e7bb",
    ("bug_at_depth_4", "reach_aig_allsat"): "7aa882cd2bc9db27e7bb",
    ("bug_at_depth_4", "reach_aig_fwd"): "3185b39df5e0b3d846b9",
    ("bug_at_depth_4", "reach_bdd"): "a3c155efae424792e3f9",
    ("bug_at_depth_4", "reach_bdd_fwd"): "b384905b413c522ba95a",
    ("fifo_level_fail", "reach_aig"): "9689bfa96bd9326c5d6a",
    ("fifo_level_fail", "reach_aig_hybrid"): "9983efda8e140aa1311a",
    ("fifo_level_fail", "reach_aig_allsat"): "3a93b5635d8990b8d195",
    ("fifo_level_fail", "reach_aig_fwd"): "12405ca076deec4f523d",
    ("fifo_level_fail", "reach_bdd"): "16ac2ede97148cdcd710",
    ("fifo_level_fail", "reach_bdd_fwd"): "1313b1105a2d672c3c39",
    ("mod_counter_en_fail", "reach_aig"): "1d127e83b9a3af1da08f",
    ("mod_counter_en_fail", "reach_aig_hybrid"): "99954dbea1060568cbc2",
    ("mod_counter_en_fail", "reach_aig_allsat"): "4f840c65cd1c0fc6f49a",
    ("mod_counter_en_fail", "reach_aig_fwd"): "42285f2cb16e2ee7bb9a",
    ("mod_counter_en_fail", "reach_bdd"): "441bf84092397fe202b8",
    ("mod_counter_en_fail", "reach_bdd_fwd"): "283b90e85c206e3b39f3",
    ("mod_counter_safe", "reach_aig"): "7372894ca6905d130fa5",
    ("mod_counter_safe", "reach_aig_hybrid"): "7372894ca6905d130fa5",
    ("mod_counter_safe", "reach_aig_allsat"): "7372894ca6905d130fa5",
    ("mod_counter_safe", "reach_aig_fwd"): "0e5419ba7c0198911c79",
    ("mod_counter_safe", "reach_bdd"): "1e53cf13a0907b7e2f0a",
    ("mod_counter_safe", "reach_bdd_fwd"): "6367b0c46c0c243e45c0",
    ("one_hot_fsm", "reach_aig"): "2efe446d70ccfadd630a",
    ("one_hot_fsm", "reach_aig_hybrid"): "49253562f65b6b64ea27",
    ("one_hot_fsm", "reach_aig_allsat"): "3213997b6df020e133de",
    ("one_hot_fsm", "reach_aig_fwd"): "5589988bcf8baab4cb96",
    ("one_hot_fsm", "reach_bdd"): "6b9a3059d5e984204968",
    ("one_hot_fsm", "reach_bdd_fwd"): "99f810d5cfcfef0b6e2e",
    ("unknown_2", "reach_aig"): "10666f16b4626bcf1e77",
    ("unknown_2", "reach_aig_hybrid"): "86b11bd225823f294605",
    ("unknown_2", "reach_aig_allsat"): "604ff69d9b6dbe1ec2bd",
    ("unknown_2", "reach_aig_fwd"): "2a1c7f97f07b2a79d8b9",
    ("unknown_2", "reach_bdd"): "7073ed055cca5a8264d1",
    ("unknown_2", "reach_bdd_fwd"): "4853bb3bd2a19d31f764",
}

COMPACTION_GOLDEN = {
    ("johnson_counter_4", False): "90ae84f45b5ef6a28a5a",
    ("johnson_counter_4", True): "0d9ac3d3474471cb4a8a",
    ("mod_counter_en_fail", False): "afe8fea3ba26fc45c4d2",
    ("mod_counter_en_fail", True): "54e695d88dbd83de06c3",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_engine_digest(name, engine):
    result = verify(CORPUS[name](), method=engine)
    assert digest(result) == GOLDEN[name, engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_digest(engine):
    result = verify(CORPUS["mod_counter_en_fail"](), method=engine, max_depth=2)
    assert result.status is Status.UNKNOWN
    assert "iterations" not in result.stats
    assert digest(result) == GOLDEN["unknown_2", engine]


@pytest.mark.parametrize("fraig", [False, True], ids=["plain", "fraig"])
@pytest.mark.parametrize("name", sorted(COMPACTION_CORPUS))
def test_compaction_digest(name, fraig):
    engine = BackwardReachability(
        COMPACTION_CORPUS[name](),
        ReachOptions(compact_every=1, fraig_compaction=fraig),
    )
    result = engine.run()
    assert result.stats.get("compactions") >= 1
    assert digest(result) == COMPACTION_GOLDEN[name, fraig]


def _stuck_at_one() -> Netlist:
    """One latch ``a``: init 1, next ``a``, property ``NOT a``."""
    n = Netlist("stuck_at_one")
    a = n.add_latch("a", init=True)
    n.set_next(a, a)
    n.set_property(a ^ 1)
    n.validate()
    return n


@pytest.mark.parametrize(
    "engine", ["reach_aig", "reach_aig_fwd", "reach_bdd", "reach_bdd_fwd"]
)
def test_depth0_counterexample_reports_iterations(engine):
    result = verify(_stuck_at_one(), method=engine)
    assert result.status is Status.FAILED
    assert result.iterations == 0
    assert result.trace.depth == 0
    assert result.stats.get("iterations", None) == result.iterations


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_decided_runs_report_iterations(name, engine):
    result = verify(CORPUS[name](), method=engine)
    assert result.status in (Status.PROVED, Status.FAILED)
    assert result.stats.get("iterations", None) == result.iterations
