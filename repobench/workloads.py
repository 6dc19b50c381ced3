"""Seeded inputs of the four workloads.

Every task is made from the seed alone: the family, its parameters and a
seeded scramble of latch and input order (so two tasks of one family and
size are different netlists to the structural-hash cache).  The program
only ever sees the generated ``Netlist``s and AIGs.  Each task carries the
verdict and shortest counterexample depth known by construction.

The draw is stratified: every seed gets the same number of tasks per
family, with parameters from narrow bands, so the total work of a batch
varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

from repro.aig.graph import edge_not
from repro.circuits import combinational as C
from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.circuits.parse import serialize_netlist
from repro.core.substitution import preimage_by_substitution
from repro.portfolio.hashing import structural_hash


@dataclass
class SeqTask:
    """One netlist with its known answer, verified by each engine in turn."""

    family: str
    params: dict
    engines: list[str]
    netlist: Netlist
    expect: str          # "proved" or "failed"
    depth: int | None    # shortest counterexample depth when failed

    def describe(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "engines": self.engines,
            "expect": self.expect,
            "depth": self.depth,
        }


@dataclass
class QuantifyQuery:
    """``exists variables . edge`` on ``aig``."""

    family: str
    params: dict
    aig: object
    edge: int
    variables: list[int] = field(default_factory=list)

    def describe(self) -> dict:
        return {"family": self.family, "params": self.params,
                "vars": len(self.variables)}


# --------------------------------------------------------------------- #
# Sequential families: name -> (builder, expected verdict, cex depth)
# --------------------------------------------------------------------- #

def _mod_counter(width, modulus, safe):
    n = G.mod_counter(width, modulus, safe=safe, with_enable=True)
    return n, ("proved", None) if safe else ("failed", modulus - 1)


def _bug(depth, width):
    return G.bug_at_depth(depth, width), ("failed", depth)


def _arbiter(clients, safe):
    return G.arbiter(clients, safe), ("proved", None) if safe else ("failed", 0)


def _one_hot(states, safe):
    n = G.one_hot_fsm(states, safe)
    return n, ("proved", None) if safe else ("failed", 1)


def _fifo(bits, safe):
    return G.fifo_level(bits, safe), ("proved", None) if safe else ("failed", 1)


def _johnson(width, safe):
    n = G.johnson_counter(width, safe)
    return n, ("proved", None) if safe else ("failed", 1)


BUILDERS = {
    "mod_counter_en": _mod_counter,
    "bug_at_depth": _bug,
    "arbiter": _arbiter,
    "one_hot_fsm": _one_hot,
    "fifo_level": _fifo,
    "johnson_counter": _johnson,
}

# Strata of the closed-loop sequential draw: (family, count, parameter
# band).  Each task draws one parameter tuple from its band; every count
# is a multiple of its band's length, so each seed gets the same mix.
SEQ_STRATA = [
    ("mod_counter_en", 20, [(4, m, False) for m in range(9, 13)]),
    ("mod_counter_en", 12, [(4, m, True) for m in (11, 13, 15)]),
    ("bug_at_depth", 25, [(d, 5) for d in range(8, 13)]),
    ("arbiter", 18, [(c, True) for c in (5, 6)]),
    ("arbiter", 9, [(c, False) for c in (8, 9, 10)]),
    ("one_hot_fsm", 21, [(s, True) for s in (7, 8, 9)]),
    ("one_hot_fsm", 12, [(s, False) for s in (6, 7)]),
    ("fifo_level", 15, [(b, True) for b in (6, 7, 8)]),
    ("fifo_level", 10, [(b, False) for b in (7, 8)]),
    ("johnson_counter", 18, [(w, True) for w in (5, 6, 7)]),
    ("johnson_counter", 9, [(w, False) for w in (6, 8, 10)]),
]

# reach_paper: mostly the paper's backward engine, some of its variants
# (reach_aig_allsat is the Sec. 4 all-SAT baseline, the one caller of
# mc.preimage_sat: the hybrid engine finds no residual inputs here),
# dealt in this order over each stratum's tasks sorted by size.
# reach_aig_fwd is kept off families where one task would dominate a batch.
PAPER_ENGINES = ["reach_aig", "reach_aig_hybrid", "reach_aig", "reach_aig_fwd",
                 "reach_aig", "reach_aig_allsat", "reach_aig"]
FWD_FAMILIES = {"bug_at_depth", "arbiter", "johnson_counter", "mod_counter_en"}


def _incremental_engines(family: str, expect: str) -> list[str]:
    """Engines every reach_incremental netlist runs through: bmc only
    where it can decide, itp not on the safe one-hot and Johnson
    machines, where its interpolants converge slowly."""
    if expect == "failed":
        return ["bmc", "pdr", "itp", "reach_bdd"]
    if family in ("johnson_counter", "one_hot_fsm"):
        return ["pdr", "reach_bdd"]
    return ["pdr", "itp", "reach_bdd"]


def balanced(rng: random.Random, band: list, count: int) -> list:
    """``count`` draws from ``band`` in which every entry appears equally
    often (up to one), in seeded order: the batch's mix is the same for
    every seed while the individual tasks are not."""
    start = rng.randrange(len(band))
    picks = [band[(start + k) % len(band)] for k in range(count)]
    rng.shuffle(picks)
    return picks


def scramble(netlist: Netlist, rng: random.Random, tag: str) -> Netlist:
    """The same circuit with latches and inputs created in a seeded order."""
    aig = netlist.aig
    out = Netlist(f"{netlist.name}.{tag}")
    latches = list(netlist.latches)
    inputs = list(netlist.input_nodes)
    rng.shuffle(latches)
    rng.shuffle(inputs)
    edges = {0: 0}
    for k, latch in enumerate(latches):
        edges[latch.node] = out.add_latch(f"l{k}", init=latch.init)
    for k, node in enumerate(inputs):
        edges[node] = out.add_input(f"i{k}")

    def edge(e: int) -> int:
        return edges[e >> 1] ^ (e & 1)

    roots = [latch.next_edge for latch in latches]
    roots.append(netlist.property_edge)
    roots.extend(netlist.constraints)
    for node in aig.cone(roots):
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            edges[node] = out.aig.and_(edge(f0), edge(f1))
    for latch in latches:
        out.set_next(edges[latch.node], edge(latch.next_edge))
    out.set_property(edge(netlist.property_edge))
    for constraint in netlist.constraints:
        out.add_constraint(edge(constraint))
    out.validate()
    return out


def _draw_sequential(seed: int) -> list[list[SeqTask]]:
    """The netlist draw shared by reach_paper and reach_incremental, as
    one list of tasks (engine not yet chosen) per stratum."""
    rng = random.Random(seed)
    strata = []
    seen: set[str] = set()
    for family, count, band in SEQ_STRATA:
        stratum = []
        for params in balanced(rng, band, count):
            base, (expect, depth) = BUILDERS[family](*params)
            # Re-scramble until the structure is new to this batch.
            while True:
                netlist = scramble(base, rng, f"s{len(seen)}")
                digest = structural_hash(netlist)
                if digest not in seen:
                    seen.add(digest)
                    break
            stratum.append(SeqTask(family, _params_dict(family, params), [],
                                   netlist, expect, depth))
        strata.append(stratum)
    return strata


def _params_dict(family: str, params: tuple) -> dict:
    keys = {
        "mod_counter_en": ("width", "modulus", "safe"),
        "bug_at_depth": ("depth", "width"),
        "arbiter": ("clients", "safe"),
        "one_hot_fsm": ("states", "safe"),
        "fifo_level": ("bits", "safe"),
        "johnson_counter": ("width", "safe"),
    }[family]
    return dict(zip(keys, params))


def reach_paper_tasks(seed: int) -> list[SeqTask]:
    """One engine per netlist, dealt over each stratum sorted by size, so
    every engine sees the same mix of sizes whatever the seed."""
    tasks = []
    for stratum in _draw_sequential(seed):
        engines = [
            "reach_aig" if e == "reach_aig_fwd" and stratum[0].family not in FWD_FAMILIES
            else e
            for e in PAPER_ENGINES
        ]
        ordered = sorted(stratum, key=lambda t: list(t.params.values()))
        for k, task in enumerate(ordered):
            task.engines = [engines[k % len(engines)]]
        tasks.extend(stratum)
    random.Random(seed).shuffle(tasks)
    return tasks


def reach_incremental_tasks(seed: int) -> list[SeqTask]:
    """Every netlist of the draw through each of its engines, as one task."""
    tasks = [task for stratum in _draw_sequential(seed) for task in stratum]
    for task in tasks:
        task.engines = _incremental_engines(task.family, task.expect)
    random.Random(seed).shuffle(tasks)
    return tasks


# --------------------------------------------------------------------- #
# quantify: combinational t1 families and one-step pre-images
# --------------------------------------------------------------------- #

def _random_logic(inputs, gates, seed):
    """random_logic rooted at its gate with the largest cone.

    The family's own root is one late gate whose cone is a handful of
    nodes; its largest gate keeps it random logic (low cofactor
    similarity) with a real cone.
    """
    aig, _, _ = C.random_logic(inputs, gates, seed=seed)
    node = max(aig.and_nodes(), key=lambda n: (aig.cone_and_count(2 * n), n))
    cone = set(aig.cone([2 * node]))
    support = [e for e in aig.input_edges if e >> 1 in cone]
    return aig, support, 2 * node


# (family, count, builder, parameter band, band of k = variables
# quantified); counts are multiples of both bands' lengths.
COMB_STRATA = [
    ("comparator", 54, C.comparator, [(9,), (10,)], (5,)),
    ("adder_sum_parity", 22, C.adder_sum_parity, [(6,)], (4, 5)),
    ("random_logic", 36, _random_logic, [(16, 300)], (6, 7)),
    ("equality_with_constant_slices", 72, C.equality_with_constant_slices,
     [(5, 4), (6, 3), (6, 4)], (7, 8)),
]

# mux_of_variants quantifies its select input first: (terms, similar), k
MUX_STRATUM = ("mux_of_variants", 36,
               [(t, sim) for t in (8, 10, 12) for sim in (True, False)], (4, 6, 8))

# One-step pre-image queries: the function is pre(!P & constraints) over
# latches and inputs; the inputs are quantified.
PRE_STRATA = [
    ("arbiter", 28, [(c, True) for c in (5, 6)]),
    ("one_hot_fsm", 24, [(s, safe) for s in (7, 8) for safe in (True, False)]),
    ("fifo_level", 24, [(b, True) for b in (5, 6, 7)]),
]


def quantify_queries(seed: int) -> list[QuantifyQuery]:
    rng = random.Random(seed)
    queries = []
    for family, count, build, band, k_band in COMB_STRATA:
        for params, k in zip(balanced(rng, band, count),
                             balanced(rng, list(k_band), count)):
            if build is _random_logic:
                params = params + (rng.randrange(10**6),)
            aig, inputs, root = build(*params)
            variables = [e >> 1 for e in inputs]
            chosen = rng.sample(variables, min(k, len(variables)))
            queries.append(QuantifyQuery(
                family, {"params": list(params), "k": len(chosen)}, aig, root,
                chosen))
    family, count, band, k_band = MUX_STRATUM
    for params, k in zip(balanced(rng, band, count),
                         balanced(rng, list(k_band), count)):
        aig, inputs, root = C.mux_of_variants(*params)
        queries.append(QuantifyQuery(
            family, {"params": list(params), "k": k}, aig, root,
            [e >> 1 for e in inputs[:k]]))
    for family, count, band in PRE_STRATA:
        for params in balanced(rng, band, count):
            base, _ = BUILDERS[family](*params)
            netlist = scramble(base, rng, f"q{len(queries)}")
            aig = netlist.aig
            target = edge_not(netlist.property_edge)
            for constraint in netlist.constraints:
                target = aig.and_(target, constraint)
            pre = preimage_by_substitution(aig, target, netlist.next_functions())
            queries.append(QuantifyQuery(
                f"preimage.{family}", _params_dict(family, params), aig, pre,
                list(netlist.input_nodes)))
    rng.shuffle(queries)
    return queries


# --------------------------------------------------------------------- #
# service: small jobs, a third resubmitted under renamed signals
# --------------------------------------------------------------------- #

SERVICE_STRATA = [
    ("mod_counter_en", [(3, m, s) for m in (5, 6, 7) for s in (True, False)]),
    ("bug_at_depth", [(d, w) for d in (4, 5, 6, 7) for w in (4, 5)]),
    ("arbiter", [(c, s) for c in (3, 4) for s in (True, False)]),
    ("one_hot_fsm", [(s, safe) for s in (4, 5) for safe in (True, False)]),
    ("fifo_level", [(b, safe) for b in (3, 4) for safe in (True, False)]),
    ("johnson_counter", [(w, s) for w in (4, 5) for s in (True, False)]),
]


@dataclass
class ServiceJob:
    index: int
    family: str
    params: dict
    engine: str
    text: str
    netlist: Netlist
    expect: str
    depth: int | None
    resubmit_of: int | None   # index of the job whose netlist this renames

    def describe(self) -> dict:
        return {"family": self.family, "params": self.params,
                "engine": self.engine, "expect": self.expect,
                "resubmit_of": self.resubmit_of}


_TOKEN = re.compile(r"!?[A-Za-z_][A-Za-z0-9_.]*")
_KEYWORDS = {"netlist", "input", "latch", "and", "next", "output",
             "property", "constraint"}


def rename_signals(text: str, tag: str) -> str:
    """The same netlist text with every signal name prefixed by ``tag``."""
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] not in _KEYWORDS or parts[0] == "netlist":
            lines.append(line)
            continue
        renamed = [parts[0]]
        for k, token in enumerate(parts[1:], start=1):
            if parts[0] == "latch" and k == 2:
                renamed.append(token)
            elif _TOKEN.fullmatch(token):
                bang = "!" if token.startswith("!") else ""
                renamed.append(f"{bang}{tag}{token.lstrip('!')}")
            else:
                renamed.append(token)
        lines.append(" ".join(renamed))
    return "\n".join(lines) + "\n"


def service_jobs(seed: int, count: int) -> list[ServiceJob]:
    """``count`` jobs in send order; every third (after the first nine)
    is a resubmission of a job sent at least eight jobs earlier, so its
    verdict is normally stored by the time the renamed copy arrives."""
    rng = random.Random(seed)
    combos = {}
    for family, band in SERVICE_STRATA:
        pairs = []
        for params in band:
            expect = BUILDERS[family](*params)[1][0]
            engines = (["bmc", "pdr", "reach_bdd", "reach_aig"]
                       if expect == "failed" else ["pdr", "reach_bdd", "reach_aig"])
            pairs.extend((params, engine) for engine in engines)
        rng.shuffle(pairs)
        combos[family] = itertools.cycle(pairs)
    jobs: list[ServiceJob] = []
    fresh: list[int] = []
    # A fresh job must miss the result cache, which is keyed by the
    # netlist's structure and the engine.
    seen: set[tuple[str, str]] = set()
    for index in range(count):
        if index >= 9 and index % 3 == 2:
            source = jobs[rng.choice(fresh[:-8])]
            jobs.append(ServiceJob(
                index, source.family, source.params, source.engine,
                rename_signals(source.text, f"r{index}_"), source.netlist,
                source.expect, source.depth, source.index))
            continue
        family, _ = SERVICE_STRATA[len(fresh) % len(SERVICE_STRATA)]
        params, engine = next(combos[family])
        base, (expect, depth) = BUILDERS[family](*params)
        for _ in range(1000):
            netlist = scramble(base, rng, f"j{index}")
            key = (structural_hash(netlist), engine)
            if key not in seen:
                seen.add(key)
                break
        else:
            raise SystemExit(f"benchmark fault: no unseen scramble of "
                             f"{family}{params} for {engine}; fewer jobs needed")
        jobs.append(ServiceJob(
            index, family, _params_dict(family, params), engine,
            serialize_netlist(netlist), netlist, expect, depth, None))
        fresh.append(index)
    return jobs
