"""Outside-in tracing: spans around the program's public entry points.

``Tracer.install()`` replaces

* class methods on their class, so every call site sees the wrapper, and
* module functions in *every* ``repro.*`` module that bound them by
  ``from x import f``, so no import site is missed;

``Tracer.remove()`` puts the originals back.  Each wrapper appends a span
``[name, start, end, parent, task]`` to an in-memory list, written out
by ``Tracer.write()`` when the run ends.  A layer's
self time is the time of its spans minus the time of their direct
children.  Hot per-element functions (``Solver.add_clause``,
``Aig.and_``, the BDD apply recursions) are not wrapped; their work is
read from counters the program already keeps (``Solver.conflicts``,
``BddManager.num_nodes``, ``cache_summary()``, result stats) at span
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

from repro.sat.solver import SolveResult


class Tracer:
    """Span and counter recorder for one traced batch."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.task = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        # Per-AIG record of nodes some CnfMapper already encoded.
        self._encoded: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # BDD managers: latest (nodes, hits, misses) by a token that
        # outlives the manager.
        self._bdd_token: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._bdd_latest: dict[int, tuple[int, int, int]] = {}

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def wrap(self, name: str, fn, before=None, after=None):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1], self.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def task_span(self, index: int):
        """Context manager: the benchmark's own span around one task."""
        tracer = self

        class _Task:
            def __enter__(self):
                tracer.task = index
                self.span = ["task", 0.0, 0.0, tracer.stack[-1], index]
                tracer.stack.append(len(tracer.spans))
                tracer.spans.append(self.span)
                self.span[1] = perf_counter()

            def __exit__(self, *exc):
                self.span[2] = perf_counter()
                tracer.stack.pop()
                tracer.task = -1

        return _Task()

    # ------------------------------------------------------------------ #
    # Counters read at span boundaries
    # ------------------------------------------------------------------ #

    def _solve_before(self, args):
        solver = args[0]
        return solver.conflicts, solver.decisions

    def _solve_after(self, args, result, state):
        solver = args[0]
        c = self.counts
        c["sat.solver.solves"] += 1
        c["sat.solver.conflicts"] += solver.conflicts - state[0]
        c["sat.solver.decisions"] += solver.decisions - state[1]
        if result is SolveResult.UNKNOWN:
            c["sat.solver.unknown"] += 1

    def _encode_before(self, args):
        return len(args[0]._node_var)

    def _encode_after(self, args, result, before):
        mapper = args[0]
        added = len(mapper._node_var) - before
        if not added:
            return
        self.counts["aig.cnf.nodes_encoded"] += added
        owners = self._encoded.setdefault(mapper.aig, {})
        mine = id(mapper)
        for node in itertools.islice(mapper._node_var, before, None):
            owner = owners.setdefault(node, mine)
            if owner != mine:
                self.counts["aig.cnf.reencoded"] += 1

    def _sweep_check_after(self, args, result, state):
        self.counts["sweep.satsweep.checks"] += 1
        if result is True:
            self.counts["sweep.satsweep.proved"] += 1

    def _dc_after(self, args, result, state):
        self.counts["core.dontcare.checks"] += 1
        if result:
            self.counts["core.dontcare.valid"] += 1

    def _quantify_after(self, args, outcome, state):
        self.peaks["core.quantify.peak_nodes"] = max(
            self.peaks["core.quantify.peak_nodes"], outcome.stats.get("peak_size")
        )

    def _allsat_after(self, args, result, state):
        self.counts["mc.preimage_sat.cubes"] += result[1].get("cubes")

    def _reach_after(self, args, result, state):
        self.counts["mc.reach.iterations"] += result.stats.get("iterations")
        self.peaks["mc.reach.peak_frontier_nodes"] = max(
            self.peaks["mc.reach.peak_frontier_nodes"],
            result.stats.get("peak_frontier_size"),
        )

    def _bdd_after(self, args, result, state):
        manager = args[0]
        token = self._bdd_token.setdefault(manager, len(self._bdd_latest))
        summary = manager.cache_summary()
        self._bdd_latest[token] = (
            manager.num_nodes, summary["cache_hits"], summary["cache_misses"]
        )

    def _count(self, key):
        def after(args, result, state):
            self.counts[key] += 1
        return after

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def _targets(self):
        """(owner module or class, attribute, span name, before, after)."""
        # import_module, not ``from package import name``: packages
        # re-export functions under their modules' names (repro.aig.simulate).
        def mod(name):
            return importlib.import_module(f"repro.{name}")

        cnf, ops, simulate = mod("aig.cnf"), mod("aig.ops"), mod("aig.simulate")
        session, manager = mod("api.session"), mod("bdd.manager")
        dontcare, merge = mod("core.dontcare"), mod("core.merge")
        optimize, partial = mod("core.optimize"), mod("core.partial")
        quantify, schedule = mod("core.quantify"), mod("core.schedule")
        substitution = mod("core.substitution")
        itp_engine, interpolant = mod("itp.engine"), mod("itp.interpolant")
        bmc, preimage_sat = mod("mc.bmc"), mod("mc.preimage_sat")
        reach_aig, reach_aig_fwd = mod("mc.reach_aig"), mod("mc.reach_aig_fwd")
        reach_bdd, trace, unroll = mod("mc.reach_bdd"), mod("mc.trace"), mod("mc.unroll")
        pdr_engine, solver = mod("pdr.engine"), mod("sat.solver")
        bddsweep, satsweep = mod("sweep.bddsweep"), mod("sweep.satsweep")

        targets = [
            (solver.Solver, "__init__", "sat.solver", None,
             self._count("sat.solver.instances")),
            (solver.Solver, "solve", "sat.solver", self._solve_before,
             self._solve_after),
            (cnf.CnfMapper, "var_for_node", "aig.cnf", self._encode_before,
             self._encode_after),
            (satsweep.SatSweeper, "check_equal", "sweep.satsweep", None,
             self._sweep_check_after),
            (satsweep.SatSweeper, "check_constant", "sweep.satsweep", None,
             self._sweep_check_after),
            (satsweep.SatSweeper, "merge_pair_backward", "sweep.satsweep", None, None),
            (satsweep.SatSweeper, "sweep", "sweep.satsweep", None, None),
            (dontcare.DontCareOracle, "valid_under_input_dc", "core.dontcare",
             None, self._dc_after),
            (dontcare.DontCareOracle, "valid_under_odc", "core.dontcare",
             None, self._dc_after),
            (partial.PartialQuantifier, "quantify", "core.partial", None, None),
            (reach_aig.BackwardReachability, "run", "mc.reach", None,
             self._reach_after),
            (reach_aig_fwd.ForwardReachability, "run", "mc.reach", None,
             self._reach_after),
            (session.Session, "run", "api.session", None, None),
        ]
        for method in ("exists", "exists_cube", "and_exists",
                       "and_exists_cube", "forall", "compose", "rename"):
            if method in vars(manager.BddManager):
                targets.append((manager.BddManager, method, "bdd.manager",
                                None, self._bdd_after))
        for method in vars(unroll.Unroller):
            if not method.startswith("_") and callable(
                vars(unroll.Unroller)[method]
            ):
                targets.append((unroll.Unroller, method, "mc.unroll", None, None))
        functions = [
            (quantify, "quantify_exists", "core.quantify", None, self._quantify_after),
            (quantify, "quantify_exists_one", "core.quantify", None,
             self._count("core.quantify.vars")),
            (ops, "cofactor", "aig.ops.cofactor", None, None),
            (schedule, "schedule_variable_order", "core.schedule", None, None),
            (schedule, "plan_partitioned_quantification", "core.schedule", None, None),
            (merge, "merge_cofactors", "core.merge", None, None),
            (bddsweep, "bdd_sweep", "sweep.bddsweep", None, None),
            (optimize, "optimize_disjunction", "core.optimize", None, None),
            (substitution, "preimage_by_substitution", "core.substitution", None, None),
            (substitution, "preimage_relational", "core.substitution", None, None),
            (preimage_sat, "allsat_quantify", "mc.preimage_sat", None, self._allsat_after),
            (trace, "concretize_suffix", "mc.trace", None, None),
            (trace, "find_violation_inputs", "mc.trace", None, None),
            (trace, "step_into", "mc.trace", None, None),
            (trace, "trace_from_layers", "mc.trace", None, None),
            (simulate, "simulate", "aig.simulate", None, None),
            (simulate, "simulate_nodes", "aig.simulate", None, None),
            (simulate, "eval_edge", "aig.simulate", None, None),
            (simulate, "truth_table", "aig.simulate", None, None),
            (bmc, "bmc", "mc.bmc", None, None),
            (pdr_engine, "pdr_reachability", "pdr", None, None),
            (itp_engine, "interpolation_reachability", "itp", None, None),
            (interpolant, "extract_interpolant", "itp", None, None),
            (interpolant, "verify_interpolant", "itp", None, None),
            (reach_bdd, "bdd_backward_reachability", "mc.reach_bdd", None, None),
            (reach_bdd, "bdd_forward_reachability", "mc.reach_bdd", None, None),
        ]
        return targets, functions, schedule

    def install(self) -> None:
        targets, functions, schedule = self._targets()
        for owner, attr, name, before, after in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original, before, after))
            self._restore.append((owner, attr, original))
        replacements = {}
        for module, attr, name, before, after in functions:
            original = getattr(module, attr)
            replacements[id(original)] = (
                original, self.wrap(name, original, before, after)
            )
        # The quantifier looks its variable scheduler up per call.
        original_get = schedule.get_scheduler
        replacements[id(original_get)] = (
            original_get,
            lambda name: self.wrap("core.schedule", original_get(name)),
        )
        for module in [m for n, m in list(sys.modules.items())
                       if n == "repro" or n.startswith("repro.")]:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """The spans as JSON lines (times in seconds on perf_counter)."""
        with open(path, "w") as out:
            for name, start, end, parent, task in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "task": task}) + "\n")

    # ------------------------------------------------------------------ #
    # Per-layer metrics
    # ------------------------------------------------------------------ #

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        unattributed = 0.0
        for index, span in enumerate(spans):
            own = span[2] - span[1] - child_time[index]
            if span[0] == "task":
                unattributed += own
            else:
                self_time[span[0]] += own
                calls[span[0]] += 1
        c = self.counts
        solves = c["sat.solver.solves"]
        checks = c["sweep.satsweep.checks"]
        dc_checks = c["core.dontcare.checks"]
        encoded = c["aig.cnf.nodes_encoded"]
        bdd = list(self._bdd_latest.values())
        lookups = sum(h + m for _, h, m in bdd)
        metrics = {
            "core.quantify.vars": c["core.quantify.vars"],
            "core.quantify.self_s": self_time["core.quantify"],
            "core.quantify.peak_nodes": self.peaks["core.quantify.peak_nodes"],
            "aig.ops.cofactor_s": self_time["aig.ops.cofactor"],
            "core.schedule.self_s": self_time["core.schedule"],
            "core.merge.self_s": self_time["core.merge"],
            "sweep.bddsweep.self_s": self_time["sweep.bddsweep"],
            "sweep.satsweep.checks": checks,
            "sweep.satsweep.proved_frac": c["sweep.satsweep.proved"] / checks if checks else 0.0,
            "sweep.satsweep.self_s": self_time["sweep.satsweep"],
            "core.optimize.self_s": self_time["core.optimize"],
            "core.dontcare.checks": dc_checks,
            "core.dontcare.valid_frac": c["core.dontcare.valid"] / dc_checks if dc_checks else 0.0,
            "core.dontcare.self_s": self_time["core.dontcare"],
            "core.substitution.self_s": self_time["core.substitution"],
            "core.partial.self_s": self_time["core.partial"],
            "mc.preimage_sat.cubes": c["mc.preimage_sat.cubes"],
            "mc.preimage_sat.self_s": self_time["mc.preimage_sat"],
            "aig.cnf.encode_s": self_time["aig.cnf"],
            "aig.cnf.nodes_encoded": encoded,
            "aig.cnf.reencode_frac": c["aig.cnf.reencoded"] / encoded if encoded else 0.0,
            "sat.solver.instances": c["sat.solver.instances"],
            "sat.solver.solves": solves,
            "sat.solver.solve_s": self_time["sat.solver"],
            "sat.solver.conflicts": c["sat.solver.conflicts"],
            "sat.solver.decisions": c["sat.solver.decisions"],
            "sat.solver.unknown_frac": c["sat.solver.unknown"] / solves if solves else 0.0,
            "mc.reach.iterations": c["mc.reach.iterations"],
            "mc.reach.self_s": self_time["mc.reach"],
            "mc.reach.peak_frontier_nodes": self.peaks["mc.reach.peak_frontier_nodes"],
            "mc.trace.self_s": self_time["mc.trace"],
            "aig.simulate.self_s": self_time["aig.simulate"],
            "mc.unroll.self_s": self_time["mc.unroll"],
            "mc.bmc.self_s": self_time["mc.bmc"],
            "pdr.self_s": self_time["pdr"],
            "itp.self_s": self_time["itp"],
            "mc.reach_bdd.self_s": self_time["mc.reach_bdd"],
            "bdd.manager.self_s": self_time["bdd.manager"],
            "bdd.manager.nodes": float(sum(n for n, _, _ in bdd)),
            "bdd.manager.cache_hit_frac": sum(h for _, h, _ in bdd) / lookups if lookups else 0.0,
            "api.session.self_s": self_time["api.session"],
            "trace.unattributed_s": unattributed,
        }
        return metrics, dict(calls)


# Layers each closed-loop workload must record at least one call on.
REQUIRED_LAYERS = {
    "quantify": ["core.quantify", "aig.ops.cofactor", "core.schedule",
                 "core.merge", "sweep.bddsweep", "sweep.satsweep",
                 "core.optimize", "core.dontcare", "aig.cnf", "sat.solver",
                 "aig.simulate"],
    "reach_paper": ["api.session", "mc.reach", "core.quantify",
                    "core.substitution", "core.partial", "mc.preimage_sat",
                    "aig.cnf", "sat.solver", "mc.trace", "sweep.satsweep",
                    "core.dontcare"],
    "reach_incremental": ["api.session", "sat.solver", "mc.unroll", "mc.bmc",
                          "pdr", "itp", "mc.reach_bdd", "bdd.manager",
                          "aig.simulate"],
}

