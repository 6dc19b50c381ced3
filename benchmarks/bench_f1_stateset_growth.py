"""Experiment F1 (figure) — state-set size per traversal iteration.

Plots (as a data series) the frontier representation size at every
backward step, comparing the full merge+optimize pipeline against bare
Shannon expansion, and against the BDD engine's node counts.  Shape claim:
the full pipeline's curve stays flat where Shannon's climbs.
"""

import pytest

from repro.circuits import generators as G
from repro.core.quantify import QuantifyOptions
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.reach_bdd import bdd_backward_reachability
from repro.obs import Tracer, probes

DESIGNS = {
    "mod_counter_bug_5_24": lambda: G.mod_counter(5, 24, safe=False),
    "fifo_level_4": lambda: G.fifo_level(4),
}


def frontier_series(tracer: Tracer) -> list[int]:
    return [
        int(record.value)
        for record in tracer.counters
        if record.name == "reach.frontier_size"
    ]


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("preset", ["shannon", "full"])
def test_f1_aig_series(benchmark, record_row, design, preset):
    tracer = Tracer(tick=0.0)

    def run():
        probes.enable(tracer)
        try:
            return BackwardReachability(
                DESIGNS[design](),
                ReachOptions(quantify=QuantifyOptions.preset(preset)),
            ).run()
        finally:
            probes.disable()

    benchmark.pedantic(run, rounds=1, iterations=1)
    series = frontier_series(tracer)
    benchmark.extra_info.update(
        {
            "design": design,
            "preset": preset,
            "series": series,
            "peak": max(series) if series else 0,
        }
    )
    record_row(
        "F1 state-set growth per iteration (AND nodes)",
        f"{'design':<22}{'preset':<9}series",
        f"{design:<22}{preset:<9}{series}",
    )


@pytest.mark.parametrize("design", list(DESIGNS))
def test_f1_bdd_reference(benchmark, record_row, design):
    def run():
        return bdd_backward_reachability(DESIGNS[design]())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "design": design,
            "engine": "reach_bdd",
            "peak_bdd": result.stats.get("peak_frontier_bdd"),
        }
    )
    record_row(
        "F1 state-set growth per iteration (AND nodes)",
        "",
        f"{design:<22}{'bdd':<9}peak_bdd_nodes="
        f"{result.stats.get('peak_frontier_bdd'):.0f}",
    )
