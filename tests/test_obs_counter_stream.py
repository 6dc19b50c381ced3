"""Recorded counter-sample streams of the probe hooks.

Each run is traced with a ``Tracer(tick=0.0)``, so every probe call
lands in the tracer.  The digest covers the per-name record counts and,
in record order, the values of every non-``sat.*`` series; timestamps
are left out.  ``sat.*`` values are counted but not hashed: they are the
solver's own counters, pinned elsewhere by the stats-identity oracles.
The digests were recorded before the probes stopped writing a second
copy of each sample into the run's ``StatsBag``: a probe that drops,
adds, reorders or changes a sample fails here.
"""

import hashlib
from collections import Counter

import pytest

from repro.circuits.generators import mod_counter
from repro.circuits.library import handshake
from repro.mc.engine import verify
from repro.obs import Tracer

RUNS = {
    "pdr": lambda: (handshake(True), dict(method="pdr", max_depth=24)),
    "bmc": lambda: (handshake(True), dict(method="bmc", max_depth=24)),
    "pdr_failing": lambda: (
        mod_counter(4, safe=False), dict(method="pdr", max_depth=32)
    ),
    "itp": lambda: (mod_counter(4), dict(method="itp", max_depth=16)),
    "reach_bdd": lambda: (
        mod_counter(4), dict(method="reach_bdd", max_depth=32)
    ),
    "reach_bdd_fwd": lambda: (
        mod_counter(4), dict(method="reach_bdd_fwd", max_depth=32)
    ),
    "cnc": lambda: (
        handshake(False), dict(method="cnc", max_depth=12, workers=0)
    ),
}

# run -> (sorted per-name record counts, sha256 prefix of the values)
RECORDED = {
    'bmc': (
        (
            ('sat.conflicts', 25),
            ('sat.learned_db', 25),
            ('sat.propagations', 25),
            ('sat.restarts', 25),
        ),
        '4f53cda18c2baa0c',
    ),
    'cnc': (
        (
            ('cnc.active_workers', 16),
            ('cnc.open_cubes', 16),
            ('cnc.refuted_cubes', 16),
            ('cnc.solved_cubes', 16),
            ('sat.conflicts', 1),
            ('sat.learned_db', 1),
            ('sat.propagations', 1),
            ('sat.restarts', 1),
        ),
        '9e0b5af7fb028f61',
    ),
    'itp': (
        (
            ('itp.interpolant_nodes', 3),
            ('itp.reach_nodes', 2),
            ('sat.conflicts', 7),
            ('sat.learned_db', 7),
            ('sat.propagations', 7),
            ('sat.restarts', 7),
        ),
        '03eb41b6d6dca9d3',
    ),
    'pdr': (
        (
            ('pdr.frames', 1),
            ('pdr.lemmas', 1),
            ('pdr.queue_depth', 1),
            ('sat.conflicts', 9),
            ('sat.learned_db', 9),
            ('sat.propagations', 9),
            ('sat.restarts', 9),
        ),
        '7e8f10c9eca866f2',
    ),
    'pdr_failing': (
        (
            ('pdr.frames', 55),
            ('pdr.lemmas', 55),
            ('pdr.queue_depth', 55),
            ('sat.conflicts', 188),
            ('sat.learned_db', 188),
            ('sat.propagations', 188),
            ('sat.restarts', 188),
        ),
        '6422031f6b219d5f',
    ),
    'reach_bdd': (
        (
            ('bdd.cache_entries', 3),
            ('bdd.cache_hit_rate', 3),
            ('bdd.nodes', 3),
        ),
        'f335286fc53fbdbe',
    ),
    'reach_bdd_fwd': (
        (
            ('bdd.cache_entries', 31),
            ('bdd.cache_hit_rate', 31),
            ('bdd.nodes', 31),
        ),
        'e57be6c264fab682',
    ),
}


def counter_stream(tracer: Tracer) -> tuple[tuple, str]:
    counts = Counter(record.name for record in tracer.counters)
    values = [
        (record.name, record.value)
        for record in tracer.counters
        if not record.name.startswith("sat.")
    ]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
    return tuple(sorted(counts.items())), digest


@pytest.mark.parametrize("run", sorted(RUNS))
def test_counter_stream_matches_recorded(run):
    netlist, kwargs = RUNS[run]()
    tracer = Tracer(tick=0.0)
    verify(netlist, trace=tracer, **kwargs)
    assert counter_stream(tracer) == RECORDED[run]
