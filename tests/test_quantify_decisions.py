"""Recorded intermediate decisions of the Sec. 2 pipeline.

The goldens of ``test_quantify_dc_refutation.py`` pin final results.  This
file pins the decisions on the way there, so a change of simulation
representation or cone bookkeeping that keeps results but reorders the
random patterns, the candidate buckets or a tie-break still fails:

* every ``care_set_candidates`` result, in node and candidate order;
* every choice of the ``min_dependence``, ``min_level`` and
  ``cofactor_probe`` schedulers, with the candidates it chose from;
* the candidate classes of the SAT sweeper's ``SignatureTable`` (members
  in bucket order, and the pattern width) at the end of every forward and
  backward SAT merge.

The digests were recorded while simulation still ran on numpy vectors.
"""

import hashlib
import importlib

import pytest

from repro.core import QuantifyOptions, optimize, quantify_exists
from repro.sweep.signatures import SignatureTable
from tests.test_quantify_dc_refutation import QUERIES, run_query

quantify_module = importlib.import_module("repro.core.quantify")


def _digest(records: list) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _candidates(name: str, monkeypatch) -> list:
    records: list = []
    original = optimize.care_set_candidates

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        records.append(tuple((node, tuple(c)) for node, c in result.items()))
        return result

    monkeypatch.setattr(optimize, "care_set_candidates", recording)
    run_query(name, False)
    return records


def _schedule(schedule: str):
    def choices(name: str, monkeypatch) -> list:
        records: list = []
        original = quantify_module.get_scheduler

        def wrapped(key):
            scheduler = original(key)

            def recording(aig, edge, candidates):
                choice = scheduler(aig, edge, candidates)
                records.append((tuple(candidates), choice))
                return choice

            return recording

        monkeypatch.setattr(quantify_module, "get_scheduler", wrapped)
        build, params, k = QUERIES[name]
        aig, inputs, root = build(*params)
        options = QuantifyOptions.preset("full")
        options.schedule = schedule
        quantify_exists(aig, root, [e >> 1 for e in inputs][:k], options)
        return records

    return choices


def _classes(order: str):
    def classes(name: str, monkeypatch) -> list:
        records: list = []
        thaw = SignatureTable.thaw

        def recording(self):
            table = self.classes(self.aig.cone(self.roots))
            records.append((self.words, tuple(map(tuple, table.values()))))
            thaw(self)

        monkeypatch.setattr(SignatureTable, "thaw", recording)
        build, params, k = QUERIES[name]
        aig, inputs, root = build(*params)
        options = QuantifyOptions.preset("sat")
        options.merge.order = order
        quantify_exists(aig, root, [e >> 1 for e in inputs][-k:], options)
        return records

    return classes


DECISIONS = {
    "candidates": _candidates,
    "min_dependence": _schedule("min_dependence"),
    "min_level": _schedule("min_level"),
    "cofactor_probe": _schedule("cofactor_probe"),
    "classes_backward": _classes("backward"),
    "classes_forward": _classes("forward"),
}

# (query, decision kind) -> (number of records, sha256 prefix of them)
RECORDED = {
    ('candidates', 'adder_sum_parity5'): (2, '063a184f3ab22dd6'),
    ('candidates', 'adder_sum_parity6'): (2, '9ffb1d739c19f006'),
    ('candidates', 'comparator10'): (10, 'd28a00885db4faaf'),
    ('candidates', 'comparator6'): (8, 'bcc84e441e767fa8'),
    ('candidates', 'comparator8'): (10, 'bf0b55f50d383f16'),
    ('candidates', 'mux_of_variants_8'): (6, 'cb01a6e322eb5fa4'),
    ('candidates', 'mux_of_variants_8_dissimilar'): (8, '502d1a1349022886'),
    ('candidates', 'random_logic_10x80'): (6, '3de462911424aa28'),
    ('candidates', 'random_logic_12x120'): (4, 'ec125f054b78419b'),
    ('candidates', 'random_logic_16x300'): (4, '1369ee387255a17b'),
    ('candidates', 'slices_4x3'): (12, '52aa49f6069870de'),
    ('candidates', 'slices_6x4'): (16, '50f5394ce9129dbc'),
    ('classes_backward', 'adder_sum_parity5'): (1, '8c63d4e515894a71'),
    ('classes_backward', 'adder_sum_parity6'): (1, 'fb539a6e517707af'),
    ('classes_backward', 'comparator10'): (5, 'e70bbad35f67b2b5'),
    ('classes_backward', 'comparator6'): (4, '7ade2e480d21c9c7'),
    ('classes_backward', 'comparator8'): (5, 'ffe8d02141260851'),
    ('classes_backward', 'mux_of_variants_8'): (3, '3df4cd80f7781a9d'),
    ('classes_backward', 'mux_of_variants_8_dissimilar'):
        (4, 'f38985831e1bf3c0'),
    ('classes_backward', 'random_logic_10x80'): (3, 'ff7062fe087d7cb3'),
    ('classes_backward', 'random_logic_12x120'): (4, 'e3f118cd345915c4'),
    ('classes_backward', 'random_logic_16x300'): (6, '07ffa9d2f8d7dd7f'),
    ('classes_backward', 'slices_4x3'): (4, '3ab3910ef1120f1e'),
    ('classes_backward', 'slices_6x4'): (8, '3cd88f7b442db4f3'),
    ('classes_forward', 'adder_sum_parity5'): (1, '8c63d4e515894a71'),
    ('classes_forward', 'adder_sum_parity6'): (1, 'fb539a6e517707af'),
    ('classes_forward', 'comparator10'): (5, 'af594992212b24be'),
    ('classes_forward', 'comparator6'): (4, 'bc4f57dc64cc1a93'),
    ('classes_forward', 'comparator8'): (5, '9484bd2c0f8b1875'),
    ('classes_forward', 'mux_of_variants_8'): (4, '9f8b60c64576f6b4'),
    ('classes_forward', 'mux_of_variants_8_dissimilar'):
        (4, '63756eba6dc83582'),
    ('classes_forward', 'random_logic_10x80'): (3, '854f276c931ca268'),
    ('classes_forward', 'random_logic_12x120'): (4, 'acc2fdb7d2bd8caf'),
    ('classes_forward', 'random_logic_16x300'): (3, '4a6de615545a2144'),
    ('classes_forward', 'slices_4x3'): (4, '1bbeec1331ef6f45'),
    ('classes_forward', 'slices_6x4'): (8, '8715e4459a8384b0'),
    ('cofactor_probe', 'adder_sum_parity5'): (3, 'a1f7993a1bc4b42d'),
    ('cofactor_probe', 'adder_sum_parity6'): (4, '8060f4154d699475'),
    ('cofactor_probe', 'comparator10'): (5, '5ab3017d94be6dbb'),
    ('cofactor_probe', 'comparator6'): (4, '869f86ae1a170a30'),
    ('cofactor_probe', 'comparator8'): (5, 'ca7731260df385b0'),
    ('cofactor_probe', 'mux_of_variants_8'): (3, '6ce26d2454b55f1d'),
    ('cofactor_probe', 'mux_of_variants_8_dissimilar'):
        (4, '336433f8e0f05a16'),
    ('cofactor_probe', 'random_logic_10x80'): (2, '2d7cbf4087a329e1'),
    ('cofactor_probe', 'random_logic_12x120'): (5, 'adc54ca3ff12934a'),
    ('cofactor_probe', 'random_logic_16x300'): (3, '35b12871cc2a6d8c'),
    ('cofactor_probe', 'slices_4x3'): (6, '6ef69a67aef629a6'),
    ('cofactor_probe', 'slices_6x4'): (8, 'f10c3c2cf47d84c9'),
    ('min_dependence', 'adder_sum_parity5'): (2, 'aca1747b6148e91c'),
    ('min_dependence', 'adder_sum_parity6'): (2, '0e19d214c68b7a20'),
    ('min_dependence', 'comparator10'): (5, '57dff4f56455a96c'),
    ('min_dependence', 'comparator6'): (4, '795090329443dd3e'),
    ('min_dependence', 'comparator8'): (5, '57dff4f56455a96c'),
    ('min_dependence', 'mux_of_variants_8'): (3, '6ce26d2454b55f1d'),
    ('min_dependence', 'mux_of_variants_8_dissimilar'):
        (2, '6eb006acf47a2e20'),
    ('min_dependence', 'random_logic_10x80'): (2, '2d7cbf4087a329e1'),
    ('min_dependence', 'random_logic_12x120'): (3, '2ad844aec7e12276'),
    ('min_dependence', 'random_logic_16x300'): (3, '35b12871cc2a6d8c'),
    ('min_dependence', 'slices_4x3'): (4, '03c3ccf658104758'),
    ('min_dependence', 'slices_6x4'): (6, 'c992d2f08abeb414'),
    ('min_level', 'adder_sum_parity5'): (2, '1dd37f171a3888cd'),
    ('min_level', 'adder_sum_parity6'): (2, '72f771bdbe207d65'),
    ('min_level', 'comparator10'): (5, 'ca7731260df385b0'),
    ('min_level', 'comparator6'): (4, '869f86ae1a170a30'),
    ('min_level', 'comparator8'): (5, 'ca7731260df385b0'),
    ('min_level', 'mux_of_variants_8'): (3, 'acd4ef9ee6f1250e'),
    ('min_level', 'mux_of_variants_8_dissimilar'): (2, '6eb006acf47a2e20'),
    ('min_level', 'random_logic_10x80'): (2, '2d7cbf4087a329e1'),
    ('min_level', 'random_logic_12x120'): (3, '2443d426c6c168ad'),
    ('min_level', 'random_logic_16x300'): (3, '450da6491855340e'),
    ('min_level', 'slices_4x3'): (4, '03c3ccf658104758'),
    ('min_level', 'slices_6x4'): (6, '39222a7d0100adbd'),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("kind", sorted(DECISIONS))
def test_decisions_match_recorded(kind, name, monkeypatch):
    records = DECISIONS[kind](name, monkeypatch)
    assert (len(records), _digest(records)) == RECORDED[(kind, name)]
