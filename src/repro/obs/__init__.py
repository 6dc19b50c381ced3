"""Process-wide tracing, metrics and run reports (``repro.obs``).

The observability layer every engine reports into:

* :class:`Tracer` (:mod:`repro.obs.trace`) — nested spans and counter
  samples, exportable as Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto).  Its counter records are the one
  store of time-series samples;
* :mod:`repro.obs.probes` — the tracing switch (``enable``, ``disable``,
  ``is_enabled``, ``current_tracer``, ``span``, ``sample``, re-exported
  here) and the tick-throttled probe hooks wired into the SAT solver,
  the BDD manager, PDR, itp, cnc and the service, guarded so the
  *disabled* cost is one predicted branch (search trajectories are
  bit-identical with tracing on or off);
* :class:`RunReport` (:mod:`repro.obs.report`) — the post-run
  aggregation: engine timeline, per-phase breakdown, peak gauges and
  p50/p95 quantiles of the tracer's series; both human-readable
  (``render()``) and machine-readable (``to_dict()``);
* :mod:`repro.obs.metrics` — the process-wide labeled metrics registry
  (counters, gauges, fixed-bucket histograms) behind the verification
  service's ``/metrics`` endpoint, exposed as JSON and Prometheus text
  exposition, guarded by the same ``ENABLED``-flag discipline.

Typical use::

    from repro import obs
    from repro.mc import verify

    tracer = obs.enable()
    try:
        result = verify(netlist, method="pdr")
    finally:
        obs.disable()
    tracer.write_chrome_trace("out.json")
    print(obs.build_report(result, tracer).render())

or, equivalently, ``verify(netlist, method="pdr", trace="out.json")``;
the CLI flags ``repro mc --trace out.json --report report.json`` land on
the same path.  Tracing is process-wide: engines running in portfolio /
session worker subprocesses stream their spans and samples back over
the runner pipe and are merged into the parent's timeline.
"""

from __future__ import annotations

from repro.obs import metrics, probes
from repro.obs.probes import (
    current_tracer,
    disable,
    enable,
    is_enabled,
    sample,
    span,
)
from repro.obs.report import RunReport, build_report
from repro.obs.trace import (
    NULL_SPAN,
    CounterRecord,
    SpanRecord,
    Tracer,
)

__all__ = [
    "CounterRecord",
    "RunReport",
    "SpanRecord",
    "Tracer",
    "build_report",
    "current_tracer",
    "disable",
    "enable",
    "is_enabled",
    "metrics",
    "sample",
    "span",
]
