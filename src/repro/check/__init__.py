"""Shadow-MMU coherence sanitizer (DESIGN.md "check" subsystem).

The sanitizer is the flight recorder's fourth observer
(:class:`repro.obs.Observability`).  Two ways to turn it on:

* per simulator — ``Simulator(spec, config, sanitize=True)``;
* for every simulator a run builds — a sweep cadence in the observer
  scope, ``engine.observe(spec, sweep_every=N)``, all feeding one
  shared :class:`ViolationReporter`.  This is how ``python -m repro
  check`` (:mod:`repro.check.runner`) instruments experiment code it
  does not construct itself.
"""

from __future__ import annotations

from repro.check.report import Violation, ViolationReporter
from repro.check.sanitizer import Sanitizer
from repro.check.shadow import ShadowMMU

__all__ = [
    "Sanitizer",
    "ShadowMMU",
    "Violation",
    "ViolationReporter",
]
