"""Shadow-MMU coherence sanitizer (DESIGN.md "check" subsystem).

Two ways to turn it on:

* per simulator — ``Simulator(spec, config, sanitize=True)`` or
  ``attach_sanitizer(kernel)`` directly;
* globally — ``enable_global_sanitizer()`` makes every Simulator built
  afterwards attach one automatically, all feeding a shared
  :class:`ViolationReporter`.  This is how ``python -m repro check``
  instruments experiment code it does not construct itself.

This module must not import :mod:`repro.check.runner` — the runner pulls
in the experiment registry, which imports the simulator, which imports
this package.  The CLI imports the runner directly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.check.report import Violation, ViolationReporter
from repro.check.sanitizer import Sanitizer, check_sweep_every
from repro.check.shadow import ShadowMMU

__all__ = [
    "Sanitizer",
    "ShadowMMU",
    "Violation",
    "ViolationReporter",
    "attach_sanitizer",
    "disable_global_sanitizer",
    "drain_global_sanitizers",
    "enable_global_sanitizer",
    "global_check_active",
]


class _GlobalCheck:
    """Process-wide sanitizer state, active between enable/disable."""

    def __init__(self):
        self.active = False
        self.reporter: Optional[ViolationReporter] = None
        self.sweep_every = 0
        self.sanitizers: List[Sanitizer] = []


_GLOBAL = _GlobalCheck()


def enable_global_sanitizer(
    reporter: Optional[ViolationReporter] = None, sweep_every: int = 0
) -> ViolationReporter:
    """Attach a sanitizer to every subsequently-built Simulator."""
    check_sweep_every(sweep_every)
    _GLOBAL.active = True
    _GLOBAL.reporter = reporter if reporter is not None else ViolationReporter()
    _GLOBAL.sweep_every = sweep_every
    _GLOBAL.sanitizers = []
    return _GLOBAL.reporter


def disable_global_sanitizer() -> None:
    _GLOBAL.active = False
    _GLOBAL.reporter = None
    _GLOBAL.sweep_every = 0
    _GLOBAL.sanitizers = []


def global_check_active() -> bool:
    return _GLOBAL.active


def drain_global_sanitizers() -> List[Sanitizer]:
    """Hand over (and forget) the sanitizers attached since enable."""
    sanitizers = _GLOBAL.sanitizers
    _GLOBAL.sanitizers = []
    return sanitizers


def attach_sanitizer(
    kernel,
    reporter: Optional[ViolationReporter] = None,
    sweep_every: Optional[int] = None,
    label: Optional[str] = None,
) -> Sanitizer:
    """Build a :class:`Sanitizer` for ``kernel`` and hook the machine.

    While the global check is active, the global reporter and sweep
    cadence are used (unless explicitly overridden) and the sanitizer is
    registered for :func:`drain_global_sanitizers`.
    """
    if _GLOBAL.active:
        if reporter is None:
            reporter = _GLOBAL.reporter
        if sweep_every is None:
            sweep_every = _GLOBAL.sweep_every
    sanitizer = Sanitizer(
        kernel,
        reporter=reporter,
        sweep_every=sweep_every or 0,
        label=label,
    )
    # repro-lint: disable=zero-perturbation -- the sanctioned attach point:
    # installs the sanitizer on the machine's dedicated observer slot.
    kernel.machine.sanitizer = sanitizer
    if _GLOBAL.active:
        _GLOBAL.sanitizers.append(sanitizer)
    return sanitizer
