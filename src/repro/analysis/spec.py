"""Declarative experiment specifications (the engine's vocabulary).

The paper's methodology (§4) is a *matrix*: every optimization toggled
one at a time across four machine configurations.  An
:class:`ExperimentSpec` captures one such experiment declaratively —
its id, the machine/config variants it boots, the workload that
measures them, the shape predicate over the measured values, and the
paper's reference numbers — so that one engine
(:mod:`repro.analysis.engine`) can boot, observe, check, cache and
parallelize every experiment through a single path instead of sixteen
hand-written runners.

The workload callable returns a :class:`Measurement`; the engine turns
that into an :class:`ExperimentResult` by applying the spec's shape
predicate and attaching the paper values and notes.  Shape predicates
read *only* the measured dict (never closure state), which is what
makes results cacheable: a measured dict that round-trips through JSON
reproduces the same shape verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.kernel.config import KernelConfig
from repro.params import MachineSpec


@dataclass
class ExperimentResult:
    """Outcome of one reproduced experiment."""

    experiment: str
    title: str
    measured: Dict[str, object]
    paper: Dict[str, object]
    shape_holds: bool
    report: str
    notes: str = ""
    #: Observatory analytics (:func:`repro.obs.analytics.derive`) the
    #: engine attaches when executing with ``derive=True``.  Always
    #: JSON-round-tripped before attachment, so a cached result's block
    #: compares equal to a freshly derived one.  Empty when the run was
    #: not derived (plain :func:`~repro.analysis.engine.execute`).
    derived: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ConfigVariant:
    """One (label, machine, kernel-config) cell of a spec's matrix."""

    label: str
    machine: MachineSpec
    config: KernelConfig


@dataclass
class Measurement:
    """What a spec's workload hands back to the engine.

    ``measured`` must be JSON-representable (numbers, strings, bools,
    lists, string-keyed dicts): the engine round-trips it through JSON
    so cached and freshly-computed results are indistinguishable.
    """

    measured: Dict[str, object]
    lines: List[str]


#: A workload measures the spec's variants and returns the raw numbers.
#: It receives the spec itself (for ``spec.variants``) plus any
#: experiment-specific parameters (trace sizes, iteration counts, ...).
Workload = Callable[..., Measurement]

#: A shape predicate decides the paper's qualitative claim from the
#: measured dict alone.
ShapePredicate = Callable[[Dict[str, object]], bool]


@dataclass
class ExperimentSpec:
    """One declarative experiment: the unit the engine executes."""

    #: Registry id (``E1`` .. ``E16``), matching DESIGN.md's index.
    id: str
    #: Human title, e.g. ``"Table 2: lazy VSID flushing"``.
    title: str
    #: Paper reference (section / table / figure).
    section: str
    #: The machine/config matrix the workload boots, in boot order.
    variants: Tuple[ConfigVariant, ...]
    #: Measures the variants; see :data:`Workload`.
    workload: Workload
    #: The paper's qualitative claim over the measured dict.
    shape: ShapePredicate
    #: The paper's reference values (JSON-representable).
    paper: Dict[str, object]
    #: Deterministic seed recorded in the cache fingerprint.  The
    #: workloads construct their own ``random.Random(seed)`` instances;
    #: this field documents the seed family a spec uses.
    seed: int = 0
    #: Static reproduction caveats, carried into every result.
    notes: str = ""


@dataclass
class MatrixSpec:
    """A first-class config-matrix sweep (``repro run --matrix NAME``).

    The paper tuned its constants by sweeping them against an
    instrument (§5.2's miss histogram, §7's cutoff); a MatrixSpec
    packages one such sweep — the axis values and the per-point
    measurement — so the tuning process itself runs through the engine
    instead of living in copy-pasted example loops.
    """

    #: Sweep name (``vsid-scatter``, ``flush-cutoff``).
    id: str
    title: str
    #: What the axis varies, for the report header.
    axis: str
    #: Runs the sweep and returns the rendered report.
    run: Callable[[], str]
    notes: str = ""


def experiment_sort_key(experiment_id: str) -> int:
    """Numeric ordering for registry ids (E1, E2, ..., E16)."""
    return int(experiment_id[1:])
