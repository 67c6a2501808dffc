"""Declarative experiment specifications (the engine's vocabulary).

The paper's methodology (§4) is a *matrix*: every optimization toggled
one at a time across four machine configurations.  An
:class:`ExperimentSpec` captures one such experiment declaratively —
its id, the machine/config variants it boots, the workload that
measures them, and the paper claims it checks — so that one engine
(:mod:`repro.analysis.engine`) can boot, observe, check, cache and
parallelize every experiment through a single path.

The workload callable returns a :class:`Measurement`; the engine turns
that into an :class:`ExperimentResult` by evaluating the spec's
:class:`Claim` table over the measured numbers (DESIGN.md §2, "Paper
claims").  Claims read *only* the measured dict, by key, never by
position or closure state — which is what makes results cacheable: a
measured dict that round-trips through JSON (and comes back with its
keys sorted) reproduces every verdict.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.kernel.config import KernelConfig
from repro.params import MachineSpec

#: Claim kinds (DESIGN.md §2): an architected or counted value, a
#: magnitude, a bound or direction (the gate is the claim), and the
#: paper's future-work guess (no paper value, only a gate).
EXACT, BAND, DIRECTION, CONJECTURE = "exact", "band", "direction", "conjecture"
KINDS = (EXACT, BAND, DIRECTION, CONJECTURE)
REPRODUCED, DIRECTION_ONLY, NOT_REPRODUCED = (
    "reproduced", "direction only", "not reproduced"
)
STATUSES = (REPRODUCED, DIRECTION_ONLY, NOT_REPRODUCED)
#: The fields of a claim record (:meth:`Claim.evaluate`), in order.
CLAIM_FIELDS = ("name", "source", "kind", "paper", "measured", "gate",
                "status", "reason")
#: A band claim is reproduced within this factor of the paper's effect.
BAND_FACTOR = 1.25

_OPS: Dict[str, Callable[..., bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}
#: ``0.97 < x`` is ``x > 0.97``.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}

#: A measured key, or a key path into nested measured dicts.
KeyPath = Union[str, Tuple[str, ...]]
#: What a claim reads: a key path, or a small function of the measured
#: dict (for ratios and orderings) that itself reads by key.
Measure = Union[KeyPath, Callable[[Dict[str, object]], object]]


def lookup(measured: Dict[str, object], path: KeyPath) -> object:
    value: object = measured
    for key in (path,) if isinstance(path, str) else path:
        value = value[key]  # type: ignore[index]
    return value


def _bound(text: str) -> object:
    if text == "true":
        return True
    return float(text) if "." in text else int(text)


def parse_gate(gate: str) -> List[Tuple[str, object]]:
    """The ``(op, bound)`` terms a gate puts on the value ``x``.

    A gate is ``"OP BOUND"`` (``"< 0.8"``, ``"== true"``) or a band
    ``"LOW OP x OP HIGH"`` (``"0.97 < x < 1.03"``).
    """
    tokens = gate.split()
    if len(tokens) == 2 and tokens[0] in _OPS:
        return [(tokens[0], _bound(tokens[1]))]
    if len(tokens) == 5 and tokens[2] == "x" and (
        {tokens[1], tokens[3]} <= set(_OPS)
    ):
        return [(_FLIP[tokens[1]], _bound(tokens[0])),
                (tokens[3], _bound(tokens[4]))]
    raise ValueError(f"malformed gate {gate!r}")


def gate_holds(gate: str, value: object) -> bool:
    return all(_OPS[op](value, bound) for op, bound in parse_gate(gate))


def claim_status(kind: str, paper: Optional[float], value: object,
                 gate: Optional[bool], ratio: bool = False) -> str:
    """The one status rule (DESIGN.md §2, "Paper claims").

    ``gate`` is whether the claim's gate holds (None: it has none).  A
    failed gate is *not reproduced*; a direction claim or conjecture is
    otherwise *reproduced*; an exact claim is *reproduced* when it
    equals the paper.  A band claim is *reproduced* when its effect —
    the value, or ``ratio - 1`` for a ratio — is within
    :data:`BAND_FACTOR` of the paper's with the same sign; outside
    that it is *direction only* if gated, else *not reproduced*.
    """
    if gate is False:
        return NOT_REPRODUCED
    if kind in (DIRECTION, CONJECTURE):
        return REPRODUCED
    if kind == EXACT:
        return REPRODUCED if value == paper else NOT_REPRODUCED
    base = 1.0 if ratio else 0.0
    scale = (value - base) / (paper - base)  # type: ignore[operator]
    if scale > 0 and abs(math.log(scale)) <= math.log(BAND_FACTOR):
        return REPRODUCED
    return DIRECTION_ONLY if gate else NOT_REPRODUCED


@dataclass(frozen=True)
class Claim:
    """One paper claim, checked against one measured value."""

    #: Unique within the spec; also the measured key read by default.
    name: str
    #: None for a conjecture, an extension, or a bound with no number.
    paper: Optional[float]
    #: One of :data:`KINDS`.
    kind: str
    #: At most one bound the reproduction must meet (:func:`parse_gate`).
    gate: Optional[str] = None
    #: The value read, when it is not the key ``name``.
    measure: Optional[Measure] = None
    #: The literature an extension's claim follows; by default, the
    #: spec's paper section.
    source: Optional[str] = None
    #: Why the claim has no gate, or why it misses the paper.
    reason: str = ""
    #: A ratio against a baseline: 1.0 means no change.
    ratio: bool = False

    def __post_init__(self) -> None:
        problems = [message for broken, message in (
            (self.kind not in KINDS, f"unknown kind {self.kind!r}"),
            (self.kind == CONJECTURE and self.paper is not None,
             "a conjecture has no paper value"),
            (self.kind in (EXACT, BAND) and self.paper is None,
             f"a {self.kind} claim needs a paper value"),
            (self.kind == BAND and self.paper == (1.0 if self.ratio else 0.0),
             "a band around no effect is a direction claim"),
            (self.kind in (DIRECTION, CONJECTURE) and self.gate is None,
             f"a {self.kind} claim needs a gate"),
            (self.gate is None and not self.reason, "no gate and no reason"),
        ) if broken]
        if problems:
            raise ValueError(f"claim {self.name!r}: {problems[0]}")
        if self.gate is not None:
            parse_gate(self.gate)

    def evaluate(
        self, measured: Dict[str, object], section: str
    ) -> Dict[str, object]:
        """The claim's record: its definition, value and status."""
        if callable(self.measure):
            value = self.measure(measured)
        else:
            value = lookup(measured, self.measure or self.name)
        holds = None if self.gate is None else gate_holds(self.gate, value)
        status = claim_status(self.kind, self.paper, value, holds, self.ratio)
        return dict(zip(CLAIM_FIELDS, (
            self.name, self.source or section, self.kind, self.paper, value,
            self.gate, status, self.reason,
        )))


def evaluate_claims(
    spec: ExperimentSpec, measured: Dict[str, object]
) -> Tuple[bool, List[Dict[str, object]]]:
    """``(shape_holds, claim records)``: every gate holds, and each claim."""
    claims = spec.claims
    records = [claim.evaluate(measured, spec.section) for claim in claims]
    return all(
        gate_holds(claim.gate, record["measured"])
        for claim, record in zip(claims, records) if claim.gate is not None
    ), records


@dataclass
class ExperimentResult:
    """Outcome of one reproduced experiment."""

    experiment: str
    title: str
    measured: Dict[str, object]
    #: One record per spec claim (:meth:`Claim.evaluate`), in spec order.
    claims: List[Dict[str, object]]
    shape_holds: bool
    report: str
    notes: str = ""
    #: Observatory analytics (:func:`repro.obs.analytics.derive`) the
    #: engine attaches in :func:`~repro.analysis.engine.run_cached`.
    #: Always JSON-round-tripped before attachment, so a cached result's
    #: block compares equal to a freshly derived one.  Empty when the
    #: run was not derived (plain :func:`~repro.analysis.engine.execute`).
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


@dataclass
class ExperimentSpec:
    """One declarative experiment: the unit the engine executes."""

    #: Registry id (``E1`` .. ``E21``), matching DESIGN.md's index.
    id: str
    #: Human title, e.g. ``"Table 2: lazy VSID flushing"``.
    title: str
    #: Paper reference (section / table / figure).
    section: str
    #: The machine/config matrix the workload boots, in boot order.
    variants: Tuple[ConfigVariant, ...]
    #: Measures the variants; see :data:`Workload`.
    workload: Workload
    #: The paper claims checked over the measured dict.
    claims: Tuple[Claim, ...]
    #: Deterministic seed recorded in the cache fingerprint.  The
    #: workloads construct their own ``random.Random(seed)`` instances;
    #: this field documents the seed family a spec uses.
    seed: int = 0
    #: Static reproduction caveats, carried into every result.
    notes: str = ""


def experiment_sort_key(experiment_id: str) -> int:
    """Numeric ordering for registry ids (E1, E2, ..., E21)."""
    return int(experiment_id[1:])
