"""On-disk result cache for the experiment engine.

A cached :class:`~repro.analysis.spec.ExperimentResult` is keyed by a
fingerprint over everything that can change the numbers: the spec's
identity and full machine/config matrix, the workload parameters, the
seed, and a hash of the package source (``code_version``).  Any code
edit anywhere in ``src/repro`` therefore invalidates every entry —
coarse, but it makes stale hits impossible without tracking the
simulator's real dependency graph.

Layout: one JSON file per entry under the cache root
(``.repro-cache/`` by default, ``REPRO_CACHE_DIR`` overrides), named
``<id>-<fingerprint[:16]>.json``.  Entries are whole, atomic
(write-to-temp + rename) and self-describing, so parallel workers can
populate the cache concurrently without coordination.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
from typing import Dict, Optional

from repro.analysis.spec import ExperimentResult, ExperimentSpec

#: Bump when the entry format changes; old entries are ignored.
#: v2: results carry the observatory's ``derived`` block.
#: v3: array-backed hot core — results are bit-identical to v2, but the
#: rewrite touched every kernel that feeds an entry, so cached v2 runs
#: are retired rather than trusted across the swap.
#: v4: results carry claim records in place of the paper dict.
CACHE_SCHEMA = 4

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent

_code_version_cache: Optional[str] = None


def cache_dir() -> pathlib.Path:
    """The resolved cache root (env override or the cwd default)."""
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def code_version() -> str:
    """SHA-256 over every ``src/repro`` source file, path-sorted.

    Computed once per process: the package cannot change under a
    running engine, and hashing ~100 files per experiment would cost
    more than some of the experiments themselves.
    """
    global _code_version_cache
    if _code_version_cache is None:
        digest = hashlib.sha256()
        for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def _fingerprint_default(value: object) -> object:
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"unfingerprintable value: {value!r}")


def spec_fingerprint(
    spec: ExperimentSpec, params: Optional[Dict[str, object]] = None
) -> str:
    """Stable hash of (spec identity, variants, params, seed, code)."""
    identity = {
        "id": spec.id,
        "title": spec.title,
        "section": spec.section,
        "seed": spec.seed,
        "variants": [
            {
                "label": variant.label,
                "machine": dataclasses.asdict(variant.machine),
                "config": dataclasses.asdict(variant.config),
            }
            for variant in spec.variants
        ],
        "params": params or {},
        "code_version": code_version(),
    }
    payload = json.dumps(identity, sort_keys=True, default=_fingerprint_default)
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Load/store :class:`ExperimentResult` records by fingerprint."""

    def __init__(self, root: Optional[pathlib.Path] = None):
        self.root = pathlib.Path(root) if root is not None else cache_dir()

    def _path(self, experiment_id: str, fingerprint: str) -> pathlib.Path:
        return self.root / f"{experiment_id}-{fingerprint[:16]}.json"

    def load(
        self, experiment_id: str, fingerprint: str
    ) -> Optional[ExperimentResult]:
        """The cached result, or None on miss/mismatch/corruption."""
        path = self._path(experiment_id, fingerprint)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            entry.get("schema") != CACHE_SCHEMA
            or entry.get("fingerprint") != fingerprint
        ):
            return None
        record = entry.get("result")
        if not isinstance(record, dict):
            return None
        try:
            return ExperimentResult(**record)
        except TypeError:
            return None

    def store(
        self, experiment_id: str, fingerprint: str, result: ExperimentResult
    ) -> pathlib.Path:
        """Persist one result atomically (temp file + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(experiment_id, fingerprint)
        entry = {
            "schema": CACHE_SCHEMA,
            "fingerprint": fingerprint,
            "result": dataclasses.asdict(result),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
        return path
