"""Declarative placement job specifications.

A :class:`JobSpec` is everything needed to reproduce one placement run:
a design reference (a named synthetic suite design or a Bookshelf
``.aux`` file), the full :class:`~repro.core.PlacementParams`, and a
stage selection (``gp``/``lg``/``dp``/``route``).  Specs serialize
canonically (sorted-key JSON, stable field order) and carry a *content
hash* combining:

- the canonical spec JSON (minus result-neutral knobs like ``verbose``),
- the netlist fingerprint of the loaded design
  (:meth:`repro.netlist.PlacementDB.fingerprint` — structure, not file
  paths or names), and
- the toolkit code version (``repro.__version__`` + a spec schema
  version).

Two jobs with equal hashes produce bit-identical placements, which is
what makes the hash a safe key for the content-addressed result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import repro
from repro.core.params import PlacementParams
from repro.netlist.database import PlacementDB

#: bump when the spec layout or hash recipe changes (invalidates caches).
#: 2: the workspace-pooling switch left ``PlacementParams``;
#: ``density_strategy`` gained ``"flat"`` (its new default)
SPEC_SCHEMA_VERSION = 2

#: the flow stages a job may select, in flow order
STAGES = ("gp", "lg", "dp", "route")

#: parameters excluded from the content hash: they cannot change the
#: placement result, only logging/diagnostics
HASH_NEUTRAL_PARAMS = ("verbose",)


def canonical_json(data) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@dataclass(frozen=True)
class DesignRef:
    """Reference to a placement database.

    ``source`` is ``"suite"`` (``name`` is a synthetic suite design,
    materialized at ``scale``) or ``"bookshelf"`` (``name`` is an
    ``.aux`` path).  The reference identifies *where to load from*;
    cache identity always comes from the loaded netlist's content
    fingerprint, so e.g. moving a Bookshelf directory does not fork the
    cache.
    """

    name: str
    source: str = "suite"
    scale: int = 100

    def __post_init__(self):
        if self.source not in ("suite", "bookshelf"):
            raise ValueError(f"unknown design source {self.source!r}")

    @staticmethod
    def parse(text: str, scale: int = 100) -> "DesignRef":
        """`.aux` paths are Bookshelf designs, anything else a suite name."""
        if text.endswith(".aux"):
            return DesignRef(name=text, source="bookshelf", scale=scale)
        return DesignRef(name=text, source="suite", scale=scale)

    def load(self) -> PlacementDB:
        """Materialize the database."""
        if self.source == "bookshelf":
            from repro.bookshelf import read_bookshelf

            return read_bookshelf(self.name)
        from repro.benchgen import load_design

        return load_design(self.name, scale=self.scale)

    def to_dict(self) -> dict:
        return {"name": self.name, "source": self.source,
                "scale": self.scale}

    @classmethod
    def from_dict(cls, data: dict) -> "DesignRef":
        return cls(name=data["name"], source=data["source"],
                   scale=int(data.get("scale", 100)))


@dataclass
class JobSpec:
    """One placement job: design + parameters + stage selection."""

    design: DesignRef
    params: PlacementParams = field(default_factory=PlacementParams)
    stages: tuple = ("gp", "lg", "dp")

    def __post_init__(self):
        if isinstance(self.design, str):
            self.design = DesignRef.parse(self.design)
        self.stages = tuple(self.stages)
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ValueError(
                f"unknown stage(s) {unknown}; valid: {list(STAGES)}"
            )
        if "gp" not in self.stages:
            raise ValueError("every job runs global placement ('gp')")
        if "dp" in self.stages and "lg" not in self.stages:
            raise ValueError("'dp' requires 'lg' (detailed placement "
                             "operates on a legal placement)")

    # ------------------------------------------------------------------
    def effective_params(self) -> PlacementParams:
        """Parameters with the stage selection folded in."""
        return self.params.with_overrides(
            legalize="lg" in self.stages,
            detailed="dp" in self.stages,
            routability="route" in self.stages,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "design": self.design.to_dict(),
            "params": self.params.to_dict(),
            "stages": list(self.stages),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        schema = int(data.get("schema", SPEC_SCHEMA_VERSION))
        if schema > SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"job spec schema {schema} is newer than this toolkit "
                f"understands ({SPEC_SCHEMA_VERSION})"
            )
        if schema < SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"job spec schema {schema} predates this toolkit's "
                f"({SPEC_SCHEMA_VERSION}): the parameter layout changed, "
                "so the stored spec cannot be re-run; re-submit the job"
            )
        params = data.get("params", {})
        if not isinstance(params, PlacementParams):
            params = PlacementParams.from_dict(dict(params))
        return cls(
            design=DesignRef.from_dict(data["design"]),
            params=params,
            stages=tuple(data.get("stages", ("gp", "lg", "dp"))),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    # ------------------------------------------------------------------
    def job_hash(self, db: PlacementDB) -> str:
        """Content hash (hex SHA-256) of this job against ``db``.

        Folds in the *effective* parameters (stage selection applied,
        hash-neutral knobs stripped), the netlist fingerprint, and the
        code version, so the hash changes exactly when the produced
        placement could.
        """
        params = self.effective_params().to_dict()
        for name in HASH_NEUTRAL_PARAMS:
            params.pop(name, None)
        payload = canonical_json({
            "schema": SPEC_SCHEMA_VERSION,
            "code_version": repro.__version__,
            "params": params,
            "stages": list(self.stages),
            "netlist": db.fingerprint(),
        })
        return hashlib.sha256(payload.encode()).hexdigest()

    def fallback_hash(self) -> str:
        """Deterministic run key for a job whose design cannot load.

        The content hash folds in the netlist fingerprint, which needs
        a loaded database — but a job that fails at design load still
        deserves a run directory recording the failure.  This key
        substitutes the design *reference* for the netlist content and
        marks the payload (``"netlist": None``) so it can never collide
        with a real job hash.  It is stable across processes, so every
        retry of the same broken job lands in the same directory.
        """
        params = self.effective_params().to_dict()
        for name in HASH_NEUTRAL_PARAMS:
            params.pop(name, None)
        payload = canonical_json({
            "schema": SPEC_SCHEMA_VERSION,
            "code_version": repro.__version__,
            "params": params,
            "stages": list(self.stages),
            "netlist": None,
            "design_ref": self.design.to_dict(),
        })
        return hashlib.sha256(payload.encode()).hexdigest()

    def with_param_overrides(self, **kwargs) -> "JobSpec":
        """A copy with some placement parameters replaced."""
        return replace(self, params=self.params.with_overrides(**kwargs))


def job_from_dict(data, default_scale: int = 400) -> JobSpec:
    """Lenient job parsing for ``batch`` spec files and API bodies.

    Accepts a bare design string, or a dict with ``design`` (string or
    :class:`DesignRef` dict), optional ``scale``, partial ``params``
    and ``stages``.  The strict round-trip format
    (:meth:`JobSpec.from_dict`) stays reserved for artifacts the
    toolkit wrote itself.
    """
    if isinstance(data, str):
        data = {"design": data}
    if not isinstance(data, dict):
        raise ValueError(f"job entry must be a string or object: {data!r}")
    design = data.get("design")
    if design is None:
        raise ValueError(f"job entry missing 'design': {data!r}")
    if isinstance(design, str):
        design = DesignRef.parse(
            design, scale=int(data.get("scale", default_scale))
        )
    else:
        design = DesignRef.from_dict(design)
    params = data.get("params", {})
    if not isinstance(params, PlacementParams):
        params = PlacementParams.from_dict(dict(params))
    return JobSpec(design=design, params=params,
                   stages=tuple(data.get("stages", ("gp", "lg", "dp"))))
