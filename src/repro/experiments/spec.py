"""Declarative experiment specifications with stable content fingerprints.

An :class:`ExperimentSpec` describes one scenario suite of the offline
Sparse.Tree pipeline without touching any data file: the corpus is a
parametric generator config (family mix, size, seed), the targets are
(system, backend) pairs, and the training axes (algorithms, grid, CV) are
plain values.  Everything reduces to a canonical JSON document whose
blake2b digest is the spec's *fingerprint* — the key under which the
orchestrator stores and resumes every stage artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple, Union

from repro.core.pipeline import (
    DEFAULT_DT_GRID,
    DEFAULT_RF_GRID,
    SMALL_RF_GRID,
)
from repro.datasets.collection import MatrixCollection, resolve_family_mix
from repro.errors import ValidationError
from repro.machine.systems import SYSTEMS

__all__ = ["CorpusSpec", "TargetSpec", "ExperimentSpec", "ALGORITHMS", "GRID_PRESETS"]

ALGORITHMS = ("random_forest", "decision_tree")

#: Named hyperparameter grids a spec can reference instead of spelling one
#: out.  ``None`` entries fall back to the algorithm's default grid.
GRID_PRESETS: Dict[str, Mapping[str, Mapping[str, Sequence[object]]]] = {
    "small": {"random_forest": SMALL_RF_GRID, "decision_tree": None},
    "default": {"random_forest": DEFAULT_RF_GRID, "decision_tree": None},
}

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class CorpusSpec:
    """Parametric generator config for one synthetic corpus.

    ``families`` is an optional family -> weight mix overriding the
    default — the scenario-suite lever that opens structurally biased
    corpora (all-banded, graph-heavy, ...) from the same generators.  A
    mapping or (family, weight) pairs in any order are accepted and
    canonicalised, so equal mixes always fingerprint identically.
    """

    n_matrices: int = 120
    seed: int = 42
    families: Tuple[Tuple[str, float], ...] | None = None
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.n_matrices < 1:
            raise ValidationError("corpus n_matrices must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValidationError("corpus test_fraction must be in (0, 1)")
        if self.families is not None:
            # canonicalise through the collection's own mix resolver so
            # "equal fingerprint" and "equal corpus" can never diverge
            object.__setattr__(
                self,
                "families",
                resolve_family_mix(self.families, error=ValidationError),
            )

    def build(self) -> MatrixCollection:
        """Materialise the (lazy) collection this spec describes."""
        return MatrixCollection(
            n_matrices=self.n_matrices,
            seed=self.seed,
            families=dict(self.families) if self.families else None,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_matrices": self.n_matrices,
            "seed": self.seed,
            "families": (
                [[fam, weight] for fam, weight in self.families]
                if self.families is not None
                else None
            ),
            "test_fraction": self.test_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CorpusSpec":
        # a JSON object, a pair list or null all normalise in
        # __post_init__; an explicit empty mix is rejected there rather
        # than silently falling back to the default
        return cls(
            n_matrices=int(payload.get("n_matrices", 120)),
            seed=int(payload.get("seed", 42)),
            families=payload.get("families", None),
            test_fraction=float(payload.get("test_fraction", 0.2)),
        )


@dataclass(frozen=True)
class TargetSpec:
    """One (system, backend) execution space the suite profiles and trains."""

    system: str
    backend: str

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValidationError(
                f"unknown system {self.system!r}; expected one of "
                f"{sorted(SYSTEMS)}"
            )
        if self.backend not in SYSTEMS[self.system].backends:
            raise ValidationError(
                f"system {self.system!r} has no backend {self.backend!r} "
                f"(available: {list(SYSTEMS[self.system].backends)})"
            )

    @property
    def space_name(self) -> str:
        return f"{self.system}/{self.backend}"

    def to_dict(self) -> Dict[str, object]:
        return {"system": self.system, "backend": self.backend}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TargetSpec":
        return cls(system=str(payload["system"]), backend=str(payload["backend"]))


@dataclass(frozen=True)
class ExperimentSpec:
    """A full scenario suite: corpus x targets x algorithms x grid.

    The spec is pure metadata — building it touches no matrix.  Two specs
    with the same content have the same :attr:`fingerprint` regardless of
    construction order, which is what makes the artifact store resumable:
    a re-invoked run recomputes the same keys and finds its stages.

    Attributes
    ----------
    name:
        Human-readable suite name; part of the canonical content, so
        renaming a suite changes its fingerprint.
    corpus:
        Parametric generator config (:class:`CorpusSpec`): family mix,
        size, seed, train/test split.
    targets:
        The (system, backend) execution spaces to profile and train for.
    algorithms:
        Any of :data:`ALGORITHMS` (``random_forest``,
        ``decision_tree``); one model is trained per target x algorithm.
    grid:
        A :data:`GRID_PRESETS` name (``"small"``, ``"default"``) or an
        explicit ``{param: [values]}`` mapping, canonicalised so equal
        grids fingerprint identically.
    cv / train_seed:
        The Section VII-D training axes (k-fold count, RNG seed).

    Specs round-trip losslessly through :meth:`save`/:meth:`load` (JSON)
    and :meth:`to_dict`/:meth:`from_dict`; see
    ``docs/scenario_suites.md`` for the schema and examples.

    Examples
    --------
    >>> spec = ExperimentSpec(name="smoke")
    >>> spec.fingerprint == ExperimentSpec(name="smoke").fingerprint
    True
    """

    name: str
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    targets: Tuple[TargetSpec, ...] = (TargetSpec("cirrus", "serial"),)
    algorithms: Tuple[str, ...] = ("random_forest",)
    grid: Union[str, Tuple[Tuple[str, Tuple[object, ...]], ...]] = "small"
    cv: int = 5
    train_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("experiment name must be non-empty")
        if not self.targets:
            raise ValidationError("experiment needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("duplicate targets in experiment spec")
        if not self.algorithms:
            raise ValidationError("experiment needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValidationError(
                    f"unknown algorithm {algo!r}; expected one of "
                    f"{list(ALGORITHMS)}"
                )
        if isinstance(self.grid, str):
            if self.grid not in GRID_PRESETS:
                raise ValidationError(
                    f"unknown grid preset {self.grid!r}; expected one of "
                    f"{sorted(GRID_PRESETS)} or an explicit grid mapping"
                )
        else:
            # normalise mapping / pair-list grids to a canonical sorted
            # tuple-of-tuples so equal grids fingerprint identically
            items = (
                sorted(self.grid.items())
                if isinstance(self.grid, Mapping)
                else sorted(self.grid)
            )
            object.__setattr__(
                self,
                "grid",
                tuple((str(param), tuple(values)) for param, values in items),
            )
        if self.cv < 2:
            raise ValidationError("cv must be >= 2")

    # ------------------------------------------------------------------
    def resolve_grid(self, algorithm: str) -> Mapping[str, Sequence[object]] | None:
        """The hyperparameter grid to search for *algorithm*.

        ``None`` means "use the algorithm's default grid" (what
        :func:`repro.experiments.stages.train_model` does with
        ``grid=None``).
        """
        if isinstance(self.grid, str):
            return GRID_PRESETS[self.grid][algorithm]
        return {param: list(values) for param, values in self.grid}

    @property
    def space_names(self) -> Tuple[str, ...]:
        return tuple(t.space_name for t in self.targets)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        grid: object = self.grid
        if not isinstance(grid, str):
            grid = [[param, list(values)] for param, values in grid]
        return {
            "name": self.name,
            "corpus": self.corpus.to_dict(),
            "targets": [t.to_dict() for t in self.targets],
            "algorithms": list(self.algorithms),
            "grid": grid,
            "cv": self.cv,
            "train_seed": self.train_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        grid = payload.get("grid", "small")
        if not isinstance(grid, (str, Mapping)):
            grid = tuple((str(param), tuple(values)) for param, values in grid)
        return cls(
            name=str(payload["name"]),
            corpus=CorpusSpec.from_dict(payload.get("corpus", {})),
            targets=tuple(
                TargetSpec.from_dict(t) for t in payload.get("targets", ())
            ),
            algorithms=tuple(
                str(a) for a in payload.get("algorithms", ("random_forest",))
            ),
            grid=grid,
            cv=int(payload.get("cv", 5)),
            train_seed=int(payload.get("train_seed", 0)),
        )

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable content hash: canonical JSON -> blake2b hex digest."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the spec as a JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentSpec":
        """Read a spec written by :meth:`save` (or hand-authored JSON)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
