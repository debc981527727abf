"""Build a serving tier: by name, or over a stored suite's exported model.

:func:`service_class` is the one place a tier name (``"inproc"`` /
``"distributed"``) becomes a service class; ``repro serve``, ``repro
record`` and :func:`repro.trace.service_for_trace` all go through it.
:func:`service_for_suite` builds that tier with the model a stored suite
exported, loaded through :mod:`repro.core.model_io` via the suite's
``models/<fingerprint>/`` model database; :mod:`repro.trace` generates
and drives its traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TuningError, ValidationError
from repro.service.service import TuningService

__all__ = ["service_class", "service_for_suite"]


def service_class(tier: str = "inproc") -> type:
    """The service class of serving tier *tier*.

    ``"inproc"`` is :class:`TuningService`; ``"distributed"`` is
    :class:`repro.distributed.DistributedService`, imported only when
    asked for.  Both take ``(space, tuner, **kwargs)`` and expose the
    same ``from_model_database`` entry point.
    """
    if tier == "inproc":
        return TuningService
    if tier == "distributed":
        from repro.distributed import DistributedService

        return DistributedService
    raise ValidationError(
        f"unknown service kind {tier!r}; expected 'inproc' or 'distributed'"
    )


def service_for_suite(
    store_root,
    *,
    fingerprint: Optional[str] = None,
    algorithm: Optional[str] = None,
    target: int = 0,
    tier: str = "inproc",
    **kwargs,
) -> TuningService:
    """A service serving predictions from a stored suite's exported model.

    The suite's spec names its targets and algorithms; the service binds
    target *target* (default: the first) and loads that cell's exported
    model from ``<store>/models/<spec fingerprint>/`` through the model
    database.  *tier* names the serving tier (:func:`service_class`);
    ``kwargs`` pass through to its constructor.
    """
    import os

    from repro.experiments.store import ArtifactStore

    cls = service_class(tier)
    store = ArtifactStore(store_root)
    spec = store.load_spec(fingerprint)
    if not 0 <= target < len(spec.targets):
        raise ValidationError(
            f"suite {spec.name!r} has {len(spec.targets)} targets, "
            f"no index {target}"
        )
    t = spec.targets[target]
    model_dir = os.path.join(store.root, "models", spec.fingerprint)
    if not os.path.isdir(model_dir):
        # fail before any service/worker construction: a suite that was
        # never exported must not leave a half-built service behind
        raise TuningError(
            f"suite {spec.name!r} has no exported model database at "
            f"{model_dir}; run its export stage first"
        )
    return cls.from_model_database(
        model_dir,
        t.system,
        t.backend,
        algorithm=algorithm or spec.algorithms[0],
        **kwargs,
    )
