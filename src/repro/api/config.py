"""The unified run configuration: every runner knob in one frozen bundle.

:class:`RunConfig` is the only carrier of run settings.  It is resolved in
exactly one place (:func:`resolve_config`), by **one documented order**:

1. **Explicit overrides** — CLI flags the user actually passed, or the
   fields of a service job submission.  A flag the user did *not* pass is
   represented as ``None`` and falls through to the next layer.
2. **Environment gates** — ``REPRO_CACHE``, ``REPRO_CACHE_DIR``,
   ``REPRO_BACKEND``, ``REPRO_CHUNK_DEADLINE``.
3. **Defaults** — the dataclass field defaults below.

The environment is read once, at the entry points, and nowhere else:

* the runner CLI (``python -m repro.experiments.runner``) and
  :func:`repro.api.run_suite` called with ``config=None``;
* the service's submit handler, for each submission's open fields;
* the worker CLI (``python -m repro.perf.worker``), for its own defaults
  (its backend is always ``serial``).

:meth:`RunConfig.apply` then sets each subsystem's in-process switch (cache,
store directory, backend, base supervision policy) and
writes nothing to ``os.environ``.  Forked experiment children inherit
those switches through memory; socket and pool workers receive
them per chunk in the run frame's ``ctx``.  So a
setting depends only on the config that asked for it: one service job can
never leak its settings into the next.  :meth:`RunConfig.describe` renders
the config as a JSON-safe dict — embedded verbatim in service job
submissions and recorded in the run report's ``summary.config`` block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

__all__ = ["ConfigError", "RunConfig", "resolve_config"]

_OFF_VALUES = ("off", "0", "false", "no")

#: Fields whose value can come from an environment gate (layer 2) when the
#: caller did not override them explicitly (layer 1).
ENV_GATES = {
    "cache": "REPRO_CACHE",
    "cache_dir": "REPRO_CACHE_DIR",
    "backend": "REPRO_BACKEND",
    "chunk_deadline": "REPRO_CHUNK_DEADLINE",
}


class ConfigError(ValueError):
    """A run configuration that cannot be resolved (bad value or combination)."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one experiment/sweep run, resolved and validated.

    Instances are frozen: the CLI parses into one, the service embeds one
    per job, and the report records one — all three see the same object
    shape with the same precedence already applied.  Build instances with
    :func:`resolve_config` (or :meth:`from_dict` for wire payloads); the
    bare constructor skips environment resolution.
    """

    #: run the larger (``--full``) sweeps instead of the fast ones
    full: bool = False
    #: wall-clock seconds per experiment attempt; ``None`` = unbounded
    timeout: Optional[float] = 600.0
    #: extra attempts for a non-passing experiment (seed rotates)
    retries: int = 0
    #: base seed for sampling experiments; ``None`` = experiment default
    seed: Optional[int] = None
    #: run each experiment in its own subprocess (timeouts enforced)
    isolated: bool = True
    #: continue the suite after a failing experiment
    keep_going: bool = True
    #: experiments run concurrently (isolated children babysat by threads);
    #: ``None`` = auto: the usable CPUs, at most one per selected experiment,
    #: and 1 for inline runs (``summary.config`` records the resolved count)
    parallel: Optional[int] = None
    #: the per-automaton transition memo: ``"on"``, ``"off"``, or ``"stats"``
    #: (on + a hit/miss line)
    cache: str = "on"
    #: disk-backed store directory (reserved; see repro.perf.store)
    cache_dir: Optional[str] = None
    #: sweep execution backend spec; ``None`` = serial
    backend: Optional[str] = None
    #: wall-clock bound per sweep chunk; ``None`` = policy default, ``0`` = off
    chunk_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cache not in ("on", "off", "stats"):
            raise ConfigError(
                f"cache must be 'on', 'off' or 'stats', got {self.cache!r}"
            )
        if self.parallel is not None:
            if not isinstance(self.parallel, int) or isinstance(self.parallel, bool):
                raise ConfigError(
                    f"parallel must be an integer or null, got {self.parallel!r}"
                )
            if self.parallel < 1:
                raise ConfigError(f"parallel must be >= 1, got {self.parallel!r}")
            if self.parallel > 1 and not self.isolated:
                raise ConfigError("parallel > 1 requires isolation")
        if not isinstance(self.retries, int) or isinstance(self.retries, bool):
            raise ConfigError(f"retries must be an integer, got {self.retries!r}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries!r}")
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise ConfigError(f"seed must be an integer or null, got {self.seed!r}")
        for name in ("timeout", "chunk_deadline"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ConfigError(f"{name} must be a number or null, got {value!r}")
        for name in ("full", "isolated", "keep_going"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(
                    f"{name} must be a boolean, got {getattr(self, name)!r}"
                )
        for name in ("cache_dir", "backend"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string or null, got {value!r}")

    # -- wire formats ------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunConfig":
        """Rebuild a config from a :meth:`describe`-shaped mapping.

        Unknown keys are a :class:`ConfigError` (a malformed submission
        must be rejected, not silently truncated)."""
        if not isinstance(payload, Mapping):
            raise ConfigError(f"config must be an object, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**dict(payload))

    def describe(self) -> Dict[str, Any]:
        """The JSON-safe rendering: job submissions and ``summary.config``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- applying ----------------------------------------------------------------

    def apply(self) -> None:
        """Set this process's subsystem switches from the config.

        Writes nothing to ``os.environ``: forked children inherit the
        switches through memory, and socket workers get them per chunk
        from the run frame.
        """
        from repro.perf import backends as perf_backends
        from repro.perf import cache as perf_cache
        from repro.perf import store as perf_store
        from repro.perf import supervise as perf_supervise

        perf_cache.configure(enabled=self.cache != "off")
        perf_store.configure(self.cache_dir)
        perf_backends.configure_backend(self.backend)
        policy = perf_supervise.SupervisionPolicy(seed=self.seed or 0)
        if self.chunk_deadline is not None:
            policy = policy.with_options({"deadline": self.chunk_deadline})
        perf_supervise.configure_policy(policy)


def resolve_config(
    *, env: Optional[Mapping[str, str]] = None, **overrides: Any
) -> RunConfig:
    """Resolve a :class:`RunConfig`: explicit overrides > env gates > defaults.

    ``overrides`` are the caller's explicit choices (CLI flags, a job
    submission's config fields).  ``None`` means "not specified" for every
    field.  Unknown override names raise :class:`ConfigError`.

    Values are normalized here, once: the backend spec is canonicalized
    (``" Pool:8 "`` -> ``"pool:8"``), ``cache_dir`` is made absolute, a
    non-positive ``timeout`` becomes ``None`` (unbounded).
    """
    environ = os.environ if env is None else env
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigError(
            f"unknown config field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )

    values: Dict[str, Any] = {}

    # Layer 2: environment gates (only consulted when layer 1 is silent).
    def env_raw(field: str) -> Optional[str]:
        raw = environ.get(ENV_GATES[field], "")
        raw = raw.strip()
        return raw or None

    # Plain (non-env-gated) fields: explicit override or dataclass default.
    for name in ("full", "isolated", "keep_going"):
        if name in overrides and overrides[name] is not None:
            values[name] = bool(overrides[name])
    for name in ("timeout", "retries", "seed", "parallel"):
        if name in overrides and overrides[name] is not None:
            values[name] = overrides[name]

    # cache: flag choice wins; else REPRO_CACHE (on/off only — "stats" is a
    # CLI/submission-level request, not an environment mode).
    explicit_cache = overrides.get("cache")
    if explicit_cache is not None:
        values["cache"] = explicit_cache
    else:
        raw = env_raw("cache")
        if raw is not None:
            values["cache"] = "off" if raw.lower() in _OFF_VALUES else "on"

    explicit_dir = overrides.get("cache_dir")
    if explicit_dir is not None:
        values["cache_dir"] = explicit_dir
    else:
        raw = env_raw("cache_dir")
        if raw is not None:
            values["cache_dir"] = raw

    explicit_backend = overrides.get("backend")
    if explicit_backend is not None:
        values["backend"] = explicit_backend
    else:
        raw = env_raw("backend")
        if raw is not None:
            values["backend"] = raw

    explicit_deadline = overrides.get("chunk_deadline")
    if explicit_deadline is not None:
        values["chunk_deadline"] = explicit_deadline
    else:
        raw = env_raw("chunk_deadline")
        if raw is not None:
            try:
                values["chunk_deadline"] = float(raw)
            except ValueError:
                raise ConfigError(
                    f"REPRO_CHUNK_DEADLINE needs a number, got {raw!r}"
                )

    # Layer 3 is the dataclass defaults; construct (validates) then normalize.
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc))

    updates: Dict[str, Any] = {}
    if config.timeout is not None and config.timeout <= 0:
        updates["timeout"] = None
    if config.cache_dir is not None:
        updates["cache_dir"] = os.path.abspath(config.cache_dir)
    if config.backend is not None:
        from repro.perf import backends as perf_backends

        try:
            updates["backend"] = perf_backends.normalize_spec(config.backend)
        except perf_backends.BackendSpecError as exc:
            raise ConfigError(f"invalid backend spec: {exc}")
    return replace(config, **updates) if updates else config
