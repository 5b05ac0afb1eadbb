"""Prometheus text exposition for the :mod:`repro.obs.metrics` registry.

:func:`render` turns a registry snapshot into the Prometheus text format
(version 0.0.4) that any scraper understands — the service mounts it at
``GET /v1/metrics``::

    # TYPE service_jobs_completed counter
    service_jobs_completed 3
    # TYPE service_jobs_queue_depth gauge
    service_jobs_queue_depth 0
    # TYPE service_jobs_e2e_latency_s summary
    service_jobs_e2e_latency_s{quantile="0.5"} 0.41
    service_jobs_e2e_latency_s{quantile="0.9"} 0.52
    service_jobs_e2e_latency_s{quantile="0.99"} 0.52
    service_jobs_e2e_latency_s_sum 1.31
    service_jobs_e2e_latency_s_count 3

Registry names are dotted (``service.jobs.completed``); exposition names
must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``, so :func:`sanitize_name` maps
every illegal character to ``_``.  Histograms ship as summaries: the
registry already keeps nearest-rank p50/p90/p99 over a capped reservoir,
which is exactly a quantile summary — no bucket scheme to invent.
Instruments whose values are not real numbers (gauges can hold arbitrary
Python values, histograms can aggregate tuples) are skipped: exposition
is for scrapers, and a scraper cannot average a string.

:func:`parse` is the inverse used by tests and the CI smoke job to prove
the exposition actually parses — a strict reader of the subset this
module emits (``# TYPE`` comments, bare samples, single ``quantile``
labels) that raises :class:`ExpositionError` on anything malformed.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics

__all__ = ["ExpositionError", "parse", "render", "sanitize_name"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>[^}]*)\})?'
    r"\s+(?P<value>\S+)$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')

#: The summary quantiles the registry's histogram digest provides.
_QUANTILES: Tuple[Tuple[str, str], ...] = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


class ExpositionError(ValueError):
    """The exposition text violates the format this module emits."""


def sanitize_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus grammar.

    ``service.jobs.completed`` → ``service_jobs_completed``; a leading
    digit gains a ``_`` prefix.
    """
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not _NAME_OK.match(fixed):
        fixed = "_" + fixed
    return fixed


def _numeric(value: Any) -> Optional[float]:
    """The value as a float, or ``None`` when it is not a real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _format(value: float) -> str:
    # Integers render without a trailing ".0" — smaller and friendlier to eyeballs.
    return str(int(value)) if float(value).is_integer() else repr(value)


def render(snapshot: Optional[Dict[str, Any]] = None) -> str:
    """Prometheus text for ``snapshot`` (default: the live global registry).

    The snapshot shape is :func:`repro.obs.metrics.snapshot`'s:
    ``{"counters": {...}, "gauges": {...}, "histograms": {name: digest}}``.
    """
    if snapshot is None:
        snapshot = _metrics.snapshot()
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():
        number = _numeric(value)
        if number is None:
            continue
        exposed = sanitize_name(name)
        lines.append(f"# TYPE {exposed} counter")
        lines.append(f"{exposed} {_format(number)}")

    for name, value in snapshot.get("gauges", {}).items():
        number = _numeric(value)
        if number is None:
            continue
        exposed = sanitize_name(name)
        lines.append(f"# TYPE {exposed} gauge")
        lines.append(f"{exposed} {_format(number)}")

    for name, digest in snapshot.get("histograms", {}).items():
        exposed = sanitize_name(name)
        count = _numeric(digest.get("count"))
        total = _numeric(digest.get("sum"))
        if count is None or total is None:
            continue
        lines.append(f"# TYPE {exposed} summary")
        for quantile, key in _QUANTILES:
            number = _numeric(digest.get(key))
            if number is not None:
                lines.append(f'{exposed}{{quantile="{quantile}"}} {_format(number)}')
        lines.append(f"{exposed}_sum {_format(total)}")
        lines.append(f"{exposed}_count {_format(count)}")

    return "\n".join(lines) + "\n" if lines else ""


def parse(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse exposition text back into ``{name: family}``.

    Each family is ``{"type": ..., "value": float}`` for counters/gauges
    and ``{"type": "summary", "quantiles": {...}, "sum": ..., "count": ...}``
    for summaries.  Raises :class:`ExpositionError` on malformed lines,
    samples without a preceding ``# TYPE``, a second ``# TYPE`` for a
    family already seen, or non-numeric values — the CI smoke job leans
    on this to validate a live scrape.
    """
    families: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in ("counter", "gauge", "summary"):
                    raise ExpositionError(f"line {lineno}: malformed TYPE comment {raw!r}")
                if parts[2] in types:
                    raise ExpositionError(f"line {lineno}: repeated TYPE for {parts[2]!r}")
                types[parts[2]] = parts[3]
            continue  # other comments are legal and ignored
        match = _SAMPLE.match(line)
        if match is None:
            raise ExpositionError(f"line {lineno}: unparseable sample {raw!r}")
        name, labels_raw, value_raw = (
            match.group("name"), match.group("labels"), match.group("value")
        )
        try:
            value = float(value_raw)
        except ValueError:
            raise ExpositionError(f"line {lineno}: non-numeric value {value_raw!r}")
        base = name
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
        family_type = types.get(base)
        if family_type is None:
            raise ExpositionError(f"line {lineno}: sample {name!r} has no TYPE")
        family = families.setdefault(base, {"type": family_type})
        if family_type in ("counter", "gauge"):
            if labels_raw:
                raise ExpositionError(f"line {lineno}: unexpected labels on {name!r}")
            family["value"] = value
        elif name.endswith("_sum") and base != name:
            family["sum"] = value
        elif name.endswith("_count") and base != name:
            family["count"] = value
        else:
            if not labels_raw:
                raise ExpositionError(f"line {lineno}: summary sample without quantile")
            label = _LABEL.match(labels_raw)
            if label is None or label.group("key") != "quantile":
                raise ExpositionError(f"line {lineno}: malformed labels {labels_raw!r}")
            family.setdefault("quantiles", {})[label.group("value")] = value
    return families
