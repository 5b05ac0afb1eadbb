"""Shared infrastructure of the experiment harness.

Two layers:

* :func:`run_experiment` — the bare runner: import the experiment module,
  call ``run(fast=...)``, return its :class:`ExperimentReport`.  Any
  exception propagates (this is what unit tests exercising a single
  experiment want).
* :func:`run_experiment_guarded` — the hardened runner the CLI and CI use:
  each experiment executes inside an **isolation boundary** (a forked
  subprocess) with a **wall-clock timeout**; a crash or hang becomes a
  structured :class:`ExperimentOutcome` (status ``error`` / ``timeout``
  with the traceback attached) instead of killing the suite, and failed
  attempts are retried up to ``retries`` times with **seed rotation** for
  Monte-Carlo flakiness (the per-attempt seed is visible to experiments
  through :func:`experiment_seed`).
"""

from __future__ import annotations

import importlib
import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.procinfo import peak_rss_bytes as _peak_rss_bytes
from repro.perf import backends as _perf_backends

__all__ = [
    "ExperimentReport",
    "ExperimentOutcome",
    "ALL_EXPERIMENTS",
    "import_experiments",
    "run_experiment",
    "run_experiment_guarded",
    "experiment_seed",
    "set_experiment_seed",
    "kind_priority_schema",
    "coin_oblivious_schema",
]


@dataclass
class ExperimentReport:
    """The result of one experiment run.

    ``table`` is the plain-text table (the row set EXPERIMENTS.md records),
    ``passed`` is the theorem-shape assertion, ``data`` holds the raw
    numbers for programmatic consumers (benchmarks assert on them).
    """

    experiment: str
    claim: str
    table: str
    passed: bool
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.experiment} — {self.claim}\n{self.table}"


#: experiment id -> (module name, claim summary)
ALL_EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "E1": ("e01_composition_bound", "Lemma 4.3/B.1: PSIOA composition bound is c_comp*(b1+b2)"),
    "E2": ("e02_pca_bound", "Lemma B.2: PCA composition bound is c'_comp*(b1+b2)"),
    "E3": ("e03_hiding_bound", "Lemma 4.5/B.3: hiding bound is c_hide*(b+b')"),
    "E4": ("e04_transitivity", "Theorem 4.16/B.4: eps13 <= eps12 + eps23"),
    "E5": ("e05_composability", "Lemma 4.13: composition does not increase the error"),
    "E6": ("e06_family_composability", "Theorem 4.15: neg,pt preserved under composition"),
    "E7": ("e07_structured_closure", "Lemma 4.23/C.1: structured PCA closed under composition"),
    "E8": ("e08_adversary_restriction", "Lemma 4.25: adversary for A||B is adversary for A"),
    "E9": ("e09_dummy_insertion", "Lemma 4.29/D.1: dummy insertion has error exactly 0, q2=2q1"),
    "E10": ("e10_secure_emulation", "Theorem 4.30/D.2: secure emulation composes"),
    "E11": ("e11_creation_monotonicity", "Monotonicity w.r.t. creation under creation-oblivious scheduling"),
    "E12": ("e12_scheduler_ablation", "Section 4.4 ablation: oblivious schema suffices"),
    "E13": ("e13_dynamic_emulation", "Extension: dynamic secure emulation of run-time-created sessions"),
    "E14": ("e14_ledger_realizability", "Extension: which ideal ledger functionality is realizable"),
    "E15": ("e15_fault_tolerance", "Robustness: emulation error under crash/drop/Byzantine faults"),
}

#: Default seed for experiments that sample (fault plans, Monte-Carlo runs).
DEFAULT_SEED = 20260806

_EXPERIMENT_SEED: Optional[int] = None


def set_experiment_seed(seed: Optional[int]) -> None:
    """Install the per-attempt seed (called by the guarded runner; the
    rotation adds the attempt index on retries)."""
    global _EXPERIMENT_SEED
    _EXPERIMENT_SEED = seed


def experiment_seed(default: int = DEFAULT_SEED) -> int:
    """The seed an experiment should use for any sampling it performs."""
    return _EXPERIMENT_SEED if _EXPERIMENT_SEED is not None else default


def _module_path(experiment_id: str) -> str:
    """The experiment's module; registry entries whose name contains a dot
    are absolute module paths (the hook the resilience tests use to inject
    crashing/hanging experiments)."""
    module_name, _claim = ALL_EXPERIMENTS[experiment_id]
    return module_name if "." in module_name else f"repro.experiments.{module_name}"


def import_experiments(experiment_ids: Iterable[str]) -> None:
    """Import the experiments' modules into this process.

    Call it before the first child forks, from the thread that starts the
    babysitter threads: every child then inherits the compiled modules
    instead of compiling them again, and no fork can catch a babysitter
    inside the import machinery.  A module that fails to import is left to
    the guarded child, which reports it.
    """
    for experiment_id in experiment_ids:
        try:
            importlib.import_module(_module_path(experiment_id))
        except Exception:  # noqa: BLE001 - the guarded child reports it
            pass


def run_experiment(experiment_id: str, *, fast: bool = True) -> ExperimentReport:
    """Run one experiment by id (``"E1"`` .. ``"E15"``)."""
    qualified = _module_path(experiment_id)
    with _trace.span("experiment", id=experiment_id, fast=fast):
        with _trace.span("experiment.import", module=qualified):
            module = importlib.import_module(qualified)
        with _trace.span("experiment.run", id=experiment_id):
            return module.run(fast=fast)


# -- the hardened (crash-isolated, timeout-guarded) runner ---------------------


@dataclass
class ExperimentOutcome:
    """What the guarded runner reports for one experiment.

    ``status`` is ``"pass"`` / ``"fail"`` (the experiment ran; ``report``
    is set) or ``"error"`` / ``"timeout"`` (it did not finish; ``error``
    carries the traceback or diagnosis).  ``attempts`` counts runs
    including retries; ``seed`` is the seed of the *last* attempt.

    The observability fields describe the last attempt as well:
    ``metrics`` is the child's :func:`repro.obs.metrics.snapshot` (marshalled
    across the fork boundary; partial metrics survive a crashing child, a
    hard-killed/timed-out child yields ``None``), ``peak_rss_bytes`` its
    :func:`repro.obs.procinfo.peak_rss_bytes`, and ``trace_path`` the file
    the child saved its Chrome trace to (when tracing was requested).
    """

    experiment: str
    status: str
    report: Optional[ExperimentReport] = None
    error: Optional[str] = None
    attempts: int = 1
    elapsed: float = 0.0
    seed: Optional[int] = None
    metrics: Optional[Dict[str, Any]] = None
    peak_rss_bytes: Optional[int] = None
    trace_path: Optional[str] = None
    #: Per-attempt outcomes (attempt index, seed, status, error class,
    #: duration) — ``--retries`` rotates seeds, and without this history a
    #: report only shows the last attempt, hiding *what* the retry survived.
    attempt_history: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __str__(self) -> str:
        if self.report is not None:
            return str(self.report)
        _module, claim = ALL_EXPERIMENTS.get(self.experiment, ("?", "?"))
        detail = "\n".join(
            f"   {line}" for line in (self.error or "no detail").rstrip().splitlines()
        )
        return f"[{self.status.upper()}] {self.experiment} — {claim}\n{detail}"


def _attempt_error_class(status: str, error: Optional[str]) -> Optional[str]:
    """A compact label for what an attempt died of.

    The exception class name for a captured traceback (its last line's
    ``Class: message`` head), else the status itself (``timeout`` and
    harness-level diagnoses have no exception class); ``None`` for attempts
    that produced a report.
    """
    if status in ("pass", "fail"):
        return None
    if error:
        for line in reversed(error.rstrip().splitlines()):
            line = line.strip()
            if not line:
                continue
            head = line.split(":", 1)[0]
            if head and " " not in head:
                return head
            break
    return status


def _observability_extras(trace_path: Optional[str]) -> Dict[str, Any]:
    """The per-attempt observability payload (metrics, RSS, trace)."""
    extras: Dict[str, Any] = {
        "metrics": _metrics.snapshot(),
        "peak_rss_bytes": _peak_rss_bytes(),
        "trace_path": None,
    }
    if trace_path is not None:
        try:
            _trace.TRACER.save(trace_path)
            extras["trace_path"] = str(trace_path)
        except OSError:
            pass
    return extras


def _guarded_child(
    conn,
    experiment_id: str,
    fast: bool,
    seed: Optional[int],
    trace_path: Optional[str],
) -> None:
    """Child-process entry point: run one experiment, ship the result back.

    The child starts from a clean observability slate (with the ``fork``
    start method it inherits the parent's registry and trace buffer) and
    always ships its metrics snapshot — a crashing experiment still reports
    the counters it accumulated before dying.
    """
    _metrics.reset()
    _trace.TRACER.clear()
    # An execution backend inherited through the fork may hold the parent's
    # live worker connections; adopt it (a pool:N keeps the parent's
    # workers, the shared file descriptors stay untouched) so this child's
    # sweeps open their own connections.
    _perf_backends.adopt_inherited()
    if trace_path is not None:
        _trace.enable()
    try:
        set_experiment_seed(seed)
        report = run_experiment(experiment_id, fast=fast)
        payload: Tuple[str, Any] = ("report", report)
    except BaseException:  # noqa: BLE001 - the boundary exists to catch everything
        payload = ("error", traceback.format_exc())
    # Close this child's connections; workers a pool:N backend started here
    # (respawns) must not outlive it, the parent's are left running.
    _perf_backends.close_active()
    extras = _observability_extras(trace_path)
    try:
        conn.send(payload + (extras,))
    except Exception as exc:  # the report itself may be untransferable
        try:
            conn.send(
                ("error", f"experiment result could not be transferred: {exc!r}", extras)
            )
        except Exception:
            pass
    finally:
        conn.close()


#: (status, report, error, observability extras) of one attempt.
_Attempt = Tuple[str, Optional[ExperimentReport], Optional[str], Optional[Dict[str, Any]]]

#: How often a child's babysitter looks at its suite's ``stop`` event.
_STOP_POLL_S = 0.05

#: Held by a babysitter while it creates its child's pipes and forks it.
#: A sibling forked in between would inherit this child's write ends, and
#: this babysitter's join (which waits for the child's sentinel pipe to
#: close) would then wait for the sibling to exit too, up to its 5 s bound.
_FORK_LOCK = threading.Lock()


def _wait_for_child(
    conn, timeout: Optional[float], stop: Optional[threading.Event]
) -> Optional[str]:
    """Wait for the child's result: ``None`` once it can be read, else
    ``"timeout"`` or ``"stopped"`` (``stop`` was set first)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        wait = _STOP_POLL_S
        if deadline is not None:
            wait = min(wait, max(0.0, deadline - time.monotonic()))
        if conn.poll(wait):
            return None
        if stop is not None and stop.is_set():
            return "stopped"
        if deadline is not None and time.monotonic() >= deadline:
            return "timeout"


def _attempt_isolated(
    experiment_id: str,
    fast: bool,
    timeout: Optional[float],
    seed: Optional[int],
    trace_path: Optional[str],
    stop: Optional[threading.Event] = None,
) -> _Attempt:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with _FORK_LOCK:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_guarded_child,
            args=(child_conn, experiment_id, fast, seed, trace_path),
            daemon=True,
        )
        process.start()
        child_conn.close()
    try:
        waited = _wait_for_child(parent_conn, timeout, stop)
        if waited is not None:
            process.terminate()
            process.join(5)
            if process.is_alive():
                process.kill()
                process.join(5)
            if waited == "stopped":
                return "error", None, "stopped: the suite stopped at a failure", None
            return (
                "timeout",
                None,
                f"no result within {timeout}s (process terminated)",
                None,
            )
        try:
            kind, value, extras = parent_conn.recv()
        except EOFError:
            process.join(5)
            return (
                "error",
                None,
                f"experiment process died without a report (exit code {process.exitcode})",
                None,
            )
        process.join(5)
        if kind == "report":
            report: ExperimentReport = value
            return ("pass" if report.passed else "fail"), report, None, extras
        return "error", None, str(value), extras
    finally:
        parent_conn.close()
        if process.is_alive():
            process.kill()
            process.join(5)


def _attempt_inline(
    experiment_id: str,
    fast: bool,
    seed: Optional[int],
    trace_path: Optional[str],
) -> _Attempt:
    previous = _EXPERIMENT_SEED
    # Inline attempts share the process-global registry with the caller, so
    # per-experiment counters and timers are a before/after diff, not a reset.
    before = _metrics.snapshot(include_zero=True)
    tracing_was_enabled = _trace.is_enabled()
    if trace_path is not None:
        _trace.TRACER.clear()
        _trace.enable()
    try:
        set_experiment_seed(seed)
        report = run_experiment(experiment_id, fast=fast)
        status, error = ("pass" if report.passed else "fail"), None
    except Exception:
        report, status, error = None, "error", traceback.format_exc()
    finally:
        set_experiment_seed(previous)
        # The bit-encoding memos hold configurations, and through them
        # automata: empty them, so the caller keeps none of this run's
        # automata alive (nor copies them into every process it forks).
        from repro.bounded.encoding import clear_memos

        clear_memos()
    extras = _observability_extras(trace_path)
    after = _metrics.snapshot(include_zero=True)
    extras["metrics"]["counters"] = _metrics.subtract_counters(
        after["counters"], before["counters"]
    )
    extras["metrics"]["timers"] = _metrics.subtract_timers(after["timers"], before["timers"])
    if trace_path is not None and not tracing_was_enabled:
        _trace.disable()
    return status, report, error, extras


def run_experiment_guarded(
    experiment_id: str,
    *,
    fast: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    seed: Optional[int] = None,
    isolated: bool = True,
    trace_path: Optional[str] = None,
    stop: Optional[threading.Event] = None,
) -> ExperimentOutcome:
    """Run one experiment behind the isolation boundary.

    Parameters
    ----------
    timeout:
        Wall-clock seconds per attempt; ``None`` waits forever.  Requires
        ``isolated=True`` to be enforceable (inline runs cannot be
        interrupted and ignore it).
    retries:
        Extra attempts after a non-passing one (fail, error or timeout).
    seed:
        Base seed for :func:`experiment_seed`; attempt ``i`` runs under
        ``seed + i`` (seed rotation), so Monte-Carlo flakiness does not
        repeat the same unlucky sample.  ``None`` keeps the experiment's
        default seed on every attempt.
    isolated:
        Run in a subprocess (default).  ``False`` runs inline — exceptions
        are still captured but hangs and hard crashes are not survivable.
    trace_path:
        When set, tracing is enabled for the attempt and the Chrome-trace
        JSON is written there (each retry overwrites — the saved trace and
        the reported metrics describe the *last* attempt).
    stop:
        When this event is set, an isolated attempt still running is
        terminated at once (status ``error``) and no retry follows; the
        suite sets it when ``--fail-fast`` stops at a failure.
    """
    start = time.perf_counter()
    attempts = 0
    status: str = "error"
    report: Optional[ExperimentReport] = None
    error: Optional[str] = None
    extras: Optional[Dict[str, Any]] = None
    attempt_seed: Optional[int] = None
    attempt_history: List[Dict[str, Any]] = []
    for attempt in range(max(0, retries) + 1):
        attempts = attempt + 1
        attempt_seed = None if seed is None else seed + attempt
        attempt_start = time.perf_counter()
        if isolated:
            status, report, error, extras = _attempt_isolated(
                experiment_id, fast, timeout, attempt_seed, trace_path, stop
            )
        else:
            status, report, error, extras = _attempt_inline(
                experiment_id, fast, attempt_seed, trace_path
            )
        attempt_history.append(
            {
                "attempt": attempts,
                "seed": attempt_seed,
                "status": status,
                "error_class": _attempt_error_class(status, error),
                "elapsed_s": time.perf_counter() - attempt_start,
            }
        )
        if status == "pass" or (stop is not None and stop.is_set()):
            break
    extras = extras or {}
    return ExperimentOutcome(
        experiment=experiment_id,
        status=status,
        report=report,
        error=error,
        attempts=attempts,
        elapsed=time.perf_counter() - start,
        seed=attempt_seed,
        metrics=extras.get("metrics"),
        peak_rss_bytes=extras.get("peak_rss_bytes"),
        trace_path=extras.get("trace_path"),
        attempt_history=attempt_history,
    )


def coin_oblivious_schema(alphabet=("toss", "head", "tail", "acc")):
    """The oblivious (fixed-sequence, locally-controlled) schema over the
    coin alphabet — the workhorse schema of E4/E5/E6/E11/E12.

    Members come in length order, so each member's parent ``seq[:-1]`` is
    among the previous length's members: the implementation checker
    unfolds the schema along this prefix tree
    (:func:`repro.semantics.measure.sequence_measures`).
    """
    import itertools

    from repro.semantics.schema import SchedulerSchema
    from repro.semantics.scheduler import ActionSequenceScheduler

    def members(automaton, bound):
        for length in range(bound + 1):
            for seq in itertools.product(alphabet, repeat=length):
                yield ActionSequenceScheduler(seq, local_only=True)

    return SchedulerSchema("coin-oblivious", members)


def kind_priority_schema(kinds: List[str], plain: List[str] = (), orders=None):
    """A priority-driver schema over tuple-action kinds (shared by several
    experiments).  ``orders`` lists priority permutations as index tuples;
    defaults to the canonical order only."""
    from repro.semantics.schema import SchedulerSchema
    from repro.semantics.scheduler import PriorityScheduler

    def is_kind(k):
        return lambda a: isinstance(a, tuple) and len(a) >= 1 and a[0] == k

    predicates = [is_kind(k) for k in kinds] + [lambda a, p=p: a == p for p in plain]
    index_orders = orders or [tuple(range(len(predicates)))]

    def members(automaton, bound):
        for order in index_orders:
            yield PriorityScheduler(
                [predicates[i] for i in order], bound, name=("prio", tuple(order))
            )

    return SchedulerSchema("kind-priority", members)
