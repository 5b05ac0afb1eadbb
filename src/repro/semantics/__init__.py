"""Scheduling and external perception (paper Section 3).

Composable I/O automata are inherently nondeterministic; the scheduler
(Definition 3.1) resolves the nondeterminism and induces a probability
measure ``epsilon_sigma`` over executions, on which insight functions
(Definition 3.4) project the externally observable behaviour.  This package
provides:

* schedulers and scheduler schemas (Definitions 3.1, 3.2, 4.6),
* exact computation of ``epsilon_sigma`` by execution-tree unfolding,
* environments (Definition 3.3),
* insight functions — ``trace``, ``accept``, ``print`` — and their image
  measures ``f-dist`` (Definitions 3.4, 3.5),
* the balanced-scheduler relation (Definition 3.6) and the
  stability-by-composition property (Definition 3.7).
"""

from repro.semantics.scheduler import (
    Scheduler,
    FunctionScheduler,
    DeterministicScheduler,
    ActionSequenceScheduler,
    TaskScheduler,
    RandomizedScheduler,
    BoundedScheduler,
    bound_scheduler,
)
from repro.semantics.schema import (
    SchedulerSchema,
    enumerate_action_sequences,
    oblivious_schema,
    adaptive_schema,
    singleton_schema,
)
from repro.semantics.measure import (
    execution_measure,
    sequence_measures,
    cone_probability,
    UnboundedUnfoldingError,
)
from repro.semantics.environment import is_environment, environments_of_both
from repro.semantics.insight import (
    InsightFunction,
    trace_insight,
    accept_insight,
    print_insight,
    f_dist,
    f_dists,
)
from repro.semantics.balance import balanced, perception_distance
from repro.semantics.tasks import (
    TaskScheduleScheduler,
    task_partition,
    is_action_deterministic,
    task_schedule_schema,
)

__all__ = [
    "Scheduler",
    "FunctionScheduler",
    "DeterministicScheduler",
    "ActionSequenceScheduler",
    "TaskScheduler",
    "RandomizedScheduler",
    "BoundedScheduler",
    "bound_scheduler",
    "SchedulerSchema",
    "enumerate_action_sequences",
    "oblivious_schema",
    "adaptive_schema",
    "singleton_schema",
    "execution_measure",
    "sequence_measures",
    "cone_probability",
    "UnboundedUnfoldingError",
    "is_environment",
    "environments_of_both",
    "InsightFunction",
    "trace_insight",
    "accept_insight",
    "print_insight",
    "f_dist",
    "f_dists",
    "balanced",
    "perception_distance",
    "TaskScheduleScheduler",
    "task_partition",
    "is_action_deterministic",
    "task_schedule_schema",
]
