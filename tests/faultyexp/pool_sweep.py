"""An experiment that sweeps over the run's ``pool:N`` and reports, in its
table, the worker pids it found and the ones it left — the shared-pool
tests read them to tell the parent's workers from a child's own."""

import os
import signal

from repro.experiments.common import ExperimentReport
from repro.perf.backends import get_backend
from repro.perf.parallel import parallel_map


def sweep(experiment_id, marker=None):
    """With ``marker``, the first item SIGKILLs the worker running it, once:
    it creates the marker file first, so the retried chunk survives."""
    backend = get_backend()
    found = [p.process.pid for p in backend.worker_processes]

    def square(x):
        # Runs in a fork of its worker, so the worker is the parent.
        if marker is not None and x == 0 and not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getppid(), signal.SIGKILL)
            os._exit(1)
        return x * x

    passed = parallel_map(square, range(4)) == [0, 1, 4, 9]
    left = [p.process.pid for p in backend.worker_processes]
    table = f"found {' '.join(map(str, found))}\nleft {' '.join(map(str, left))}"
    return ExperimentReport(experiment_id, "sweeps over the run's pool", table, passed)


def run(*, fast: bool = True):
    return sweep("EX-POOL-SWEEP")
