"""An experiment whose sweep kills the pool worker running it, mid-chunk."""

from tests.faultyexp.pool_sweep import sweep

#: The marker file's path; the test sets it before the run.
MARKER = None


def run(*, fast: bool = True):
    return sweep("EX-POOL-KILL", MARKER)
