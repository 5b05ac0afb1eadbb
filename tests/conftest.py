"""Suite-wide fixtures.

The observability registry is process-global; resetting it before every
test keeps per-test counter assertions independent of execution order
(instrument objects are zeroed in place, so module-level bindings stay
valid — see :mod:`repro.obs.metrics`).
Every test then starts from the invoking shell's ``REPRO_*`` gates,
resolved and applied the way every entry point does it, so the CI cache
(on/off) and socket-backend matrices govern every test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import resolve_config
from repro.obs import log as obs_log
from repro.obs import metrics, trace

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# A store directory inherited from the invoking shell would add a
# ``summary.cache.persistent`` block to unrelated reports; tests that want
# one configure their own.
os.environ.pop("REPRO_CACHE_DIR", None)


def subprocess_env():
    """os.environ with ``src/`` on PYTHONPATH, for spawning repro processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def spawn_worker():
    """Spawn ``repro.perf.worker`` subprocesses; yields (process, port)."""
    procs = []

    def spawn():
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.perf.worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=subprocess_env(),
        )
        banner = proc.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.strip().rsplit(":", 1)[1])
        procs.append(proc)
        return proc, port

    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@pytest.fixture(autouse=True)
def _clean_observability():
    metrics.reset()
    trace.TRACER.clear()
    resolve_config().apply()
    # The structured log sink and the job correlation id are process-global;
    # start every test with both cleared so records/tags never leak across
    # tests.
    obs_log.configure(None)
    obs_log.set_correlation(None)
    yield
    obs_log.configure(None)
    obs_log.set_correlation(None)
