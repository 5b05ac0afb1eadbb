"""The runtime import footprint: the standard library only, and no more of
``repro`` than an entry point uses.

Every experiment runs in a forked child of the runner, so any package an
experiment imports that the runner parent has not already loaded is paid
again by every child.  Every fresh process (runner, service, worker)
compiles what ``import repro.api`` pulls in, so the package's re-exports
load only when first used.  These checks run in a fresh interpreter so the
test session's own imports (pytest, hypothesis, ...) cannot mask a new one.
"""

import subprocess
import sys
import textwrap

from tests.conftest import subprocess_env

PROBE = textwrap.dedent(
    """
    import importlib
    import importlib.metadata
    import sys

    import repro.api
    import repro.experiments.runner
    from repro.experiments.common import ALL_EXPERIMENTS, run_experiment

    def top_level():
        return {name.partition(".")[0] for name in sys.modules}

    parent = top_level()
    for module_name, _claim in ALL_EXPERIMENTS.values():
        importlib.import_module(f"repro.experiments.{module_name}")
    print("after-import", *sorted(top_level() - parent - {"repro"}))
    # E1, E3, E7 and E8 draw their instances from the seeded generator.
    for experiment_id in ("E1", "E3", "E7", "E8"):
        report = run_experiment(experiment_id)
        assert report.passed, report.table
    print("numpy-loaded", "numpy" in sys.modules)
    owners = importlib.metadata.packages_distributions()
    loaded = top_level() - parent - {"repro"}
    print("after-run", *sorted({dist for name in loaded for dist in owners.get(name, ())}))
    """
)


def test_experiments_add_no_package_to_the_runner_parent():
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = dict(line.partition(" ")[::2] for line in completed.stdout.splitlines())
    # Importing every experiment module adds nothing beyond ``repro``
    # itself to what the runner parent (``runner`` + ``api``) has loaded.
    assert lines["after-import"] == ""
    # Running the experiments that draw random instances loads standard
    # library modules at most: no installed distribution, numpy included.
    assert lines["numpy-loaded"] == "False"
    assert lines["after-run"] == ""


LAZY_PROBE = textwrap.dedent(
    """
    import sys

    import repro.api

    heavy = ("repro.core", "repro.semantics", "repro.secure", "repro.systems")
    print("api-loaded", *sorted(
        name for name in sys.modules
        if any(name == h or name.startswith(h + ".") for h in heavy)
    ))
    import repro

    listed = set(dir(repro))
    print("dir-missing", *sorted(set(repro.__all__) - listed))
    missing = [name for name in repro.__all__ if getattr(repro, name, None) is None]
    print("unresolved", *missing)
    namespace = {}
    exec("from repro import *", namespace)
    print("star-missing", *sorted(set(repro.__all__) - set(namespace)))
    """
)


def test_package_reexports_load_on_first_use():
    completed = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = dict(line.partition(" ")[::2] for line in completed.stdout.splitlines())
    # The facade needs none of the model layers; they load with the first
    # experiment (in the runner parent, before any child forks).
    assert lines["api-loaded"] == ""
    # Every public name still resolves, is listed and is star-exported.
    assert lines["dir-missing"] == ""
    assert lines["unresolved"] == ""
    assert lines["star-missing"] == ""


OBS_PROBE = textwrap.dedent(
    """
    import importlib
    import importlib.util
    import sys

    for name in ("metrics", "report", "log", "procinfo"):
        importlib.import_module(f"repro.obs.{name}")
    print("obs-loaded", *sorted(n for n in sys.modules if n.startswith("repro.")))
    for name in ("progress", "trace", "distributed"):
        print(f"{name}-spec", importlib.util.find_spec(f"repro.obs.{name}"))
    """
)


def test_obs_package_loads_only_the_submodules_asked_for():
    # ``repro.obs`` re-exports nothing, so importing a submodule loads that
    # submodule alone: not analyze, expo or the rest.
    completed = subprocess.run(
        [sys.executable, "-c", OBS_PROBE],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = dict(line.partition(" ")[::2] for line in completed.stdout.splitlines())
    assert lines["obs-loaded"].split() == [
        "repro.obs",
        "repro.obs.log",
        "repro.obs.metrics",
        "repro.obs.procinfo",
        "repro.obs.report",
    ]
    assert lines["progress-spec"] == "None"
    assert lines["trace-spec"] == "None"
    assert lines["distributed-spec"] == "None"


API_PROBE = textwrap.dedent(
    """
    import sys

    import repro.api

    print("api-modules", *sorted(
        name for name in sys.modules if name == "repro" or name.startswith("repro.")
    ))
    """
)


def test_api_loads_no_tracer_module():
    # The run path no longer records, ships, merges or reads spans: a fresh
    # ``import repro.api`` loads 21 ``repro`` modules, none of the tracer's.
    completed = subprocess.run(
        [sys.executable, "-c", API_PROBE],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = dict(line.partition(" ")[::2] for line in completed.stdout.splitlines())
    loaded = lines["api-modules"].split()
    assert not {"repro.obs.trace", "repro.obs.distributed", "repro.obs.analyze"} & set(loaded)
    assert len(loaded) == 21, loaded
