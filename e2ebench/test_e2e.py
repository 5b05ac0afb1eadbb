"""Smoke test of the end-to-end benchmark: one short run per workload.

Run from the repository root (a few minutes; every workload runs once
untraced and once traced, one unit each)::

    python3 -m pytest e2ebench/test_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (imports nothing from the program at module level)

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(args, **kwargs):
    process = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600, **kwargs
    )
    return process, json.loads(process.stdout.strip().splitlines()[-1])


def test_declaration_within_caps():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_unit_prints_every_metric(workload, trace):
    process, result = _run(
        [run.__file__, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)]
    )
    assert process.returncode == 0, process.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                         process.stdout, re.M)
    if trace:
        with open(os.path.join(run.OUT_DIR, f"trace-{workload}-seed0.json")) as handle:
            rows = json.load(handle)["rows"]
        assert rows and not [r for r in rows if r.get("self_s", 0) < 0]
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_digest_fails_the_run():
    # The reference digests are corrupted after they are computed, exactly
    # as a wrong program output would differ from them.
    driver = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import run, workloads\n"
        "reference = workloads.Workload.reference\n"
        "workloads.Workload.reference = lambda self: tuple('x' + d for d in reference(self))\n"
        "sys.exit(run.main(['--workload', 'e11-deep', '--seconds', '1']))\n"
    )
    process, result = _run(["-c", driver, HERE, os.path.join(ROOT, "src")])
    assert process.returncode != 0
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
