"""Unit tests of the closure-capable pickling behind the socket backend.

Lambdas, local closures, defaults/kwdefaults, referenced globals (including
through nested lambdas), recursive closures with empty cells, captured
modules, and the by-reference path for importable functions.  Every
round-trip is checked *in a fresh subprocess* where it matters: the whole
point is that the receiving process never saw the sending process's
definitions.
"""

import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from repro.perf import pickling
from tests.conftest import subprocess_env

_GLOBAL_FACTOR = Fraction(3, 7)


def _module_level(x):
    return x + 1


def _roundtrip(obj):
    return pickling.loads(pickling.dumps(obj))


def _roundtrip_in_subprocess(blob_producer, call_arg):
    """Dump ``blob_producer``'s function here, call it in a fresh interpreter."""
    blob = pickling.dumps(blob_producer)
    script = textwrap.dedent(
        """
        import pickle, sys
        from fractions import Fraction
        fn = pickle.loads(sys.stdin.buffer.read())
        sys.stdout.buffer.write(pickle.dumps(fn({arg!r})))
        """
    ).format(arg=call_arg)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=blob,
        capture_output=True,
        check=False,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


class TestByValue:
    def test_lambda_roundtrips(self):
        fn = _roundtrip(lambda x: x * 2)
        assert fn(21) == 42

    def test_local_closure_captures_values(self):
        bound = Fraction(1, 8)

        def check(x):
            return x <= bound

        fn = _roundtrip(check)
        assert fn(Fraction(1, 16)) is True
        assert fn(Fraction(1, 4)) is False

    def test_defaults_and_kwdefaults_survive(self):
        def fn(x, scale=Fraction(1, 2), *, offset=3):
            return x * scale + offset

        rebuilt = _roundtrip(fn)
        assert rebuilt(4) == Fraction(1, 2) * 4 + 3
        assert rebuilt(4, Fraction(1, 4), offset=0) == 1

    def test_referenced_global_is_captured(self):
        fn = _roundtrip(lambda x: x * _GLOBAL_FACTOR)
        assert fn(7) == 3

    def test_global_referenced_only_by_nested_lambda_is_captured(self):
        def outer(x):
            inner = lambda y: y * _GLOBAL_FACTOR  # noqa: E731
            return inner(x)

        assert _roundtrip(outer)(7) == 3

    def test_recursive_local_function_empty_cell(self):
        def fact(n):
            return 1 if n <= 1 else n * fact(n - 1)

        # `fact` captures itself through a closure cell; at dump time the
        # cell is filled, but the rebuild path must also tolerate the
        # empty-cell sentinel.
        assert _roundtrip(fact)(5) == 120
        assert pickling.loads(pickling.dumps(pickling._EmptyCell())) is not None

    def test_captured_module_goes_by_name(self):
        import math

        fn = _roundtrip(lambda x: math.sqrt(x))
        assert fn(9) == 3.0

    def test_closure_in_container_roundtrips(self):
        factor = 5
        payload = {"fns": [lambda x: x * factor, lambda x: x + factor]}
        rebuilt = _roundtrip(payload)
        assert [f(3) for f in rebuilt["fns"]] == [15, 8]


class TestByReference:
    def test_importable_function_stays_by_reference(self):
        blob = pickling.dumps(_module_level)
        # Standard pickle can read it: no by-value rebuild involved.
        assert pickle.loads(blob) is _module_level

    def test_stdlib_function_stays_by_reference(self):
        from math import gcd

        assert pickle.loads(pickling.dumps(gcd)) is gcd


class TestFreshInterpreter:
    def test_closure_evaluates_in_process_that_never_saw_it(self):
        bound = Fraction(3, 32)

        def within(eps):
            return eps <= bound

        assert _roundtrip_in_subprocess(within, Fraction(1, 16)) is True

    def test_lambda_with_global_in_fresh_interpreter(self):
        result = _roundtrip_in_subprocess(lambda x: x * _GLOBAL_FACTOR, 14)
        assert result == 6


class TestMetricsHandles:
    def test_counter_unpickles_as_registry_handle(self):
        from repro.obs import metrics

        c = metrics.counter("test.pickling.handle")
        c.inc(5)
        rebuilt = pickling.loads(pickling.dumps(c))
        assert rebuilt is c  # same process: get-or-create returns the instrument
        # The value rides in the registry, not the pickle: a fresh process
        # starts its handle at zero (asserted via __reduce__'s shape).
        fn, args = c.__reduce__()
        assert fn is metrics.counter and args == ("test.pickling.handle",)
