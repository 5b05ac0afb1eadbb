"""Property battery for ``repro.perf.fingerprint``.

The plain-data hash keys the service's job coalescing and reuse, so its
contract is locked down four ways:

* **extensionality** — equal data (deep-copied, reordered) hashes equal;
* **sensitivity** — a changed element, or a numeric type that compares
  equal but is another type, changes the hash;
* **closedness** — anything but plain data raises ``Unfingerprintable``;
* **process stability** — hashes are pure functions of the data, never of
  ``id()``, dict insertion order, or the interpreter's hash salt: a child
  interpreter running under a *different* ``PYTHONHASHSEED`` reproduces
  them byte-for-byte.

Randomized structure generation runs under hypothesis; the cross-process
check spawns real subprocesses.
"""

import copy
import json
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.fingerprint import (
    Unfingerprintable,
    fingerprint,
    try_fingerprint,
)
from repro.probability.measures import dirac
from tests.conftest import subprocess_env

# -- strategies ----------------------------------------------------------------

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.fractions(),
)

_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.text(max_size=8),
    st.fractions(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
    )


_structures = st.recursive(_leaves, _containers, max_leaves=16)


# -- extensionality ------------------------------------------------------------


class TestEqualStructuresHashEqual:
    @given(_structures)
    @settings(max_examples=150, deadline=None)
    def test_deep_copy_hashes_equal(self, value):
        assert fingerprint(value) == fingerprint(copy.deepcopy(value))

    @given(st.dictionaries(st.text(max_size=6), st.integers(), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_dict_insertion_order_is_invisible(self, mapping):
        items = list(mapping.items())
        random.Random(0).shuffle(items)
        assert fingerprint(mapping) == fingerprint(dict(items))


# -- sensitivity ---------------------------------------------------------------


class TestSingleMutationChangesHash:
    @given(
        st.lists(st.integers(), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=7),
        st.integers(),
    )
    @settings(max_examples=80, deadline=None)
    def test_list_element_mutation(self, values, index, replacement):
        index %= len(values)
        if values[index] == replacement:
            replacement += 1
        mutated = list(values)
        mutated[index] = replacement
        assert fingerprint(values) != fingerprint(mutated)

    def test_numeric_types_do_not_collide(self):
        # 1, 1.0, True and Fraction(1) compare equal in Python but are
        # structurally distinct cache keys.
        prints = {fingerprint(1), fingerprint(1.0), fingerprint(True), fingerprint(Fraction(1))}
        assert len(prints) == 4


# -- failure behaviour ---------------------------------------------------------


class TestUnfingerprintable:
    def test_opaque_objects_raise(self):
        class Opaque:
            pass

        with pytest.raises(Unfingerprintable):
            fingerprint(Opaque())
        assert try_fingerprint(Opaque()) is None
        # Domain values and callables are not plain data either, also when
        # nested inside a container.
        for value in (dirac("q0"), lambda x: x, len, [1, {"k": Opaque()}]):
            with pytest.raises(Unfingerprintable):
                fingerprint(value)

    def test_try_fingerprint_passes_through(self):
        assert try_fingerprint((1, 2)) == fingerprint((1, 2))


# -- process stability ---------------------------------------------------------

_CHILD_PROGRAM = textwrap.dedent(
    """
    import json
    from fractions import Fraction
    from repro.perf.fingerprint import fingerprint

    battery = {
        "pair": (1, "x"),
        "weights": {"x": Fraction(1, 3), ("y", 2): Fraction(2, 3)},
        "nested": {"b": [1, 2.5, "s", b"\\xff",
                         frozenset({1, "a", (2, 3)})], "a": None},
        "set": {True, 0, 2.5, "z", Fraction(7, 2)},
    }
    print(json.dumps({k: fingerprint(v) for k, v in battery.items()},
                     sort_keys=True))
    """
)


def _battery_in_child(hash_seed):
    env = subprocess_env()
    env["PYTHONHASHSEED"] = str(hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


class TestCrossProcessStability:
    def test_stable_across_interpreter_hash_salts(self):
        # Two children with *different* hash salts: any dependence on
        # str/bytes hashing, set iteration order, or id() would diverge.
        first = _battery_in_child(1)
        second = _battery_in_child(424242)
        assert first == second

    def test_child_matches_this_process(self):
        local = {
            "pair": fingerprint((1, "x")),
            "weights": fingerprint({"x": Fraction(1, 3), ("y", 2): Fraction(2, 3)}),
        }
        child = _battery_in_child(7)
        assert child["pair"] == local["pair"]
        assert child["weights"] == local["weights"]
