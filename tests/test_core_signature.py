"""Tests for signature algebra (paper Definitions 2.3, 2.4, 2.6)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import (
    EMPTY_SIGNATURE,
    Signature,
    compose_signatures,
    fresh_action,
    hide_signature,
    incompatibility_reason,
    signatures_compatible,
)

ALPHABET = [f"a{i}" for i in range(8)]


@st.composite
def signatures(draw):
    """Random signatures over a small alphabet with disjoint components."""
    actions = draw(st.lists(st.sampled_from(ALPHABET), unique=True))
    kinds = [draw(st.sampled_from(["in", "out", "int"])) for _ in actions]
    return Signature(
        inputs=frozenset(a for a, k in zip(actions, kinds) if k == "in"),
        outputs=frozenset(a for a, k in zip(actions, kinds) if k == "out"),
        internals=frozenset(a for a, k in zip(actions, kinds) if k == "int"),
    )


class TestSignatureBasics:
    def test_disjointness_enforced_in_out(self):
        with pytest.raises(ValueError):
            Signature(inputs={"a"}, outputs={"a"})

    def test_disjointness_enforced_in_int(self):
        with pytest.raises(ValueError):
            Signature(inputs={"a"}, internals={"a"})

    def test_disjointness_enforced_out_int(self):
        with pytest.raises(ValueError):
            Signature(outputs={"a"}, internals={"a"})

    def test_external_and_all_actions(self):
        sig = Signature(inputs={"i"}, outputs={"o"}, internals={"h"})
        assert sig.external == {"i", "o"}
        assert sig.all_actions == {"i", "o", "h"}
        assert sig.locally_controlled() == {"o", "h"}

    def test_memoized_all_actions_unchanged_and_survives_pickle(self):
        sig = Signature(inputs={"i"}, outputs={"o"}, internals={"h"})
        fresh = Signature(inputs={"i"}, outputs={"o"}, internals={"h"})
        before = (hash(sig), repr(sig))
        assert sig.all_actions is sig.all_actions
        assert sig.all_actions == {"i", "o", "h"}
        # The memo is invisible to equality, hashing and repr.
        assert sig == fresh and hash(sig) == hash(fresh) == before[0]
        assert repr(sig) == repr(fresh) == before[1]
        assert pickle.dumps(sig) == pickle.dumps(fresh)  # the memo is never pickled
        for original in (sig, fresh):
            # Once with the memo filled, once empty.
            restored = pickle.loads(pickle.dumps(original))
            assert restored == sig and hash(restored) == before[0]
            assert restored.all_actions == {"i", "o", "h"}
            assert restored.all_actions is restored.all_actions

    def test_empty_signature_sentinel(self):
        assert EMPTY_SIGNATURE.is_empty
        assert not Signature(inputs={"a"}).is_empty

    def test_renamed_preserves_partition(self):
        sig = Signature(inputs={"i"}, outputs={"o"}, internals={"h"})
        renamed = sig.renamed(lambda a: a.upper())
        assert renamed.inputs == {"I"}
        assert renamed.outputs == {"O"}
        assert renamed.internals == {"H"}

    def test_accepts_plain_iterables(self):
        sig = Signature(inputs=["a", "b"], outputs=("c",))
        assert sig.inputs == frozenset({"a", "b"})

    def test_fresh_action_is_fresh(self):
        assert fresh_action("send") != "send"
        assert fresh_action("send", "g") == ("g", "send")


class TestCompatibility:
    def test_output_clash_incompatible(self):
        a = Signature(outputs={"x"})
        b = Signature(outputs={"x"})
        assert not signatures_compatible([a, b])
        assert "shared outputs" in incompatibility_reason([a, b])

    def test_internal_clash_incompatible(self):
        a = Signature(internals={"x"})
        b = Signature(inputs={"x"})
        assert not signatures_compatible([a, b])

    def test_internal_clash_symmetric(self):
        a = Signature(inputs={"x"})
        b = Signature(internals={"x"})
        assert not signatures_compatible([a, b])

    def test_matching_io_is_compatible(self):
        a = Signature(outputs={"x"})
        b = Signature(inputs={"x"})
        assert signatures_compatible([a, b])
        assert incompatibility_reason([a, b]) is None

    def test_shared_inputs_are_compatible(self):
        a = Signature(inputs={"x"})
        b = Signature(inputs={"x"})
        assert signatures_compatible([a, b])

    def test_triple_compatibility_checks_all_pairs(self):
        a = Signature(outputs={"x"})
        b = Signature(inputs={"x"})
        c = Signature(outputs={"x"})
        assert not signatures_compatible([a, b, c])

    @given(signatures())
    @settings(max_examples=30, deadline=None)
    def test_empty_compatible_with_anything(self, sig):
        assert signatures_compatible([sig, EMPTY_SIGNATURE])


class TestComposition:
    def test_matched_io_becomes_output(self):
        a = Signature(outputs={"x"}, inputs={"y"})
        b = Signature(inputs={"x"})
        composed = compose_signatures([a, b])
        assert composed.outputs == {"x"}
        assert composed.inputs == {"y"}

    def test_internals_union(self):
        a = Signature(internals={"h1"})
        b = Signature(internals={"h2"})
        composed = compose_signatures([a, b])
        assert composed.internals == {"h1", "h2"}

    def test_identity_of_empty(self):
        sig = Signature(inputs={"i"}, outputs={"o"})
        assert compose_signatures([sig, EMPTY_SIGNATURE]) == sig

    @given(signatures(), signatures())
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, a, b):
        if signatures_compatible([a, b]):
            assert compose_signatures([a, b]) == compose_signatures([b, a])

    @given(signatures(), signatures(), signatures())
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        if signatures_compatible([a, b, c]):
            left = compose_signatures([compose_signatures([a, b]), c])
            right = compose_signatures([a, compose_signatures([b, c])])
            assert left == right

    @given(signatures(), signatures())
    @settings(max_examples=50, deadline=None)
    def test_composed_all_actions_is_union(self, a, b):
        if signatures_compatible([a, b]):
            assert compose_signatures([a, b]).all_actions == a.all_actions | b.all_actions


class TestHiding:
    def test_hide_moves_outputs_to_internals(self):
        sig = Signature(inputs={"i"}, outputs={"o1", "o2"})
        hidden = hide_signature(sig, {"o1"})
        assert hidden.outputs == {"o2"}
        assert hidden.internals == {"o1"}
        assert hidden.inputs == {"i"}

    def test_hide_ignores_non_outputs(self):
        sig = Signature(inputs={"i"}, outputs={"o"})
        hidden = hide_signature(sig, {"i", "zzz"})
        assert hidden == sig

    def test_hide_everything(self):
        sig = Signature(outputs={"o1", "o2"})
        hidden = hide_signature(sig, {"o1", "o2"})
        assert hidden.outputs == frozenset()
        assert hidden.internals == {"o1", "o2"}

    @given(signatures())
    @settings(max_examples=50, deadline=None)
    def test_hide_preserves_all_actions(self, sig):
        hidden = hide_signature(sig, set(sig.outputs))
        assert hidden.all_actions == sig.all_actions

    @given(signatures())
    @settings(max_examples=50, deadline=None)
    def test_hide_idempotent(self, sig):
        s = set(sig.outputs)
        once = hide_signature(sig, s)
        twice = hide_signature(once, s)
        assert once == twice
