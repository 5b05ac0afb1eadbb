"""Tests for the commitment, consensus, ledger and factory workloads."""

from fractions import Fraction

import pytest

from repro.config.validate import validate_pca
from repro.core.composition import compose
from repro.core.psioa import reachable_states, validate_psioa
from repro.probability.rng import Generator
from repro.secure.adversary import is_adversary
from repro.secure.emulation import emulation_distance_profile, hidden_world
from repro.secure.implementation import (
    family_implementation_profile,
    neg_pt_implements,
)
from repro.semantics.insight import accept_insight, f_dist
from repro.semantics.schema import SchedulerSchema
from repro.semantics.scheduler import PriorityScheduler
from repro.systems.coin import (
    amplified_coin_family,
    coin,
    coin_observer,
    fair_coin_family,
    structured_coin,
    xor_bias,
)
from repro.systems.commitment import (
    commitment_emulation_instance,
    commitment_environment,
    commitment_simulator,
    ideal_commitment,
    real_commitment,
)
from repro.systems.consensus import (
    consensus_environment,
    ideal_consensus,
    ideal_consensus_family,
    real_consensus,
    real_consensus_family,
)
from repro.systems.factory import random_psioa, random_structured
from repro.systems.ledger import ledger_client, ledger_manager_pca, spawning_pca

INSIGHT = accept_insight()


def kind_schema(kinds, plain=()):
    """Priority schedulers over tuple-action kinds plus plain actions."""

    def is_kind(k):
        return lambda a: isinstance(a, tuple) and len(a) >= 1 and a[0] == k

    predicates = [is_kind(k) for k in kinds] + [lambda a, p=p: a == p for p in plain]

    def members(automaton, bound):
        yield PriorityScheduler(predicates, bound, name=("prio",) + tuple(kinds))

    return SchedulerSchema("kind-priority", members)


class TestCoin:
    def test_xor_bias_geometric(self):
        assert xor_bias(1) == Fraction(1, 4)
        assert xor_bias(2) == Fraction(1, 8)
        assert xor_bias(5) == Fraction(1, 64)

    def test_families_validate(self):
        validate_psioa(fair_coin_family()[3])
        validate_psioa(amplified_coin_family()[3])

    def test_structured_coin_split(self):
        sc = structured_coin("c", Fraction(1, 2))
        assert sc.global_aact() == {"toss"}

    def test_observer_validates(self):
        validate_psioa(coin_observer())


class TestCommitment:
    ENVS = [commitment_environment(0), commitment_environment(1)]
    SCHEMA = kind_schema(["commit", "posted", "post", "guess", "open", "reveal"], plain=["acc"])
    Q = 10

    def test_automata_validate(self):
        validate_psioa(real_commitment())
        validate_psioa(real_commitment("r", 3))
        validate_psioa(ideal_commitment())

    def test_action_split(self):
        real = real_commitment()
        assert real.global_aact() == {("post", 0), ("post", 1)}
        ideal = ideal_commitment()
        assert ideal.global_aact() == {("posted",)}

    def test_simulator_is_adversary_for_ideal(self):
        from tests.helpers import listener

        adv = listener("Adv", {("post", 0), ("post", 1)})
        sim = commitment_simulator(adv)
        assert is_adversary(sim, ideal_commitment())

    def test_emulation_profile_decays(self):
        from repro.core.psioa import TablePSIOA
        from repro.core.signature import Signature
        from repro.probability.measures import dirac

        # Adversary guessing the committed bit from the masked post.
        posts = {("post", 0), ("post", 1)}
        signatures = {"wait": Signature(inputs=posts)}
        transitions = {}
        for c in (0, 1):
            transitions[("wait", ("post", c))] = dirac(("heard", c))
            signatures[("heard", c)] = Signature(inputs=posts, outputs={("guess", c)})
            for c2 in (0, 1):
                transitions[(("heard", c), ("post", c2))] = dirac(("heard", c))
            transitions[(("heard", c), ("guess", c))] = dirac("told")
        signatures["told"] = Signature(inputs=posts)
        for c in (0, 1):
            transitions[("told", ("post", c))] = dirac("told")
        adv = TablePSIOA("Adv", "wait", signatures, transitions)

        instance = commitment_emulation_instance(leaky=True)
        profile = emulation_distance_profile(
            instance,
            lambda k: adv,
            schema=self.SCHEMA,
            insight=INSIGHT,
            environment_family=lambda k: self.ENVS,
            q1=lambda k: self.Q,
            q2=lambda k: self.Q,
            ks=range(1, 5),
        )
        for k, v in profile:
            assert v == pytest.approx(float(Fraction(1, 2 ** (k + 1))))
        assert neg_pt_implements(profile)


class TestConsensus:
    SCHEMA = kind_schema(["propose", "decide"], plain=["acc"])
    Q = 8

    def test_automata_validate(self):
        validate_psioa(real_consensus("r", 2))
        validate_psioa(ideal_consensus())

    def test_agreement_on_common_proposal(self):
        env = consensus_environment(1, 1)
        world_sys = real_consensus("r", 1)
        sched = next(iter(self.SCHEMA(compose(env, world_sys), self.Q)))
        dist = f_dist(INSIGHT, env, world_sys, sched)
        assert dist(1) == 0  # no safety violation when proposals agree

    def test_disagreement_probability_exact(self):
        env = consensus_environment(0, 1)
        for k in (1, 2, 3):
            world_sys = real_consensus(("r", k), k)
            sched = next(iter(self.SCHEMA(compose(env, world_sys), self.Q)))
            dist = f_dist(INSIGHT, env, world_sys, sched)
            assert dist(1) == Fraction(1, 2 ** k)

    def test_ideal_never_violates_safety(self):
        for v1 in (0, 1):
            for v2 in (0, 1):
                env = consensus_environment(v1, v2)
                world_sys = ideal_consensus()
                sched = next(iter(self.SCHEMA(compose(env, world_sys), self.Q)))
                dist = f_dist(INSIGHT, env, world_sys, sched)
                assert dist(1) == 0

    def test_implementation_profile_negligible(self):
        envs = [consensus_environment(v1, v2) for v1 in (0, 1) for v2 in (0, 1)]
        profile = family_implementation_profile(
            real_consensus_family(),
            ideal_consensus_family(),
            schema=self.SCHEMA,
            insight=INSIGHT,
            environment_family=lambda k: envs,
            q1=lambda k: self.Q,
            q2=lambda k: self.Q,
            ks=range(1, 5),
        )
        for k, v in profile:
            assert v == pytest.approx(2.0 ** -k)
        assert neg_pt_implements(profile)


class TestLedger:
    def test_client_lifecycle(self):
        client = ledger_client(7)
        validate_psioa(client)
        assert client.signature("gone").is_empty

    def test_ledger_pca_validates(self):
        pca = ledger_manager_pca(2)
        validate_pca(pca)

    def test_clients_created_and_destroyed(self):
        pca = ledger_manager_pca(1)
        states = reachable_states(pca)
        sizes = {frozenset(s.ids()) for s in states}
        assert frozenset({("ledger", "mgr")}) in sizes  # before join / after ack
        assert frozenset({("ledger", "mgr"), ("client", 0)}) in sizes

    def test_full_transaction_flow(self):
        pca = ledger_manager_pca(1)
        sched = PriorityScheduler(
            [
                lambda a: isinstance(a, tuple) and a[0] == "join",
                lambda a: isinstance(a, tuple) and a[0] == "tx",
                lambda a: isinstance(a, tuple) and a[0] == "ack",
            ],
            6,
        )
        from repro.semantics.measure import execution_measure

        measure = execution_measure(pca, sched)
        (execution,) = measure.support()
        assert [a[0] for a in execution.actions] == ["join", "tx", "ack"]
        # After the ack the client destroyed itself.
        assert execution.lstate.ids() == {("ledger", "mgr")}

    def test_spawning_pca(self):
        pca = spawning_pca(lambda: coin(("child",), Fraction(1, 2)))
        validate_pca(pca)
        eta = pca.transition(pca.start, "spawn")
        (state,) = eta.support()
        assert ("child",) in state.ids()


class TestFactory:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_random_psioa_always_valid(self, seed):
        rng = Generator(seed)
        automaton = random_psioa(("rand", seed), rng, n_states=5, n_actions=4)
        validate_psioa(automaton, states=range(5))

    def test_reproducible(self):
        a = random_psioa("r", Generator(42))
        b = random_psioa("r", Generator(42))
        assert a.signatures == b.signatures
        assert a.transitions == b.transitions

    def test_random_structured_split_is_external(self):
        rng = Generator(7)
        structured = random_structured(("rs",), rng, n_states=5, n_actions=4)
        for state in range(5):
            assert structured.eact(state) <= structured.signature(state).external

    def test_scaling_parameters(self):
        rng = Generator(3)
        big = random_psioa("big", rng, n_states=20, n_actions=8, branching=3)
        assert len(big.states) == 20
