"""Tests for the analysis tooling (exploration, Monte-Carlo, distinguishers,
reporting) and the top-level public API."""

from fractions import Fraction

import pytest

from repro.analysis.distinguish import DistinguisherResult, best_distinguisher
from repro.analysis.explore import execution_tree_size, state_space_summary
from repro.analysis.montecarlo import (
    crosscheck_f_dist,
    empirical_f_dist,
    hoeffding_radius,
    sample_execution,
)
from repro.analysis.report import render_profile, render_table
from repro.probability.rng import Generator
from repro.semantics.insight import accept_insight, compose_world, f_dist
from repro.semantics.schema import SchedulerSchema
from repro.semantics.scheduler import ActionSequenceScheduler
from repro.systems.coin import coin, coin_observer

from tests.helpers import fair_coin, listener, ticker


SCRIPT = ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)


def small_schema():
    def members(automaton, bound):
        yield SCRIPT

    return SchedulerSchema("one", members)


class TestExplore:
    def test_state_space_summary_of_coin(self):
        summary = state_space_summary(fair_coin())
        assert summary.states == 4
        assert summary.actions == 3
        assert summary.transitions == 3
        assert summary.max_branching == 2

    def test_execution_tree_size(self):
        coin_auto = fair_coin()
        sizes = execution_tree_size(coin_auto, ActionSequenceScheduler(["toss", "head"]))
        assert sizes["executions"] == 2
        assert sizes["total_steps"] == 3  # len-2 heads branch + len-1 tails branch


class TestMonteCarlo:
    def test_sample_execution_is_valid(self):
        rng = Generator(0)
        coin_auto = fair_coin()
        execution = sample_execution(coin_auto, ActionSequenceScheduler(["toss", "head"]), rng)
        assert execution.is_execution_of(coin_auto)

    def test_empirical_matches_exact_within_hoeffding(self):
        env = coin_observer()
        biased = coin("biased", Fraction(2, 3))
        world = compose_world(env, biased)
        exact = f_dist(accept_insight(), env, biased, SCRIPT, world=world)

        def value_of(execution):
            return accept_insight()(env, world, execution)

        assert crosscheck_f_dist(world, SCRIPT, value_of, exact, samples=4000, seed=1)

    def test_hoeffding_radius_shrinks(self):
        assert hoeffding_radius(10_000) < hoeffding_radius(100)

    def test_empirical_f_dist_mass_one(self):
        rng = Generator(2)
        env = coin_observer()
        world = compose_world(env, fair_coin())
        dist = empirical_f_dist(
            world, SCRIPT, lambda e: len(e), samples=200, rng=rng
        )
        assert abs(dist.total_mass - 1.0) < 1e-9


class TestDistinguish:
    def test_identical_systems_zero_advantage(self):
        env = coin_observer()
        result = best_distinguisher(
            coin("a", Fraction(1, 2)),
            coin("b", Fraction(1, 2)),
            schema=small_schema(),
            insight=accept_insight(),
            environments=[env],
            bound=3,
        )
        assert result.advantage == 0

    def test_biased_systems_found(self):
        env = coin_observer()
        result = best_distinguisher(
            coin("a", Fraction(1, 2)),
            coin("b", Fraction(7, 8)),
            schema=small_schema(),
            insight=accept_insight(),
            environments=[env],
            bound=3,
        )
        assert result.advantage == Fraction(3, 8)
        assert result.environment == "E"

    def test_unpaired_takes_min_over_candidates(self):
        env = coin_observer()
        result = best_distinguisher(
            coin("a", Fraction(1, 2)),
            coin("b", Fraction(1, 2)),
            schema=small_schema(),
            insight=accept_insight(),
            environments=[env],
            bound=3,
            paired=False,
        )
        assert result.advantage == 0

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            best_distinguisher(
                fair_coin("a"),
                fair_coin("b"),
                schema=small_schema(),
                insight=accept_insight(),
                environments=[],
                bound=3,
            )


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            "demo", ["k", "value"], [(1, 0.5), (10, 0.25)], note="a note"
        )
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "k" in lines[1] and "value" in lines[1]
        assert "a note" in lines[-1]

    def test_render_profile_ratios(self):
        text = render_profile("p", [(1, 0.5), (2, 0.25), (3, 0.125)])
        assert "0.5000" in text  # decay ratio columns
        assert "epsilon(k)" in text

    def test_floats_formatted(self):
        text = render_table("t", ["x"], [(0.123456789,)])
        assert "0.123457" in text


class TestPublicApi:
    def test_quickstart_from_docstring(self):
        import repro

        fair = repro.coin("fair", Fraction(1, 2))
        biased = repro.coin("biased", Fraction(3, 4))
        sched = repro.ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)
        advantage = repro.perception_distance(
            repro.accept_insight(), repro.coin_observer(), fair, sched, biased, sched
        )
        assert advantage == Fraction(1, 4)

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
