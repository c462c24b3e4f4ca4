"""Unit tests for the remastering strategy (Equations 2-8)."""

import math

import pytest

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.core.strategy import (
    RemasterStrategy,
    StrategyWeights,
    balance_distance,
)
from repro.sim.core import Environment
from repro.versioning import VersionVector


def make_strategy(placement, weights=None, num_sites=2):
    env = Environment()
    table = PartitionTable(env, placement)
    stats = AccessStatistics(StatisticsConfig())
    strategy = RemasterStrategy(
        weights or StrategyWeights(), stats, table, num_sites
    )
    return strategy, stats, table


def fresh_vvs(num_sites):
    return [VersionVector.zeros(num_sites) for _ in range(num_sites)]


class TestBalanceDistance:
    def test_zero_when_balanced(self):
        assert balance_distance([0.5, 0.5]) == 0.0
        assert balance_distance([0.25] * 4) == 0.0

    def test_grows_with_imbalance(self):
        mild = balance_distance([0.6, 0.4])
        severe = balance_distance([1.0, 0.0])
        assert 0.0 < mild < severe

    def test_empty(self):
        assert balance_distance([]) == 0.0


class TestBalanceFeature:
    def test_remastering_toward_balance_scores_positive(self):
        # All load on site 0; moving partition 1 to site 1 rebalances.
        strategy, stats, _ = make_strategy({0: 0, 1: 0})
        stats.observe(0.0, 1, [0])
        stats.observe(1.0, 1, [1])
        loads = stats.site_write_loads(
            strategy.table.master_of, strategy.num_sites
        )
        toward_balance = strategy._balance_feature([1], 1, loads)
        away_from_balance = strategy._balance_feature([1], 0, loads)
        assert toward_balance > 0.0
        assert away_from_balance == 0.0  # no move, no change

    def test_unbalancing_scores_negative(self):
        strategy, stats, _ = make_strategy({0: 0, 1: 1})
        stats.observe(0.0, 1, [0])
        stats.observe(1.0, 1, [1])
        loads = stats.site_write_loads(
            strategy.table.master_of, strategy.num_sites
        )
        assert strategy._balance_feature([1], 0, loads) < 0.0

    def test_choose_site_balances_load(self):
        # Partitions 0,1 at site 0, partition 2 at site 1; site 0 is
        # overloaded. A transaction writing {1, 2} should resolve the
        # multi-master split by pulling 1 over to the lighter site 1.
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 0, 2: 1}, weights=StrategyWeights(balance=1.0, delay=0.0)
        )
        for time in range(8):
            stats.observe(float(time), 1, [0])
        stats.observe(8.0, 1, [1])
        stats.observe(9.0, 1, [2])
        decision = strategy.decide([1, 2], fresh_vvs(2))
        assert decision.site == 1
        assert decision.scores[1].benefit > decision.scores[0].benefit


class TestRefreshDelayFeature:
    def test_lagging_candidate_penalized(self):
        strategy, _, _ = make_strategy(
            {0: 0, 1: 1}, weights=StrategyWeights(balance=0.0, delay=1.0)
        )
        # Site 1 lags: it has not applied site 0's 5 updates.
        site_vvs = [VersionVector([5, 0]), VersionVector([0, 0])]
        score_fresh = strategy.score_site(
            0, [0, 1], [0.5, 0.5], [site_vvs[1]], site_vvs[0], None
        )
        score_stale = strategy.score_site(
            1, [0, 1], [0.5, 0.5], [site_vvs[0]], site_vvs[1], None
        )
        assert score_fresh.refresh_delay == 0.0
        assert score_stale.refresh_delay == 5.0
        assert score_fresh.benefit > score_stale.benefit

    def test_session_vector_contributes(self):
        strategy, _, _ = make_strategy({0: 0}, num_sites=2)
        session = VersionVector([3, 0])
        delay = strategy._refresh_delay_feature(
            0, [], VersionVector([1, 0]), session
        )
        assert delay == 2.0


class TestLocalizationFeatures:
    def test_single_sited_colocation(self):
        strategy, _, table = make_strategy({0: 0, 1: 1})
        # Remastering write set {0} to site 1 co-locates 0 with 1.
        assert strategy._single_sited(1, 0, 1, {0}) == 1
        # Remastering {0} to site 0 leaves them split: no change.
        assert strategy._single_sited(0, 0, 1, {0}) == 0

    def test_single_sited_split(self):
        strategy, _, table = make_strategy({0: 0, 1: 0})
        # 0 and 1 are together at site 0; moving only 0 to site 1 splits.
        assert strategy._single_sited(1, 0, 1, {0}) == -1
        # Moving both keeps them together: no change.
        assert strategy._single_sited(1, 0, 1, {0, 1}) == 0

    def test_intra_feature_prefers_colocating_site(self):
        # Partitions 0, 1 frequently co-written; 0 at site 0, 1 at
        # site 1. A transaction writing {0} should be drawn to site 1.
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(balance=0.0, delay=0.0, intra_txn=1.0),
        )
        for time in range(5):
            stats.observe(float(time), 1, [0, 1])
        decision = strategy.decide([0], fresh_vvs(2))
        assert decision.site == 1
        assert decision.scores[1].intra_txn > 0.0
        assert decision.scores[0].intra_txn == 0.0  # leaves the pair split: no change

    def test_inter_feature_prefers_colocating_site(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(
                balance=0.0, delay=0.0, intra_txn=0.0, inter_txn=1.0
            ),
        )
        # Client writes partition 0 then shortly after partition 1.
        for time in range(5):
            stats.observe(time * 2.0, 7, [0])
            stats.observe(time * 2.0 + 1.0, 7, [1])
        decision = strategy.decide([0], fresh_vvs(2))
        assert decision.site == 1
        assert decision.scores[1].inter_txn > 0.0


class TestWeights:
    def test_presets(self):
        ycsb = StrategyWeights.for_ycsb()
        assert ycsb.balance > ycsb.intra_txn > ycsb.inter_txn
        tpcc = StrategyWeights.for_tpcc()
        assert tpcc.intra_txn == tpcc.inter_txn == 0.88
        sb = StrategyWeights.for_smallbank()
        # SmallBank dials balance down relative to YCSB (paper App. H).
        assert sb.balance < ycsb.balance
        assert sb.intra_txn == ycsb.intra_txn

    def test_scaled(self):
        weights = StrategyWeights(balance=2.0, delay=1.0).scaled(balance=0.5)
        assert weights.balance == 1.0
        assert weights.delay == 1.0

    def test_scaled_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            StrategyWeights().scaled(bogus=1.0)

    def test_zero_weights_disable_features(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(
                balance=0.0, delay=0.0, intra_txn=0.0, inter_txn=0.0
            ),
        )
        stats.observe(0.0, 1, [0, 1])
        scores = strategy.decide([0], fresh_vvs(2)).scores
        assert all(score.benefit == 0.0 for score in scores)
        assert all(score.intra_txn == 0.0 for score in scores)


class TestTieBreaking:
    """The documented deterministic tie contract of ``decide()``."""

    def tied_strategy(self, rng=None, num_sites=3):
        # Fresh statistics and balanced placement: every feature is
        # zero for every candidate, an exact three-way tie.
        env = Environment()
        table = PartitionTable(env, {site: site for site in range(num_sites)})
        stats = AccessStatistics(StatisticsConfig())
        return RemasterStrategy(
            StrategyWeights(), stats, table, num_sites, rng=rng
        )

    def test_exact_tie_without_rng_picks_lowest_site(self):
        strategy = self.tied_strategy(rng=None)
        decision = strategy.decide([1], fresh_vvs(3))
        assert decision.site == 0
        assert decision.tie_break == "lowest-site"
        assert decision.tied == (0, 1, 2)
        assert decision.margin == 0.0

    def test_lowest_site_fallback_is_stable(self):
        strategy = self.tied_strategy(rng=None)
        first = strategy.decide([2], fresh_vvs(3))
        assert all(
            strategy.decide([2], fresh_vvs(3)).site == first.site
            for _ in range(5)
        )

    def test_rng_tie_break_draws_from_tied_set_deterministically(self):
        import random

        picks = []
        for _ in range(2):
            strategy = self.tied_strategy(rng=random.Random(42))
            decision = strategy.decide([1], fresh_vvs(3))
            assert decision.tie_break == "rng"
            assert decision.site in decision.tied
            picks.append(decision.site)
        # Same seed, same draw: the rng rule is a function of the seed.
        assert picks[0] == picks[1]

    def test_clear_win_records_margin_and_no_tie(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 0, 2: 1}, weights=StrategyWeights(balance=1.0, delay=0.0)
        )
        for time in range(8):
            stats.observe(float(time), 1, [0])
        stats.observe(8.0, 1, [1])
        stats.observe(9.0, 1, [2])
        decision = strategy.decide([1, 2], fresh_vvs(2))
        assert decision.tie_break == "clear"
        assert decision.tied == ()
        assert decision.runner_up is not None
        assert decision.runner_up != decision.site
        assert decision.margin > 0.0

    def test_exclude_removes_candidates(self):
        strategy = self.tied_strategy(rng=None)
        decision = strategy.decide([1], fresh_vvs(3), exclude={0})
        assert decision.site == 1  # lowest surviving site
        assert decision.tied == (1, 2)
        with pytest.raises(ValueError, match="no candidate sites"):
            strategy.decide([1], fresh_vvs(3), exclude={0, 1, 2})

    def test_near_tie_within_float_noise_margin_counts_as_tied(self):
        strategy = self.tied_strategy(rng=None)
        scores = {0: 1.0, 1: 1.0 + 1e-13, 2: 0.5}
        original = strategy.score_site

        def doctored(candidate, *args, **kwargs):
            score = original(candidate, *args, **kwargs)
            return type(score)(
                score.site, score.balance, score.refresh_delay,
                score.intra_txn, score.inter_txn, scores[candidate],
            )

        strategy.score_site = doctored
        decision = strategy.decide([1], fresh_vvs(3))
        assert decision.tied == (0, 1)
        assert decision.site == 0  # lowest of the tied pair
        assert decision.tie_break == "lowest-site"


class TestEquation8:
    def test_benefit_combines_features_linearly(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(
                balance=2.0, delay=0.5, intra_txn=3.0, inter_txn=1.0
            ),
        )
        stats.observe(0.0, 1, [0, 1])
        site_vvs = [VersionVector([4, 0]), VersionVector([0, 0])]
        score = strategy.score_site(
            1, [0], [1.0, 0.0], [site_vvs[0]], site_vvs[1], None
        )
        expected = (
            2.0 * score.balance
            - 0.5 * score.refresh_delay
            + 3.0 * score.intra_txn
            + 1.0 * score.inter_txn
        )
        assert score.benefit == pytest.approx(expected)
