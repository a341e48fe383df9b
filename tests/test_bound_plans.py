"""Per-depth bound plans and the contribution memo (repro.core.scoring).

``ScoreModel.h`` answers from plans compiled once per mapped-source set,
and ``ScoreModel.g_increment`` from per-depth completion lists plus a
memo of pattern contributions.  The row scans they replaced are kept in
``tests/scoring_oracle.py``.  These tests hold the new path to them bit
for bit (``==`` on floats) for every bound kind and mapping shape, and
check that every execution path — serial A*, two workers, blocking, the
heuristics — returns the same mapping, score, counters and metrics with
either one in place.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.core.astar import AStarMatcher
from repro.core.bounds import BoundKind
from repro.core.matcher import match
from repro.core.scoring import ScoreModel, build_pattern_set
from repro.core.stats import SearchStats
from repro.datagen import generate_largevocab, generate_reallike, generate_synthetic
from repro.datagen.random_logs import generate_random_pair
from repro.log.eventlog import EventLog, StaleIndexError
from repro.obs.probe import ObservabilityProbe
from repro.parallel import parallel_match
from repro.patterns.ast import and_, seq

from tests.scoring_oracle import oracle_g_increment, oracle_h

SOURCES = "ABCDEF"
TARGETS = "123456"


def _pattern(draw, alphabet):
    """A random SEQ/AND pattern over 2–4 distinct events of ``alphabet``."""
    size = draw(st.integers(2, min(4, len(alphabet))))
    events = draw(st.permutations(alphabet))[:size]
    shapes = ["seq", "and"] + (["seq-and", "and-seq"] if size >= 3 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "seq":
        return seq(*events)
    if shape == "and":
        return and_(*events)
    if shape == "seq-and":
        return seq(events[0], and_(*events[1:]))
    return seq(and_(*events[:-1]), events[-1])


@st.composite
def instances(draw):
    """Two random logs, a pattern set, a bound kind and a partial mapping."""
    num_sources = draw(st.integers(2, len(SOURCES)))
    num_targets = draw(st.integers(2, len(TARGETS)))
    traces_1 = draw(st.lists(
        st.text(SOURCES[:num_sources], min_size=1, max_size=6),
        min_size=2, max_size=8,
    ))
    traces_2 = draw(st.lists(
        st.text(TARGETS[:num_targets], min_size=1, max_size=6),
        min_size=2, max_size=8,
    ))
    log_1, log_2 = EventLog(traces_1), EventLog(traces_2)
    alphabet = sorted(log_1.alphabet())
    complex_patterns = []
    if len(alphabet) >= 2:
        complex_patterns = [
            _pattern(draw, alphabet) for _ in range(draw(st.integers(0, 3)))
        ]
    patterns = build_pattern_set(log_1, complex_patterns)
    bound = draw(st.sampled_from(list(BoundKind)))
    prefix = draw(st.booleans())
    partition = draw(st.booleans())
    return log_1, log_2, patterns, bound, prefix, partition, draw


def _models(log_1, log_2, patterns, bound):
    """A model for the plan path and an identical one for the oracle."""
    return (
        ScoreModel(log_1, log_2, patterns, bound=bound),
        ScoreModel(log_1, log_2, patterns, bound=bound),
    )


def _draw_mapping(draw, model, prefix):
    """An injective partial mapping, inserted in expansion order."""
    depth = draw(st.integers(
        0, min(len(model.search_order), len(model.target_events))
    ))
    if prefix:
        sources = model.search_order[:depth]
    else:
        sources = draw(st.permutations(model.source_events))[:depth]
    images = draw(st.permutations(model.target_events))[:depth]
    return dict(zip(sources, images))


def _counters(model):
    return model.caps_fast_path, model.caps_slow_path


class TestOracleProperty:
    @given(instances())
    @settings(max_examples=200, deadline=None)
    def test_h_equals_row_scan(self, instance):
        log_1, log_2, patterns, bound, prefix, partition, draw = instance
        plan_model, oracle_model = _models(log_1, log_2, patterns, bound)
        mapping = _draw_mapping(draw, plan_model, prefix)
        if partition:
            used = set(mapping.values())
            unmapped = [t for t in plan_model.target_events if t not in used]
        else:
            unmapped = [
                t for t in plan_model.target_events if draw(st.booleans())
            ]
        for _ in range(2):  # the second call answers from the cached plan
            assert plan_model.h(mapping, unmapped) == oracle_h(
                oracle_model, mapping, unmapped
            )
        assert _counters(plan_model) == _counters(oracle_model)

    @given(instances())
    @settings(max_examples=200, deadline=None)
    def test_g_increment_equals_index_scan(self, instance):
        log_1, log_2, patterns, bound, prefix, _, draw = instance
        plan_model, oracle_model = _models(log_1, log_2, patterns, bound)
        full = _draw_mapping(draw, plan_model, prefix)
        plan_stats, oracle_stats = SearchStats(), SearchStats()
        # Walk the mapping up twice: the second walk hits the memo.
        for _ in range(2):
            partial = {}
            for source, target in full.items():
                partial[source] = target
                assert plan_model.g_increment(
                    source, partial, plan_stats
                ) == oracle_g_increment(
                    oracle_model, source, partial, oracle_stats
                )
        assert asdict(plan_stats) == asdict(oracle_stats)
        assert (
            plan_model.evaluator_2.evaluations
            == oracle_model.evaluator_2.evaluations
        )

    def test_instances_cover_zero_frequency_rows(self):
        # SEQ(B, A) never occurs in the left log, so its row has f1 == 0
        # and the plans must drop it without changing h.
        log_1 = EventLog(["ABC", "ACB", "ABC"])
        log_2 = EventLog(["123", "132", "123"])
        patterns = build_pattern_set(log_1, [seq("B", "A"), and_("A", "C")])
        for bound in BoundKind:
            plan_model, oracle_model = _models(log_1, log_2, patterns, bound)
            assert plan_model.f1(seq("B", "A")) == 0.0
            for mapping in ({}, {"A": "1"}, {"C": "2"}, {"B": "3", "C": "1"}):
                unmapped = [
                    t for t in plan_model.target_events
                    if t not in mapping.values()
                ]
                assert plan_model.h(mapping, unmapped) == oracle_h(
                    oracle_model, mapping, unmapped
                )


def _fixtures():
    return [
        generate_reallike(num_traces=30, seed=11).project_events(8),
        generate_synthetic(num_blocks=1, num_traces=40, seed=5),
        generate_random_pair(num_events=5, num_traces=60, seed=3),
    ]


def _blocking_fixture():
    return generate_largevocab(
        num_families=3, roles_per_family=2, num_traces=150, seed=0
    )


def _untimed(values):
    return {
        name: value for name, value in values.items()
        if not name.endswith("_seconds")
    }


def _summary(result, probe):
    """Everything a run reports that must not depend on the scoring path.

    Wall-clock readings (``*_seconds`` extras and histogram sums) are
    left out; histogram counts are kept.
    """
    snapshot = probe.metrics.snapshot()
    stats = asdict(result.stats)
    stats["extra"] = _untimed(stats["extra"])
    return {
        "mapping": result.mapping.as_dict(),
        "score": result.score,
        "gap": result.gap,
        "degraded": result.degraded,
        "stats": stats,
        "counters": _untimed(snapshot["counters"]),
        "gauges": snapshot["gauges"],
        "histogram_counts": {
            name: series["count"]
            for name, series in snapshot["histograms"].items()
        },
    }


def _run_paths():
    runs = {}
    for index, task in enumerate(_fixtures()):
        args = (task.log_1, task.log_2)
        for method in (
            "pattern-tight", "pattern-simple",
            "heuristic-simple", "heuristic-advanced",
        ):
            probe = ObservabilityProbe()
            result = match(*args, patterns=task.patterns, method=method,
                           probe=probe)
            runs[index, method] = _summary(result, probe)
        # A fresh pool forks its workers after any patching, so they run
        # the same scoring path as the parent.
        probe = ObservabilityProbe()
        outcome = parallel_match(*args, patterns=task.patterns, workers=2,
                                 reuse_pool=False, probe=probe)
        runs[index, "workers=2"] = _summary(outcome, probe)
    task = _blocking_fixture()
    probe = ObservabilityProbe()
    result = match(task.log_1, task.log_2, patterns=task.patterns,
                   method="pattern-tight", blocking={"auto_accept": False},
                   probe=probe)
    runs["blocking", "pattern-tight"] = _summary(result, probe)
    return runs


def _comparable(key, summary):
    """What a path's result must keep when the scoring path changes.

    A two-worker run's counters are not reproducible run to run: each
    chunk reports its worker model's cumulative counters and which
    worker claims which chunk is up to the scheduler.  Only its answer
    is compared there.
    """
    if key[1] == "workers=2":
        return {
            name: summary[name]
            for name in ("mapping", "score", "gap", "degraded")
        }
    return summary


class TestCrossPathParity:
    def test_plans_and_oracle_agree_on_every_path(self, monkeypatch):
        planned = _run_paths()
        monkeypatch.setattr(ScoreModel, "h", oracle_h)
        monkeypatch.setattr(ScoreModel, "g_increment", oracle_g_increment)
        scanned = _run_paths()
        assert planned.keys() == scanned.keys()
        for key in planned:
            assert _comparable(key, planned[key]) == _comparable(
                key, scanned[key]
            ), key


def _small_model():
    log_1 = EventLog(["ABCD", "ACBD", "ABDC", "BACD"] * 2)
    log_2 = EventLog(["1234", "1324", "1243", "2134"] * 2)
    patterns = build_pattern_set(log_1, [seq("A", and_("B", "C"), "D")])
    return ScoreModel(log_1, log_2, patterns)


class TestStaleness:
    def test_stale_log_raises_on_first_evaluation_and_on_memo_hit(self):
        model = _small_model()
        first = model.search_order[0]
        # A vertex pattern is never pruned by existence, so its
        # contribution always asks the frequency evaluator.
        model.g_increment(first, {first: "1"})
        model.log_2.append_trace("4321")
        with pytest.raises(StaleIndexError):
            model.g_increment(first, {first: "1"})  # memo hit
        with pytest.raises(StaleIndexError):
            model.g_increment(first, {first: "2"})  # first evaluation

    def test_refresh_drops_the_memo(self):
        model = _small_model()
        oracle_model = _small_model()
        first = model.search_order[0]
        model.g_increment(first, {first: "1"})
        oracle_g_increment(oracle_model, first, {first: "1"})
        for each in (model, oracle_model):
            each.log_2.append_trace("4444")
            each.evaluator_2.refresh()
        assert model.g_increment(first, {first: "1"}) == oracle_g_increment(
            oracle_model, first, {first: "1"}
        )
        assert (
            model.evaluator_2.evaluations
            == oracle_model.evaluator_2.evaluations
        )


class TestCacheBounds:
    def test_subset_plan_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(scoring, "_PLAN_CACHE_MAX", 3)
        model = _small_model()
        oracle_model = _small_model()
        order = model.search_order
        # Mapped sets that are not prefixes of the search order.
        for source in order[1:]:
            for other in order:
                mapping = {source: "1"} if other == source else {
                    source: "1", other: "2"
                }
                unmapped = [
                    t for t in model.target_events
                    if t not in mapping.values()
                ]
                assert model.h(mapping, unmapped) == oracle_h(
                    oracle_model, mapping, unmapped
                )
                assert len(model._subset_plans) <= 3

    def test_contribution_memo_is_bounded(self, monkeypatch):
        reference = AStarMatcher(_small_model()).match()
        monkeypatch.setattr(scoring, "_CONTRIBUTION_MEMO_MAX", 4)
        model = _small_model()
        bounded = AStarMatcher(model).match()
        assert len(model._contributions) <= 4
        assert bounded.mapping.as_dict() == reference.mapping.as_dict()
        assert bounded.score == reference.score
        assert asdict(bounded.stats) == asdict(reference.stats)
