"""Tests for the discovery result containers."""

from repro.dependencies.oc import CanonicalOC
from repro.dependencies.ofd import OFD
from repro.discovery.config import DiscoveryRequest
from repro.discovery.results import DiscoveredOC, DiscoveredOFD, DiscoveryResult


def _result_with(ocs=(), ofds=()):
    return DiscoveryResult(
        request=DiscoveryRequest.approximate(threshold=0.1),
        num_rows=100,
        attributes=["a", "b", "c"],
        ocs=list(ocs),
        ofds=list(ofds),
    )


def _oc(a, b, context=(), level=2, factor=0.0, score=0.5):
    return DiscoveredOC(
        oc=CanonicalOC(context, a, b),
        approximation_factor=factor,
        removal_size=int(factor * 100),
        level=level,
        interestingness=score,
    )


def _ofd(attr, context=(), level=1, factor=0.0, score=0.5):
    return DiscoveredOFD(
        ofd=OFD(context, attr),
        approximation_factor=factor,
        removal_size=int(factor * 100),
        level=level,
        interestingness=score,
    )


class TestCounts:
    def test_totals(self):
        result = _result_with([_oc("a", "b")], [_ofd("c", context=("a",), level=2)])
        assert result.num_ocs == 1
        assert result.num_ofds == 1
        assert result.num_dependencies == 2

    def test_is_exact_flag(self):
        assert _oc("a", "b", factor=0.0).is_exact
        assert not _oc("a", "b", factor=0.05).is_exact
        assert _ofd("a").is_exact
        assert not _ofd("a", factor=0.02).is_exact


class TestLevelAnalytics:
    def test_histograms(self):
        result = _result_with(
            [_oc("a", "b", level=2), _oc("a", "c", level=2), _oc("b", "c", ("a",), level=3)],
            [_ofd("a", level=1), _ofd("b", ("a",), level=2)],
        )
        assert result.ocs_per_level() == {2: 2, 3: 1}
        assert result.ofds_per_level() == {1: 1, 2: 1}

    def test_average_level(self):
        result = _result_with([_oc("a", "b", level=2), _oc("b", "c", ("a",), level=4)])
        assert result.average_oc_level() == 3.0

    def test_average_level_empty(self):
        assert _result_with().average_oc_level() is None


class TestRankingAndLookup:
    def test_ranked_by_interestingness(self):
        low = _oc("a", "b", score=0.1)
        high = _oc("a", "c", score=0.9)
        result = _result_with([low, high])
        assert result.ranked_ocs() == [high, low]
        assert result.ranked_ocs(top_k=1) == [high]

    def test_ranked_ofds(self):
        low = _ofd("a", score=0.2)
        high = _ofd("b", score=0.8)
        result = _result_with(ofds=[low, high])
        assert result.ranked_ofds() == [high, low]

    def test_find_oc_is_symmetric(self):
        result = _result_with([_oc("a", "b", context=("c",), level=3)])
        assert result.find_oc("b", "a", context=("c",)) is not None
        assert result.find_oc("a", "b") is None

    def test_find_ofd(self):
        result = _result_with(ofds=[_ofd("b", context=("a",), level=2)])
        assert result.find_ofd("b", context=("a",)) is not None
        assert result.find_ofd("b") is None

    def test_oc_statements(self):
        result = _result_with([_oc("a", "b")])
        assert result.oc_statements() == [CanonicalOC((), "a", "b")]

    def test_summary_mentions_mode_and_counts(self):
        result = _result_with([_oc("a", "b")])
        text = result.summary()
        assert "approximate" in text
        assert "1 OCs" in text
