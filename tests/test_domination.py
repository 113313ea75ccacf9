"""Vectorised domination: ``pareto_front`` and ``non_dominated_sort`` vs row-wise references.

Both functions rank an objective matrix built once per pass and compare its
rows in numpy blocks.  The guarantees under test:

* ``pareto_front`` returns exactly the list a row-wise :func:`dominates`
  filter returns, in input order, and ``non_dominated_sort`` returns exactly
  the ``List[List[int]]`` of the pairwise fast sort it replaced — including
  the order within each front, which NSGA-II's crowding tie-breaks and
  survivor selection depend on;
* both hold across NaN (mapped to ``+inf``), ``+-inf``, exact ties, duplicate
  rows, the same object listed twice, empty and single-row pools, a
  1-objective set, and pools just below, at and just above the block size;
* each ranking pass calls every extractor once per item, and a large pool
  ranks in bounded memory.
"""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.pareto as pareto_module
from repro.campaign.portability import count_surviving_on_front
from repro.engine.nsga import NSGA2Strategy, non_dominated_sort
from repro.search.objectives import DEFAULT_OBJECTIVES, ObjectiveSet, ObjectiveSpec
from repro.search.pareto import dominates, pareto_front

BLOCK = pareto_module._DOMINATION_BLOCK

# -- references ------------------------------------------------------------------


def _rowwise_front(items, objectives):
    return [
        candidate
        for candidate in items
        if not any(dominates(other, candidate, objectives) for other in items)
    ]


def _pairwise_dominates(first: np.ndarray, second: np.ndarray) -> bool:
    return bool(np.all(first <= second) and np.any(first < second))


def _pairwise_sort(values: np.ndarray) -> List[List[int]]:
    """The O(n^2) Python fast non-dominated sort ``non_dominated_sort`` replaced."""
    count = len(values)
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_count = np.zeros(count, dtype=int)
    for i in range(count):
        for j in range(i + 1, count):
            if _pairwise_dominates(values[i], values[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif _pairwise_dominates(values[j], values[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: List[List[int]] = []
    current = [i for i in range(count) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        upcoming: List[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = upcoming
    return fronts


# -- inputs ----------------------------------------------------------------------


class _Row:
    """A pool item whose objectives are the entries of ``raw``."""

    def __init__(self, raw):
        self.raw = tuple(raw)


class _Column:
    def __init__(self, index: int):
        self.index = index

    def __call__(self, item) -> float:
        return item.raw[self.index]


def _objectives(width: int, maximised: int = -1) -> ObjectiveSet:
    return ObjectiveSet(
        specs=tuple(
            ObjectiveSpec(
                name=f"o{index}",
                extractor=_Column(index),
                direction="max" if index == maximised else "min",
            )
            for index in range(width)
        )
    )


# Few distinct values so ties and duplicate rows are common.
_value = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def _pools(draw, max_size=14):
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(st.lists(_value, min_size=width, max_size=width), max_size=max_size)
    )
    items = [_Row(raw) for raw in rows]
    # The same object listed twice.
    if items and draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), items[draw(st.integers(0, len(items) - 1))])
    maximised = draw(st.integers(min_value=-1, max_value=width - 1))
    return items, _objectives(width, maximised)


def _ids(items):
    return [id(item) for item in items]


# -- differential properties -----------------------------------------------------


class TestParetoFrontMatchesRowwise:
    @settings(max_examples=150, deadline=None)
    @given(_pools())
    def test_identical_list(self, pool):
        items, objectives = pool
        assert _ids(pareto_front(items, objectives)) == _ids(_rowwise_front(items, objectives))

    @settings(max_examples=60, deadline=None)
    @given(_pools(max_size=11))
    def test_identical_across_block_boundaries(self, pool):
        items, objectives = pool
        with mock.patch.object(pareto_module, "_DOMINATION_BLOCK", 4):
            front = pareto_front(items, objectives)
        assert _ids(front) == _ids(_rowwise_front(items, objectives))

    def test_empty_and_single(self):
        assert pareto_front([]) == []
        item = _Row([1.0])
        assert pareto_front([item], _objectives(1)) == [item]

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_pools_around_the_block_size(self, size):
        rng = np.random.default_rng(size)
        items = [_Row(raw) for raw in rng.integers(0, 6, size=(size, 2)).astype(float)]
        objectives = _objectives(2)
        assert _ids(pareto_front(items, objectives)) == _ids(_rowwise_front(items, objectives))


class TestNonDominatedSortMatchesPairwise:
    @settings(max_examples=150, deadline=None)
    @given(_pools())
    def test_identical_fronts_and_order(self, pool):
        items, objectives = pool
        values = objectives.matrix(items)
        assert non_dominated_sort(values) == _pairwise_sort(values)

    @settings(max_examples=60, deadline=None)
    @given(_pools(max_size=11))
    def test_identical_across_block_boundaries(self, pool):
        items, objectives = pool
        values = objectives.matrix(items)
        with mock.patch.object(pareto_module, "_DOMINATION_BLOCK", 4):
            fronts = non_dominated_sort(values)
        assert fronts == _pairwise_sort(values)

    def test_raw_nan_rows_match_pairwise(self):
        # Unlike ObjectiveSet.matrix, a caller's raw array may hold NaN:
        # every comparison against it is false, as in the pairwise rule.
        values = np.array([[1.0, np.nan], [0.0, 0.0], [2.0, 2.0], [np.nan, np.nan]])
        assert non_dominated_sort(values) == _pairwise_sort(values)

    def test_empty_and_single(self):
        assert non_dominated_sort(np.zeros((0, 3))) == []
        assert non_dominated_sort(np.array([[4.0]])) == [[0]]

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_pools_around_the_block_size(self, size):
        rng = np.random.default_rng(size)
        values = rng.integers(0, 8, size=(size, 3)).astype(float)
        assert non_dominated_sort(values) == _pairwise_sort(values)


class TestPortabilityMatchesPairwise:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(_value, _value, _value), max_size=8),
        st.lists(st.tuples(_value, _value, _value), max_size=8),
    )
    def test_surviving_count(self, transferred_raw, native_raw):
        def points(raw):
            return [
                SimpleNamespace(latency_ms=lat, energy_mj=energy, accuracy=acc)
                for lat, energy, acc in raw
            ]

        transferred, native = points(transferred_raw), points(native_raw)
        expected = sum(
            1
            for candidate in transferred
            if not any(dominates(member, candidate) for member in native)
        )
        assert count_surviving_on_front(transferred, native) == expected


# -- once per item ---------------------------------------------------------------


class _CountingLatency:
    def __init__(self):
        self.calls = 0

    def __call__(self, item) -> float:
        self.calls += 1
        return item.latency_ms


def _counting_objectives():
    counter = _CountingLatency()
    spec = ObjectiveSpec(name="latency_ms", extractor=counter)
    return counter, ObjectiveSet(specs=(spec,) + DEFAULT_OBJECTIVES.specs[1:])


class TestEachExtractorRunsOncePerItem:
    def test_pareto_front(self):
        counter, objectives = _counting_objectives()
        rng = np.random.default_rng(0)
        pool = [
            SimpleNamespace(latency_ms=lat, energy_mj=energy, accuracy=acc)
            for lat, energy, acc in rng.random((40, 3))
        ]
        pareto_front(pool, objectives)
        assert counter.calls == len(pool)

    def test_nsga2_tell(self, tiny_config_evaluator, tiny_space):
        counter, objectives = _counting_objectives()
        strategy = NSGA2Strategy(
            space=tiny_space, population_size=6, generations=3, seed=0, objectives=objectives
        )
        for _ in range(3):
            evaluated = [tiny_config_evaluator.evaluate(config) for config in strategy.ask()]
            ranked = len(strategy._parents) + len(evaluated)
            counter.calls = 0
            strategy.tell(evaluated)
            assert counter.calls == ranked


# -- bounded memory --------------------------------------------------------------


def test_pareto_front_memory_is_blocked():
    # 4,000 rows: an unblocked n x n boolean mask alone would take 16 MB,
    # an n x n x d broadcast 64 MB; the blocked pass stays a few MB.
    rng = np.random.default_rng(0)
    items = [_Row(raw) for raw in rng.random((4000, 4)).tolist()]
    objectives = _objectives(4)
    tracemalloc.start()
    try:
        front = pareto_front(items, objectives)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert front
    assert peak < 8 * 1024 * 1024, f"pareto_front peaked at {peak / 2**20:.1f} MiB"
