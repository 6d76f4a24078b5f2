"""Seeded inputs stay in their size class, and the same seed gives the same inputs."""

import json

import pytest

import _paths  # noqa: F401
import cfk.cli  # noqa: F401  (workloads find cfk's modules in sys.modules)
import knots
import workloads

SEEDS = (1, 2, 3)


def miss_share(workload) -> float:
    """Share of a pass's queries whose canonical form is new to the cache."""
    keys = [knots.canonical(q.factors) for q in workload.queries]
    return len(set(keys)) / len(keys)


def made(name, seed):
    workload = workloads.make(name, seed)
    workload.setup()
    return workload


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_sums_size_class(seed):
    w = made("invariants-sums", seed)
    assert len(w.queries) == w.per_pass
    for q in w.queries:
        assert 2 <= len(q.factors) <= 3
        assert 150 <= knots.generator_count(q.factors) <= 700
        assert knots.parse(q.text) == q.factors
    assert any(s < 0 for q in w.queries for s, _, _ in q.factors)


@pytest.mark.parametrize("seed", SEEDS)
def test_stable_pairs_size_class(seed):
    w = made("stable-pairs", seed)
    w.check_setup()
    assert not w.setup_errors
    assert len(w.queries) == w.sums * w.per_sum
    positive = 0
    for factors, knot, boxed, ups in w.pairs:
        assert 500 <= len(knot.generators) <= 1500
        assert len(knot.generators) + 4 <= len(boxed.generators) <= len(knot.generators) + 8
        positive += len(knots.positive_singularities(knots.upsilon_of_sum(factors)))
    assert positive >= 100


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_reports_miss_share(seed):
    w = made("cached-reports", seed)
    # Misses must stay well away from 10% and 50% of the stream, so that
    # the median query is a hit and the 90th percentile a miss.
    assert 0.2 <= miss_share(w) <= 0.4
    for q in w.queries:
        assert knots.generator_count(q.factors) <= 60


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    assert made(name, 7).queries == made(name, 7).queries
    assert made(name, 7).queries != made(name, 8).queries


def test_catalog_rows_match_their_counts():
    rows = json.loads((workloads.HERE / "catalog.json").read_text())["invariants-sums"]
    assert len(rows) >= 10 * workloads.InvariantsSums.per_pass
    for text, n, candidates, ms in rows[::7]:
        factors = knots.parse(text)
        assert knots.generator_count(factors) == n
        assert knots.candidate_count(factors) == candidates
        assert ms > 0
