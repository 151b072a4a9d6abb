"""In-process qMKP: every kernel tier under every cache mode.

Cache off re-scans per probe; the LRU shares one table across probes.
Both must give the in-process default's answer, byte for byte in its
cost accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import qmkp
from repro.perf import MarkedSetCache
from repro.perf.kernels import available_backends

from .corpus import BOUNDED_ERROR_MISSES, certify, check_qmkp, graphs

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
KS = st.integers(min_value=1, max_value=3)
SEEDS = st.integers(min_value=0, max_value=2**16)


def _pin_misses(test):
    """Run ``test`` on every recorded bounded-error miss as well."""
    for graph, k, seed in BOUNDED_ERROR_MISSES:
        test = example(graph=graph, k=k, seed=seed)(test)
    return test


def _solve(graph, k, seed, **kwargs):
    result = qmkp(graph, k, rng=np.random.default_rng(seed), **kwargs)
    check_qmkp(graph, k, seed, result.subset, result.gate_units,
               result.oracle_calls)


@pytest.mark.parametrize("kernel", available_backends())
class TestTiers:
    @SETTINGS
    @given(graph=graphs(), k=KS, seed=SEEDS)
    @_pin_misses
    def test_cache_off(self, kernel, graph, k, seed):
        _solve(graph, k, seed, use_cache=False, kernel=kernel)

    @SETTINGS
    @given(graph=graphs(), k=KS, seed=SEEDS)
    @_pin_misses
    def test_lru_cache(self, kernel, graph, k, seed):
        _solve(graph, k, seed, cache=MarkedSetCache(kernel=kernel))


class TestCertify:
    def test_recorded_misses_fall_short_of_the_optimum(self):
        # The pinned draws exercise the bounded-error allowance: each
        # default answer is a certified k-plex below the optimum.
        for graph, k, seed in BOUNDED_ERROR_MISSES:
            result = qmkp(graph, k, rng=np.random.default_rng(seed))
            check_qmkp(graph, k, seed, result.subset, result.gate_units,
                       result.oracle_calls)
            with pytest.raises(AssertionError):
                certify(graph, k, result.subset, probes=[])

    def test_suboptimal_answer_without_a_miss_fails(self):
        graph, k, seed = BOUNDED_ERROR_MISSES[0]
        result = qmkp(graph, k, rng=np.random.default_rng(seed))
        found = [probe for probe in result.probes if probe.found]
        assert found  # the probes that succeeded record no miss
        short = sorted(result.subset)[:-1]  # still a k-plex
        with pytest.raises(AssertionError):
            certify(graph, k, short, found)
