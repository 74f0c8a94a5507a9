import math

import pytest

from glscov import (
    dual_psi,
    finite_support,
    fundamental,
    fundamental_truncated,
    power,
    product_zeta,
    tail_bound,
)
from glscov._optimize import TABLE_CACHE_SIZE, golden_max, psi_table


def _step(edge, feasible_left):
    """-inf on one side of `edge`; on the other the value rises toward it."""
    if feasible_left:
        return lambda x: x if x <= edge else -math.inf
    return lambda x: -x if x >= edge else -math.inf


@pytest.mark.parametrize("feasible_left", [True, False])
def test_golden_max_two_infeasible_probes_shrink_toward_the_finite_end(feasible_left):
    # the edge lies left of both first probes (0.382, 0.618) or right of them,
    # so the first step sees two -inf probes and must keep the edge bracketed
    edge = 0.3 if feasible_left else 0.7
    x, fx = golden_max(_step(edge, feasible_left), 0.0, 1.0, tol=1e-12)
    assert x == pytest.approx(edge, abs=1e-11)
    assert fx == pytest.approx(edge if feasible_left else -edge, abs=1e-11)


def _sups(psi):
    return (
        fundamental(psi, 1e-6),
        fundamental_truncated(psi, 1.5, 1e-6),
        tail_bound(psi, 1.0, 5.0),
    )


@pytest.mark.parametrize(
    "make",
    [lambda: finite_support(3.0, 0.5), lambda: product_zeta(power(2.0), dual_psi(power(2.0)))],
)
def test_sups_identical_on_cache_miss_hit_and_after_eviction(make):
    psi = make()
    psi_table.cache_clear()
    miss = _sups(psi)
    assert psi_table.cache_info().misses == 2
    hit = _sups(psi)
    assert psi_table.cache_info().hits == 4
    for k in range(TABLE_CACHE_SIZE + 1):
        _sups(power(1.0 + k))
    before = psi_table.cache_info().misses
    evicted = _sups(psi)
    assert psi_table.cache_info().misses == before + 2
    assert miss == hit == evicted


def test_cached_tables_are_read_only_and_bounded():
    psi_table.cache_clear()
    us, logs = psi_table(power(1.0), 1.0, 64)
    for arr in (us, logs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for k in range(3 * TABLE_CACHE_SIZE):
        fundamental(power(1.0 + k), 1e-3)
    info = psi_table.cache_info()
    assert info.maxsize == TABLE_CACHE_SIZE
    assert info.currsize == TABLE_CACHE_SIZE
