"""Engine auto-selection is explainable: the fallback reason is reported.

When ``engine="auto"``/``"vector"`` falls back to the loop engine, the
result's ``engine_reason`` (and :func:`~repro.disksim.vector.
ineligibility_reason`) must say why — the runner logs it, so a sweep that
silently ran 10x slower than expected is diagnosable from the debug log.
"""

from __future__ import annotations

from helpers import TunedConservative, random_instance
from repro.algorithms import make_algorithm
from repro.disksim import ineligibility_reason, simulate_with_engine


def test_loop_engine_sets_no_reason():
    result, engine = simulate_with_engine(
        random_instance(0), make_algorithm("aggressive"), engine="loop"
    )
    assert engine == "loop"
    assert result.engine_reason is None


def test_auto_on_parallel_instance_reports_reason():
    instance = random_instance(151, parallel=True)
    result, engine = simulate_with_engine(
        instance, make_algorithm("parallel-aggressive"), engine="auto"
    )
    assert engine == "loop"
    assert result.engine_reason == "parallel-disk instance"


def test_ineligibility_reason_matches_plan_coverage():
    instance = random_instance(0)
    # LRU demand paging and Conservative subclasses have no vector kernel
    # plan; Aggressive, Conservative and MIN demand paging do.
    for policy in (make_algorithm("demand:evict=lru"), TunedConservative()):
        reason = ineligibility_reason(instance, policy)
        assert reason is not None and "no vector kernel plan" in reason
    for spec in ("aggressive", "conservative", "demand"):
        assert ineligibility_reason(instance, make_algorithm(spec)) is None

    parallel = random_instance(151, parallel=True)
    assert (
        ineligibility_reason(parallel, make_algorithm("parallel-aggressive"))
        == "parallel-disk instance"
    )


def test_vector_covered_run_sets_no_reason():
    instance = random_instance(0)
    result, engine = simulate_with_engine(
        instance, make_algorithm("aggressive"), engine="auto"
    )
    if engine == "vector":
        assert result.engine_reason is None
    else:  # pragma: no cover - only without a vector-covered plan
        assert result.engine_reason is not None
