"""Tests for the analysis harness: brute force, ratios, reporting, diffs."""

from __future__ import annotations

import pytest

from repro.algorithms import Aggressive, Conservative
from repro.analysis import (
    brute_force_optimal_stall,
    diff_schedules,
    evaluate_instances,
    format_comparison,
    format_report,
    format_table,
    summarize_result,
)
from repro.disksim import DiskLayout, ProblemInstance, RequestSequence, simulate
from repro.errors import ConfigurationError
from repro.lp import optimal_single_disk
from repro.workloads import parallel_disk_example, single_disk_example, uniform_random


class TestBruteForce:
    def test_paper_single_disk_example(self):
        result = brute_force_optimal_stall(single_disk_example())
        assert result.stall_time == 1
        assert result.elapsed_time == 11
        assert result.explored_states > 0

    def test_zero_stall_instance(self):
        instance = ProblemInstance.single_disk(
            ["a", "b", "a"], cache_size=2, fetch_time=2, initial_cache=["a", "b"]
        )
        assert brute_force_optimal_stall(instance).stall_time == 0

    def test_matches_lp_on_small_instances(self, small_cold_instance, small_warm_instance):
        for instance in (small_cold_instance, small_warm_instance):
            brute = brute_force_optimal_stall(instance)
            lp = optimal_single_disk(instance)
            assert brute.stall_time == lp.stall_time

    def test_parallel_example(self):
        result = brute_force_optimal_stall(parallel_disk_example())
        # The paper's narrated schedule achieves 3; with only k slots the
        # optimum cannot be better than the LP bound and is at most 3.
        assert 0 < result.stall_time <= 3

    def test_rejects_large_instances(self):
        instance = ProblemInstance.single_disk(
            uniform_random(60, 20, seed=0), cache_size=4, fetch_time=2
        )
        with pytest.raises(ConfigurationError):
            brute_force_optimal_stall(instance)


def _ratios(instance, algorithms, label="paper"):
    return evaluate_instances([(label, instance)], algorithms, compute_optimum=True)


class TestRatios:
    def test_single_disk_ratios(self):
        results = _ratios(single_disk_example(), ["aggressive", "conservative"])
        assert {r.optimal_elapsed for r in results} == {11}
        (aggressive,) = results.for_algorithm("aggressive")
        assert aggressive.metrics.elapsed_time == 13
        assert aggressive.elapsed_ratio == pytest.approx(13 / 11)
        assert results.max_ratio_for("conservative") >= 1.0
        assert [r.algorithm for r in results] == ["aggressive", "conservative"]

    def test_parallel_stall_ratios(self):
        results = _ratios(parallel_disk_example(), ["parallel-aggressive"])
        (record,) = results.records
        assert record.disks == 2
        assert record.metrics.stall_time >= record.optimal_stall
        assert record.stall_ratio >= 1.0

    def test_one_solve_per_instance_across_labels(self):
        results = evaluate_instances(
            [("a", single_disk_example()), ("b", single_disk_example())],
            ["aggressive", "demand"],
            compute_optimum=True,
        )
        assert results.optimum_requests == 1
        assert [r.point for r in results] == [
            "a alg=aggressive", "a alg=demand", "b alg=aggressive", "b alg=demand",
        ]
        assert results.ratios_for("aggressive")["a alg=aggressive"] == pytest.approx(13 / 11)
        assert {row["optimal_elapsed"] for row in results.as_rows()} == {11}

    def test_unknown_algorithm_fails_before_running(self):
        with pytest.raises(ConfigurationError):
            _ratios(single_disk_example(), ["aggressive", "nope"])


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            [{"name": "x", "value": 1.23456}, {"name": "longer", "value": 2}],
            float_precision=2,
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in text and "longer" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_report_includes_bounds(self):
        text = format_report(_ratios(single_disk_example(), ["aggressive"]), title="paper")
        assert text.splitlines()[0] == "paper"
        assert "optimal stall = 1" in text
        assert "aggressive" in text
        assert "Thm1" in text

    def test_format_report_omits_bounds_on_parallel_disks(self):
        text = format_report(
            _ratios(parallel_disk_example(), ["parallel-aggressive"]), title="parallel"
        )
        assert "parallel-aggressive" in text
        assert "Thm1" not in text

    def test_format_comparison(self):
        text = format_comparison(
            {"aggr": {"p1": 1.2, "p2": 1.3}, "cons": {"p1": 1.5}}, title="ratios"
        )
        assert "ratios" in text and "p2" in text and "cons" in text


class TestCompare:
    def test_diff_and_summary(self):
        instance = single_disk_example()
        a = simulate(instance, Aggressive())
        b = simulate(instance, Conservative())
        diff = diff_schedules(a, b)
        assert diff.stall_a == 3 and diff.stall_b == 2
        assert not diff.same_stall
        assert diff.fetches_a == 2 and diff.fetches_b == 1
        summary = summarize_result(a)
        assert summary["policy"] == "aggressive"
        assert summary["stall"] == 3
