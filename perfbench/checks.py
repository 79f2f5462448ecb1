"""Correctness checks of the benchmark's outputs.

Each check returns a list of problems (empty when the output is right), so a
run can report every failed check before it fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The seed whose first-round records are pinned in ``pinned.json``.
DEFAULT_SEED = 1
PINNED = Path(__file__).with_name("pinned.json")

#: Fields that legitimately differ between engines or runs of one point.
_UNPINNED_FIELDS = ("engine", "optimum_solve_seconds")


def record_payloads(records: Sequence[Any]) -> List[Dict[str, Any]]:
    """Records as JSON dicts, without the engine that produced them."""
    out = []
    for record in records:
        payload = record.to_json_dict()
        for name in _UNPINNED_FIELDS:
            payload.pop(name, None)
        out.append(payload)
    return out


def records_digest(records: Sequence[Any]) -> str:
    """SHA-256 over the records in grid order (engine field excluded)."""
    text = json.dumps(record_payloads(records), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _first_difference(ours: Sequence[Any], reference: Sequence[Any]) -> str:
    if len(ours) != len(reference):
        return f"{len(ours)} records, reference has {len(reference)}"
    for mine, theirs in zip(record_payloads(ours), record_payloads(reference)):
        if mine != theirs:
            return f"point [{mine['point']}] differs: {mine} != {theirs}"
    return "digests differ"


def matches_loop_reference(records: Sequence[Any], spec: Any) -> List[str]:
    """``records`` equal a serial loop-engine run of ``spec`` (engine aside)."""
    from repro.analysis import runner

    reference = list(
        runner.run_experiments(
            dataclasses.replace(spec, engine="loop", backend="serial")
        )
    )
    if records_digest(records) == records_digest(reference):
        return []
    return [_first_difference(records, reference)]


def matches_pinned(name: str, seed: int, records: Sequence[Any], pinned: Path = PINNED) -> List[str]:
    """At the default seed, ``records`` hash to the digest pinned for ``name``."""
    if seed != DEFAULT_SEED:
        return []
    expected = json.loads(pinned.read_text())[name]
    actual = records_digest(records)
    if actual == expected:
        return []
    return [f"digest {actual} != pinned {expected}"]


def paper_bound(algorithm_spec: str, cache_size: int, fetch_time: int) -> Optional[float]:
    """The paper's elapsed-time ratio bound for a single-disk algorithm.

    Theorem 1 for Aggressive, Theorem 3 for Delay(d), Cao et al.'s 2 for
    Conservative, Corollary 2 for Combination; None for demand paging, which
    has no bound of its own.
    """
    from repro.algorithms.registry import canonicalize_algorithm_spec
    from repro.core import bounds

    family, _, params = canonicalize_algorithm_spec(algorithm_spec).partition(":")
    if family == "aggressive":
        return bounds.aggressive_bound_refined(cache_size, fetch_time)
    if family == "delay":
        values = dict(item.split("=", 1) for item in params.split(",") if item)
        return bounds.delay_bound(int(values["d"]), fetch_time)
    if family == "conservative":
        return bounds.conservative_bound()
    if family == "combination":
        return bounds.combination_bound(cache_size, fetch_time)
    return None


def ratio_bounds(records: Sequence[Any], tolerance: float = 1e-9) -> List[str]:
    """Single-disk ratios lie in ``[1, paper bound]``; multi-disk ratios are >= 1."""
    problems = []
    for record in records:
        ratio = record.elapsed_ratio
        if ratio is None:
            problems.append(f"[{record.point}] has no optimum attached")
            continue
        if ratio < 1.0 - tolerance:
            problems.append(f"[{record.point}] elapsed ratio {ratio} < 1")
        if record.disks == 1:
            bound = paper_bound(record.algorithm_spec, record.cache_size, record.fetch_time)
            if bound is not None and ratio > bound + tolerance:
                problems.append(f"[{record.point}] elapsed ratio {ratio} > paper bound {bound}")
    return problems


def _fetch_payload(fetch: Any) -> Dict[str, Any]:
    return {
        "start_time": fetch.start_time,
        "disk": fetch.disk,
        "block": fetch.block,
        "victim": fetch.victim,
    }


def plan_matches_offline(
    plan: Optional[Dict[str, Any]],
    fed: Sequence[Any],
    algorithm: str,
    cache_size: int,
    fetch_time: int,
) -> List[str]:
    """A tenant's last plan equals an offline ``simulate`` of its fed stream."""
    from repro.algorithms import make_algorithm
    from repro.disksim.executor import simulate
    from repro.disksim.instance import ProblemInstance

    if plan is None or not fed:
        return ["no plan was served"]
    if plan["horizon"] != len(fed):
        return [f"plan horizon {plan['horizon']} != {len(fed)} requests fed"]
    offline = simulate(
        ProblemInstance.single_disk(list(fed), cache_size, fetch_time),
        make_algorithm(algorithm),
    )
    problems = []
    if plan["projected"]["metrics"] != json.loads(json.dumps(offline.metrics.as_dict())):
        problems.append(
            f"projected metrics {plan['projected']['metrics']} != offline "
            f"{offline.metrics.as_dict()}"
        )
    served = plan["committed"] + plan["upcoming"]
    expected = [_fetch_payload(f) for f in offline.schedule.fetches[: len(served)]]
    if json.loads(json.dumps(expected)) != served:
        problems.append("committed + upcoming fetches differ from the offline schedule")
    return problems


def same_plans(before: Dict[str, Any], after: Dict[str, Any]) -> List[str]:
    """The restored service serves exactly the plans served before the restart."""
    problems = []
    for session, plan in before.items():
        revived = after.get(session)
        if revived != plan:
            keys = sorted(
                key for key in set(plan) | set(revived or {})
                if (revived or {}).get(key) != plan.get(key)
            )
            problems.append(f"session {session} plan changed across restart: {keys}")
    return problems
