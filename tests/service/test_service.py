"""The prefetch service: sessions, persistence, and the replay property.

Covers the transport-free layers of :mod:`repro.service`: session lifecycle
and plan projection, the JSONL journal, snapshot-based restart with zero
recompute, and the satellite property that a ``multiclient:`` workload fed
through a session one request at a time produces a :class:`RunRecord` JSON
document byte-identical to the batch runner's.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import make_algorithm
from repro.analysis.results import RunRecord
from repro.disksim.executor import simulate
from repro.errors import ConfigurationError, InvalidSequenceError
from repro.service import PrefetchService, SessionRecorder, replay_workload
from repro.workloads.spec import build_workload_instance

MULTICLIENT = "multiclient:clients=6,n=240,shared=10,shared_frac=0.35"


def _instance(spec=MULTICLIENT, cache_size=8, fetch_time=4):
    return build_workload_instance(
        spec, cache_size=cache_size, fetch_time=fetch_time, disks=1, layout="striped"
    )


class TestSessionLifecycle:
    def test_feed_and_plan_match_batch_oracle(self):
        instance = _instance()
        service = PrefetchService()
        session = service.create_session("aggressive", cache_size=8, fetch_time=4)
        assert session.session_id == "s1"
        summary = service.feed("s1", list(instance.sequence.requests))
        assert summary["horizon"] == instance.num_requests
        plan = service.plan("s1")
        offline = simulate(instance, make_algorithm("aggressive"))
        assert plan["projected"]["stall_time"] == offline.metrics.stall_time
        assert plan["projected"]["metrics"] == offline.metrics.as_dict()
        committed = {(f["start_time"], f["disk"], f["block"]) for f in plan["committed"]}
        upcoming = {(f["start_time"], f["disk"], f["block"]) for f in plan["upcoming"]}
        batch = {(f.start_time, f.disk, f.block) for f in offline.schedule.fetches}
        assert committed | upcoming == batch
        assert not committed & upcoming

    def test_empty_session_plan_is_empty(self):
        service = PrefetchService()
        service.create_session("aggressive", cache_size=4, fetch_time=2)
        plan = service.plan("s1")
        assert plan["committed"] == [] and plan["upcoming"] == []
        assert plan["projected"] is None

    def test_unknown_session_is_strict(self):
        service = PrefetchService()
        with pytest.raises(ConfigurationError, match="unknown session"):
            service.feed("s404", ["a"])

    def test_rejected_create_does_not_burn_a_session_id(self):
        service = PrefetchService()
        with pytest.raises(ConfigurationError):
            service.create_session("aggressive", cache_size=0, fetch_time=2)
        assert service.session_ids == []
        assert service.create_session("aggressive", cache_size=4, fetch_time=2).session_id == "s1"
        assert service.create_session("aggressive", cache_size=4, fetch_time=2).session_id == "s2"

    @pytest.mark.parametrize(
        "batch, message",
        ((["a", "b", None], "request 5 is None"), (["c", ["x"]], "request 4 is not a hashable")),
    )
    def test_rejected_feed_leaves_stream_journal_and_plan_unchanged(
        self, tmp_path, batch, message
    ):
        service = PrefetchService(state_dir=tmp_path)
        try:
            service.create_session("aggressive", cache_size=2, fetch_time=2)
            service.feed("s1", ["a", "b", "a"])
            plan = service.plan("s1")
            journal = (tmp_path / "s1.events.jsonl").read_text()
            with pytest.raises(InvalidSequenceError, match=message):
                service.feed("s1", batch)
            assert (tmp_path / "s1.events.jsonl").read_text() == journal
            assert service.get("s1").describe()["horizon"] == 3
            assert service.plan("s1") == plan
        finally:
            service.close()

    def test_plan_limit_caps_upcoming(self):
        service = PrefetchService()
        session = service.create_session("conservative", cache_size=4, fetch_time=3)
        session.feed([f"b{i % 9}" for i in range(40)])
        full = service.plan("s1")
        capped = service.plan("s1", limit=2)
        assert capped["upcoming"] == full["upcoming"][:2]


class TestPersistence:
    def test_restart_resumes_every_session_with_zero_recompute(self, tmp_path):
        instance = _instance()
        requests = list(instance.sequence.requests)
        service = PrefetchService(state_dir=tmp_path)
        service.create_session("aggressive", cache_size=8, fetch_time=4)
        service.create_session("demand:evict=lru", cache_size=8, fetch_time=4)
        service.feed("s1", requests[:150])
        service.feed("s2", requests[:150])
        before = {sid: service.get(sid).describe() for sid in ("s1", "s2")}
        service.save_all()
        service.close()

        revived = PrefetchService(state_dir=tmp_path)
        assert revived.load_all() == ["s1", "s2"]
        for sid, summary in before.items():
            after = revived.get(sid).describe()
            # Zero recompute: the revived cursor/clock equal the saved ones.
            assert after == summary
        # Ids allocated after a restart never collide with revived sessions.
        assert revived.create_session("aggressive", cache_size=4, fetch_time=2).session_id == "s3"

        # Feeding the rest and finishing equals the uninterrupted batch run.
        revived.feed("s1", requests[150:])
        result = revived.get("s1").finish()
        offline = simulate(instance, make_algorithm("aggressive"))
        assert result.schedule == offline.schedule
        assert result.metrics == offline.metrics

    def test_save_without_state_dir_is_an_error(self):
        with pytest.raises(ConfigurationError):
            PrefetchService().save_all()

    def test_journal_continues_across_restart(self, tmp_path):
        service = PrefetchService(state_dir=tmp_path)
        service.create_session("aggressive", cache_size=4, fetch_time=2)
        service.feed("s1", ["a", "b"])
        service.save_all()
        service.close()

        revived = PrefetchService(state_dir=tmp_path)
        revived.load_all()
        revived.feed("s1", ["c"])
        entries = SessionRecorder.read(tmp_path / "s1.events.jsonl")
        assert [entry["seq"] for entry in entries] == list(range(len(entries)))
        assert [entry["event"] for entry in entries] == [
            "create", "feed", "snapshot", "restore", "feed",
        ]


class TestRecorder:
    def test_appends_are_sequenced_and_deterministic(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with SessionRecorder(path) as recorder:
            assert recorder.append("create", session="s1") == 0
            assert recorder.append("feed", accepted=3) == 1
        reopened = SessionRecorder(path)
        assert reopened.next_seq == 2
        reopened.append("feed", accepted=1)
        reopened.close()
        entries = SessionRecorder.read(path)
        assert [e["seq"] for e in entries] == [0, 1, 2]
        # Journals carry no wall-clock fields — replays are byte-identical.
        assert all("time" not in e or isinstance(e["time"], int) for e in entries)


class TestReplayProperty:
    @pytest.mark.parametrize("spec", ("aggressive", "delay:d=2", "conservative", "demand:evict=lru"))
    def test_one_at_a_time_equals_batch_run_record(self, spec):
        """Satellite property: per-request feed == batch RunRecord, byte for byte."""
        instance = _instance()
        service = PrefetchService()
        session = service.create_session(spec, cache_size=8, fetch_time=4)
        for block in instance.sequence.requests:
            session.feed([block])
        streamed = session.finish()
        batch = simulate(instance, make_algorithm(spec))
        make_record = lambda result: RunRecord.from_simulation(
            result, point=MULTICLIENT, algorithm_spec=spec,
            workload=MULTICLIENT, engine="loop",
        )
        streamed_json = json.dumps(make_record(streamed).to_json_dict(), sort_keys=True)
        batch_json = json.dumps(make_record(batch).to_json_dict(), sort_keys=True)
        assert streamed_json == batch_json

    def test_replay_driver_reports_match(self, tmp_path):
        report = replay_workload(
            MULTICLIENT, algorithm="aggressive", cache_size=8, fetch_time=4, chunk=50
        )
        assert report.match
        assert report.num_requests == 240
        assert report.chunks_fed == 5
        assert report.streaming
        assert "matches offline batch run" in report.describe()

    def test_replay_driver_deferred_policy(self):
        report = replay_workload(
            MULTICLIENT, algorithm="conservative", cache_size=8, fetch_time=4, chunk=60
        )
        assert report.match
        assert not report.streaming
        assert set(report.statuses) == {"deferred"}
