"""The resident multi-tenant service: session registry plus persistence.

:class:`PrefetchService` is the daemon's brain, independent of any
transport: it allocates session identities, routes feed/plan/finish calls to
the right :class:`~repro.service.session.Session` under a lock (the HTTP
front end is threaded), and persists every session as a
``<state-dir>/<id>.snapshot.json`` stepped-kernel snapshot so a restarted
daemon resumes all tenants with zero recompute — served requests are never
re-simulated, in-flight fetches keep their completion times, and policy
state (LRU recency, plan cursors) survives byte-exactly.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from .._typing import BlockId
from ..errors import ConfigurationError
from .recorder import SessionRecorder
from .session import Session

__all__ = ["PrefetchService"]

_SNAPSHOT_SUFFIX = ".snapshot.json"
_JOURNAL_SUFFIX = ".events.jsonl"


class PrefetchService:
    """Registry of tenant sessions with snapshot-based durability."""

    def __init__(self, state_dir: Optional[Path] = None) -> None:
        self.state_dir = None if state_dir is None else Path(state_dir)
        self._sessions: Dict[str, Session] = {}
        self._counter = 0
        self._lock = threading.RLock()

    # -- session registry --------------------------------------------------------

    def _recorder_for(self, session_id: str) -> Optional[SessionRecorder]:
        if self.state_dir is None:
            return None
        return SessionRecorder(self.state_dir / f"{session_id}{_JOURNAL_SUFFIX}")

    def create_session(
        self,
        algorithm: str,
        *,
        cache_size: int,
        fetch_time: int,
        initial_cache: Iterable[BlockId] = (),
    ) -> Session:
        """Open a new session and return it (its id is ``s1``, ``s2``, ...).

        The id is taken only once the session exists: a rejected create
        leaves the counter where it was.
        """
        with self._lock:
            session_id = f"s{self._counter + 1}"
            session = Session.create(
                session_id,
                algorithm,
                cache_size=cache_size,
                fetch_time=fetch_time,
                initial_cache=initial_cache,
                recorder=self._recorder_for(session_id),
            )
            self._counter += 1
            self._sessions[session_id] = session
            return session

    def get(self, session_id: str) -> Session:
        """The session registered under ``session_id`` (strict)."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ConfigurationError(f"unknown session {session_id!r}")
        return session

    @property
    def session_ids(self) -> List[str]:
        """The registered session ids, in creation order."""
        with self._lock:
            return sorted(self._sessions, key=lambda sid: (len(sid), sid))

    def describe(self) -> List[Dict[str, Any]]:
        """Status summaries of every session, in creation order."""
        return [self.get(sid).describe() for sid in self.session_ids]

    # -- routed verbs ------------------------------------------------------------

    def feed(self, session_id: str, blocks: Iterable[BlockId]) -> Dict[str, Any]:
        """Append requests to one session and advance it."""
        session = self.get(session_id)
        with self._lock:
            return session.feed(blocks)

    def plan(self, session_id: str, limit: Optional[int] = None) -> Dict[str, Any]:
        """The session's upcoming decisions and projected outcome."""
        session = self.get(session_id)
        with self._lock:
            return session.plan(limit)

    # -- persistence -------------------------------------------------------------

    def _require_state_dir(self) -> Path:
        if self.state_dir is None:
            raise ConfigurationError("this service has no state directory configured")
        return self.state_dir

    def save_all(self) -> List[Path]:
        """Write every session's snapshot; returns the files written.

        Snapshots are written whole-file (JSON, sorted keys) so a snapshot
        on disk is always internally consistent; the journal files are
        already flushed per entry.
        """
        state_dir = self._require_state_dir()
        state_dir.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        with self._lock:
            for session_id in self.session_ids:
                session = self._sessions[session_id]
                path = state_dir / f"{session_id}{_SNAPSHOT_SUFFIX}"
                path.write_text(
                    json.dumps(session.snapshot_payload(), sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                if session.recorder is not None:
                    session.recorder.append(
                        "snapshot",
                        session=session_id,
                        horizon=session.sim.horizon,
                        cursor=session.sim.cursor,
                    )
                written.append(path)
        return written

    def load_all(self) -> List[str]:
        """Revive every persisted session from the state directory.

        Returns the ids restored.  The id counter resumes above the highest
        numeric id seen, so sessions created after a restart never collide
        with revived ones.
        """
        state_dir = self._require_state_dir()
        restored: List[str] = []
        if not state_dir.exists():
            return restored
        with self._lock:
            for path in sorted(state_dir.glob(f"*{_SNAPSHOT_SUFFIX}")):
                payload = json.loads(path.read_text(encoding="utf-8"))
                session_id = str(payload["session"])
                session = Session.from_snapshot_payload(
                    payload, recorder=self._recorder_for(session_id)
                )
                self._sessions[session_id] = session
                restored.append(session_id)
                if session_id.startswith("s") and session_id[1:].isdigit():
                    self._counter = max(self._counter, int(session_id[1:]))
        return restored

    def close(self) -> None:
        """Close every session journal (snapshots are not written here)."""
        with self._lock:
            for session in self._sessions.values():
                if session.recorder is not None:
                    session.recorder.close()
