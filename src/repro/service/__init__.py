"""Resident multi-tenant prefetch service over the stepped simulation kernel.

This subpackage turns the batch simulator into an online system: a
:class:`~repro.service.daemon.PrefetchService` holds one
:class:`~repro.disksim.stepped.SteppedSimulation` per tenant session, an
append-only JSONL recorder journals every session event, a stdlib
``http.server`` front end exposes the create/feed/plan surface, and a replay
driver streams an existing workload spec through the service and checks the
outcome against the offline batch run.

The layering mirrors the rest of the repository: ``session.py`` and
``daemon.py`` are pure library code with no I/O besides the recorder file,
``server.py`` and ``coordinator.py`` are the only modules that own sockets,
both on the shared JSON scaffold of ``jsonhttp.py`` (the only module
allowed a pragma-justified wall-clock read, for /health uptime), and
``replay.py`` closes the loop back to the workload registry.

``coordinator.py`` belongs to the *distributed sweep* fabric rather than the
prefetch daemon: it is the chunk-lease ledger behind
:class:`repro.analysis.remote.RemoteBackend` and the ``repro coordinator``
command.
"""

from .coordinator import (
    CoordinatorHTTPServer,
    SweepCoordinator,
    make_coordinator_server,
)
from .daemon import PrefetchService
from .recorder import SessionRecorder
from .replay import ReplayReport, replay_workload
from .server import PrefetchHTTPServer, make_server
from .session import Session

__all__ = [
    "PrefetchService",
    "SessionRecorder",
    "ReplayReport",
    "replay_workload",
    "PrefetchHTTPServer",
    "make_server",
    "Session",
    "SweepCoordinator",
    "CoordinatorHTTPServer",
    "make_coordinator_server",
]
