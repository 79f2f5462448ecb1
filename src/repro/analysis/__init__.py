"""Measurement harness: the batched runner, brute-force optima, reports.

Every producer in this package emits the unified run-record model of
:mod:`repro.analysis.results`: a :class:`RunRecord` per algorithm x instance
evaluation, collected into :class:`ResultSet` s with uniform JSON/CSV
emission.  The batched runner (:mod:`repro.analysis.runner`) is the one
route to a ratio: :func:`run_experiments` over a declared grid and
:func:`evaluate_instances` over prebuilt instances both attach the
certified optimum to every record when asked to.  Execution is pluggable
(:mod:`repro.analysis.backends`: serial/thread/process with adaptive
chunking) and persistence is durable (:mod:`repro.analysis.store`: one
WAL-mode SQLite file holding run records, optimum records and resumable
sweep manifests).
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    adaptive_chunk_size,
    make_backend,
)
from .compare import ScheduleDiff, diff_schedules, summarize_result
from .optimal import BruteForceResult, brute_force_optimal_stall
from .reporting import (
    format_comparison,
    format_ratio_table,
    format_report,
    format_result_set,
    format_table,
)
from .results import RUN_RECORD_COLUMNS, ResultSet, RunRecord, safe_ratio
from .runner import (
    ExperimentPoint,
    ExperimentSpec,
    evaluate_instances,
    instance_fingerprint,
    point_cache_key,
    prepare_sweep,
    run_experiments,
    sweep_key_for,
)
from .store import RunStore, SweepProgress, store_path_for

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "adaptive_chunk_size",
    "make_backend",
    "RunStore",
    "SweepProgress",
    "store_path_for",
    "point_cache_key",
    "prepare_sweep",
    "sweep_key_for",
    "RUN_RECORD_COLUMNS",
    "RunRecord",
    "ResultSet",
    "safe_ratio",
    "ExperimentPoint",
    "ExperimentSpec",
    "evaluate_instances",
    "instance_fingerprint",
    "run_experiments",
    "ScheduleDiff",
    "diff_schedules",
    "summarize_result",
    "BruteForceResult",
    "brute_force_optimal_stall",
    "format_comparison",
    "format_ratio_table",
    "format_report",
    "format_result_set",
    "format_table",
]
