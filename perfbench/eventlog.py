"""Reader for Spark's JSON event log, aggregated per job group.

Spark 4 writes a rolling log by default: a directory ``eventlog_v2_<app>``
holding ``events_<n>_<app>`` files. A single-file log (rolling off) is read
too. Compressed logs are not supported; the benchmark turns compression off.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

_ROLLED = re.compile(r"^events_(\d+)_")


@dataclass
class GroupStats:
    """Work Spark did for one job group."""

    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    shuffle_write_bytes: int = 0
    shuffle_read_records: int = 0
    executor_run_s: float = 0.0
    executor_cpu_s: float = 0.0
    gc_s: float = 0.0


def _log_files(log_dir: Path) -> list[Path]:
    files: list[tuple[int, str, Path]] = []
    for p in sorted(log_dir.rglob("*")):
        if not p.is_file() or p.name.startswith((".", "appstatus_")):
            continue  # checksums and the in-progress marker
        if p.suffix in (".zstd", ".lz4", ".snappy", ".lzf"):
            raise ValueError(f"compressed event log {p}; set spark.eventLog.compress=false")
        m = _ROLLED.match(p.name)
        files.append((int(m.group(1)) if m else 0, str(p.parent), p))
    return [p for _, _, p in sorted(files, key=lambda f: (f[1], f[0]))]


def read_events(log_dir: Path) -> Iterator[dict]:
    for path in _log_files(log_dir):
        with open(path) as f:
            for line in f:
                if line.strip():
                    yield json.loads(line)


def group_stats(events) -> dict[str, GroupStats]:
    """Aggregate jobs, stages and task metrics by ``spark.jobGroup.id``.
    Work outside any job group is not counted."""
    out: dict[str, GroupStats] = {}
    stage_group: dict[tuple[int, int], str] = {}
    for e in events:
        kind = e.get("Event")
        if kind == "SparkListenerJobStart":
            g = (e.get("Properties") or {}).get("spark.jobGroup.id")
            if g:
                out.setdefault(g, GroupStats()).jobs += 1
        elif kind == "SparkListenerStageSubmitted":
            g = (e.get("Properties") or {}).get("spark.jobGroup.id")
            info = e["Stage Info"]
            if g:
                stage_group[(info["Stage ID"], info["Stage Attempt ID"])] = g
        elif kind == "SparkListenerStageCompleted":
            info = e["Stage Info"]
            g = stage_group.get((info["Stage ID"], info["Stage Attempt ID"]))
            if g:
                out.setdefault(g, GroupStats()).stages += 1
        elif kind == "SparkListenerTaskEnd":
            g = stage_group.get((e["Stage ID"], e["Stage Attempt ID"]))
            if not g:
                continue
            s = out.setdefault(g, GroupStats())
            s.tasks += 1
            if (e.get("Task End Reason") or {}).get("Reason") != "Success":
                s.failed_tasks += 1
            m = e.get("Task Metrics") or {}
            s.executor_run_s += m.get("Executor Run Time", 0) / 1e3
            s.executor_cpu_s += m.get("Executor CPU Time", 0) / 1e9
            s.gc_s += m.get("JVM GC Time", 0) / 1e3
            s.shuffle_write_bytes += (m.get("Shuffle Write Metrics") or {}).get(
                "Shuffle Bytes Written", 0)
            s.shuffle_read_records += (m.get("Shuffle Read Metrics") or {}).get(
                "Total Records Read", 0)
    return out
