"""Workload inputs, generated from the seed with ``repro.datagen``.

Every input is written to a file in the run's work directory; the
program under test only ever sees these files (and HTTP bodies made from
them).  :func:`digest_inputs` records a SHA-256 digest per file, so two
commits can be shown to have run identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from harness import sha256_file

from repro.datagen import generate_largevocab, generate_reallike
from repro.datagen.reallike import ACTIVITIES
from repro.datagen.task import MatchingTask
from repro.log.csvio import write_csv

#: The 9-event exact class keeps the real-like activities minus two that
#: no pattern uses, so every pair carries all three complex patterns.
EXACT_EVENTS = tuple(a for a in ACTIVITIES if a not in ("Express_Ship", "Check_Inventory"))


@dataclass
class Pair:
    """One log pair and the request made on it."""

    name: str
    path_1: Path
    path_2: Path
    patterns: list[str]
    method: str = "pattern-tight"
    #: ``True`` runs the blocking tier with its defaults (``--blocking``).
    blocking: bool = False
    reference: dict | None = field(default=None, repr=False)


def sub_seed(seed: int, stream: str, index: int) -> int:
    """A deterministic per-input seed derived from the run seed."""
    return random.Random(f"{seed}/{stream}/{index}").randrange(1, 2**31)


def _project(task: MatchingTask, kept) -> MatchingTask:
    kept = set(kept)
    return MatchingTask(
        name=task.name,
        log_1=task.log_1.project_events(kept),
        log_2=task.log_2.project_events({task.truth[e] for e in kept}),
        patterns=tuple(p for p in task.patterns if p.event_set() <= kept),
        truth=task.truth.restrict_sources(kept),
    )


def write_pair(task: MatchingTask, directory: Path, name: str, **request) -> Pair:
    directory.mkdir(parents=True, exist_ok=True)
    path_1, path_2 = directory / f"{name}-1.csv", directory / f"{name}-2.csv"
    write_csv(task.log_1, path_1)
    write_csv(task.log_2, path_2)
    return Pair(name, path_1, path_2, [repr(p) for p in task.patterns], **request)


def exact_pair(directory: Path, seed: int, index: int, traces: int = 500) -> Pair:
    task = generate_reallike(num_traces=traces, seed=sub_seed(seed, "exact", index))
    return write_pair(_project(task, EXACT_EVENTS), directory, f"exact{index:02d}")


def small_pair(directory: Path, seed: int, index: int, traces: int = 3000) -> Pair:
    """The first five activities: the same events, and the billing pattern, on every seed."""
    task = generate_reallike(num_traces=traces, seed=sub_seed(seed, "small", index))
    return write_pair(_project(task, ACTIVITIES[:5]), directory, f"small{index:02d}")


def largevocab_pair(
    directory: Path, seed: int, index: int, families: int = 8, traces: int = 2000
) -> Pair:
    task = generate_largevocab(
        num_families=families,
        roles_per_family=6,
        num_traces=traces,
        seed=sub_seed(seed, "largevocab", index),
        family_chains=True,
        families_per_level=1,
    )
    return write_pair(task, directory, f"lv{index:02d}", blocking=True)


def service_pair(
    directory: Path, seed: int, index: int, method: str, traces: int
) -> Pair:
    task = generate_reallike(num_traces=traces, seed=sub_seed(seed, method, index))
    tag = "tight" if method == "pattern-tight" else "adv"
    return write_pair(task.project_events(5), directory, f"{tag}{index:02d}", method=method)


def session_feed(directory: Path, seed: int, traces: int, events: int = 6):
    """Reference log path, patterns, and two feed phases whose routing differs.

    Both phases rename events identically (the renaming depends on the
    seed only); the second samples department 2 with the routing of
    department 1 (``heterogeneity=0``), so the stream drifts mid-run.
    """
    base = sub_seed(seed, "session", 0)
    before = generate_reallike(num_traces=traces, seed=base).project_events(events)
    after = generate_reallike(
        num_traces=traces, seed=base, heterogeneity=0.0
    ).project_events(events)
    directory.mkdir(parents=True, exist_ok=True)
    reference = directory / "session-ref.csv"
    write_csv(before.log_1, reference)
    phases = []
    for label, task in (("before", before), ("after", after)):
        path = directory / f"session-{label}.csv"
        write_csv(task.log_2, path)
        phases.append(path)
    return reference, [repr(p) for p in before.patterns], phases


def digest_inputs(directory: Path) -> dict[str, str]:
    return {
        path.name: sha256_file(path) for path in sorted(directory.glob("*.csv"))
    }
