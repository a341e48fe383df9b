"""The in-process traced replay: ``python3 e2ebench/traced.py SPEC OUT``.

Runs in a child process of the benchmark (its own session, so the warm
pool's workers and resource tracker die with it).  It replays the
workload's request pipelines on the same input files twice, interleaved
per request: once plain (the untraced timing) and once with the
benchmark's spans wrapped around the program's public functions.  The
difference is the tracing overhead.  Per-layer figures are means per
request; the spans are written as a Chrome trace to ``SPEC["trace"]``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from statistics import mean

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import check_result, reference_of  # noqa: E402
from spans import Recorder  # noqa: E402


def install_wrappers(rec: Recorder) -> list:
    """Wrap each layer's public entry points; returns undo callables."""
    import repro.blocking
    import repro.blocking.plan
    import repro.blocking.tiered
    import repro.parallel.pool
    from repro.core.astar import AStarMatcher
    from repro.core.matcher import EventMatcher
    from repro.core.scoring import ScoreModel
    from repro.stream.engine import OnlineMatcher
    from repro.stream.ingest import StreamingLog

    span, acc = rec.wrap_span, rec.wrap_method
    return [
        span(EventMatcher, "full_pattern_set", "core.pattern_set"),
        span(ScoreModel, "__init__", "core.score_model"),
        span(AStarMatcher, "match", "core.search"),
        acc(ScoreModel, "h", "core.h"),
        acc(ScoreModel, "g_increment", "core.g"),
        span(repro.blocking.plan, "compute_signals", "blocking.signals"),
        span(repro.blocking.tiered, "build_plan", "blocking.plan"),
        # ``EventMatcher`` imports ``tiered_match`` from the package lazily.
        span(repro.blocking, "tiered_match", "blocking.tiered"),
        span(repro.parallel.pool, "get_warm_pool", "parallel.get_warm_pool"),
        acc(repro.parallel.pool.WarmPool, "submit", "parallel.submit"),
        acc(StreamingLog, "close_trace", "stream.close_trace"),
        span(OnlineMatcher, "update", "stream.update"),
    ]


def run_request(pair: dict, workers: int = 1, span=Recorder(enabled=False).span):
    """The pipeline ``repro match`` runs: parse both files, then match."""
    from repro import match
    from repro.log.csvio import read_csv
    from repro.patterns.parser import parse_pattern

    with span("log.read_csv"):
        log_1 = read_csv(pair["path_1"], name=Path(pair["path_1"]).stem)
        log_2 = read_csv(pair["path_2"], name=Path(pair["path_2"]).stem)
    with span("match"):
        return match(
            log_1,
            log_2,
            patterns=[parse_pattern(text) for text in pair["patterns"]],
            method=pair["method"],
            blocking=pair["blocking"],
            workers=workers,
        )


def request_layers(rec: Recorder, rid: str, result, nbytes: int) -> dict:
    """Per-layer figures of one traced request."""
    stats = result.stats
    spans = {
        name: rec.durations(name).get(rid, 0.0)
        for name in (
            "request", "log.read_csv", "core.pattern_set", "core.score_model",
            "core.search", "blocking.signals", "blocking.plan", "blocking.tiered",
        )
    }
    totals = rec.totals.get(rid, {})
    h_s, h_calls = totals.get("core.h", (0.0, 0))
    g_s, g_calls = totals.get("core.g", (0.0, 0))
    automaton = stats.automaton_hits + stats.automaton_builds
    return {
        "request_s": spans["request"],
        "log.read_csv_s": spans["log.read_csv"],
        "log.bytes_read": nbytes,
        "core.model_build_s": spans["core.pattern_set"] + spans["core.score_model"],
        "core.search_s": spans["core.search"],
        "core.h_s": h_s,
        "core.h_calls": h_calls,
        "core.g_s": g_s,
        "core.g_calls": g_calls,
        "core.frontier_self_s": max(0.0, spans["core.search"] - h_s - g_s),
        "core.expanded_nodes": stats.expanded_nodes,
        "core.processed_mappings": stats.processed_mappings,
        "core.bound_pruned_ratio": stats.pruned_by_bound / max(1, stats.processed_mappings),
        "kernel.frequency_evaluations": stats.frequency_evaluations,
        "kernel.trace_cells_scanned": stats.trace_cells_scanned,
        "kernel.automaton_hit_ratio": stats.automaton_hits / automaton if automaton else 0.0,
        "kernel.bitset_ops": stats.bitset_intersections,
        "blocking.signals_s": spans["blocking.signals"],
        "blocking.plan_s": spans["blocking.plan"],
        "blocking.tiered_s": spans["blocking.tiered"],
        "blocking.blocks": stats.blocking_blocks,
        "blocking.escalated": stats.blocking_escalated,
        "blocking.pairs_considered_ratio": (
            stats.blocking_pairs_considered / stats.blocking_pairs_total
            if stats.blocking_pairs_total else 0.0
        ),
        "parallel.chunks": totals.get("parallel.submit", (0.0, 0))[1]
        + stats.extra.get("parallel_chunks", 0),
        "parallel.steals": stats.extra.get("parallel_steals", 0),
        "parallel.model_cache_hits": stats.extra.get("parallel_model_cache_hits", 0),
    }


def replay_requests(spec: dict, rec: Recorder, checks: list) -> tuple[dict, dict]:
    """Replay every request class; returns (per-class rows, overhead rows).

    Appends one ``[request id, problem or None]`` per request to ``checks``.
    """
    rows: dict[str, list[dict]] = {}
    overhead: list[tuple[float, float]] = []
    for round_index in range(spec["rounds"]):
        for cls, pair in spec["requests"]:
            workers = spec["workers"].get(cls, 1)
            rid = f"{cls}/{pair['name']}/{round_index}"
            # Alternate which run goes first: the second run of a pair
            # finds the worker-side caches warm.
            for traced_turn in (False, True) if len(overhead) % 2 == 0 else (True, False):
                if traced_turn:
                    undo = install_wrappers(rec)
                    try:
                        with rec.request(rid, cls=cls, pair=pair["name"]):
                            traced = run_request(pair, workers, rec.span)
                    finally:
                        for restore in reversed(undo):
                            restore()
                else:
                    started = time.perf_counter()
                    plain = run_request(pair, workers)
                    plain_s = time.perf_counter() - started
            problems = [
                check_result(own["mapping"], own["score"], pair["reference"], 0.0)
                for own in (reference_of(plain), reference_of(traced))
            ]
            checks.append([rid, next((p for p in problems if p), None)])
            nbytes = sum(Path(pair[k]).stat().st_size for k in ("path_1", "path_2"))
            row = request_layers(rec, rid, traced, nbytes)
            rows.setdefault(cls, []).append(row)
            overhead.append((row["request_s"], plain_s))
    return rows, overhead


def pool_start_s(workers: int) -> float:
    """First ``get_warm_pool`` until every worker has answered once.

    The executor starts its workers on the first submission, so one
    trivial task per worker is part of the start.
    """
    import os

    from repro.parallel.pool import close_warm_pool, get_warm_pool

    close_warm_pool()
    started = time.perf_counter()
    pool = get_warm_pool(workers)
    for future in [pool.submit(os.getpid) for _ in range(workers)]:
        future.result()
    return time.perf_counter() - started


def telemetry_tax(spec: dict, work: Path) -> dict:
    """``execute_match_job`` with and without the telemetry payload."""
    from repro.service.workers import execute_match_job

    plain_s, traced_s, spans = [], [], []
    for index, pair in enumerate(spec["jobs"] * spec["rounds"]):
        payload = {
            "paths": (pair["path_1"], pair["path_2"]),
            "patterns": pair["patterns"],
            "method": pair["method"],
            "node_budget": None, "time_budget": None, "strict": False,
            "degraded_fallback": None, "workers": 1, "deadline": None,
        }
        telemetry = {
            "spool_dir": str(work / "spools"), "trace_id": f"bench{index:08d}",
            "job_id": f"bench-{index}", "attempt": 1, "profile": False,
        }
        started = time.perf_counter()
        execute_match_job(dict(payload))
        plain_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        result = execute_match_job(dict(payload, telemetry=telemetry))
        traced_s.append(time.perf_counter() - started)
        spans.append(result["telemetry"]["spans"])
    return {
        "service.execute_job_s": mean(plain_s),
        "obs.telemetry_tax_s": mean(traced_s) - mean(plain_s),
        "obs.spans_per_job": mean(spans),
    }


def replay_session(session: dict, rec: Recorder):
    """The served session's batches through StreamingLog + OnlineMatcher.

    Returns ``(final mapping, re-match count)``.
    """
    from repro.log.csvio import read_csv
    from repro.patterns.parser import parse_pattern
    from repro.resilience.validation import TraceValidator
    from repro.stream.engine import OnlineMatcher
    from repro.stream.ingest import StreamingLog

    reference = read_csv(session["reference"], name="session-ref")
    stream = StreamingLog(name="session", validator=TraceValidator())
    engine = OnlineMatcher(
        reference, stream,
        patterns=[parse_pattern(text) for text in session["patterns"]],
        **session["options"],
    )
    rematches = 0
    for index, batch in enumerate(session["batches"]):
        with rec.request(f"session/{index}", "session.append"):
            for offset, trace in enumerate(batch):
                case = f"c{index}-{offset}"
                for event in trace:
                    stream.append_event(case, event)
                stream.close_trace(case)
            rematches += engine.update().rematched
    mapping = engine.mapping
    final = None if mapping is None else {str(s): str(t) for s, t in mapping.as_dict().items()}
    return final, rematches


def stream_layers(spec: dict, rec: Recorder, checks: list) -> dict:
    session = spec["session"]
    undo = install_wrappers(rec)
    try:
        final, rematches = replay_session(session, rec)
    finally:
        for restore in reversed(undo):
            restore()
    checks.append([
        "session replay",
        None if final == session["expected_mapping"]
        else "final mapping differs from the served session",
    ])
    ids = [f"session/{i}" for i in range(len(session["batches"]))]
    return {
        "stream.close_trace_s": mean(rec.totals[r]["stream.close_trace"][0] for r in ids),
        "stream.update_s": mean(rec.durations("stream.update").get(r, 0.0) for r in ids),
        "stream.rematches": rematches,
    }


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    rec = Recorder()
    checks: list[list] = []
    out: dict = {}
    from repro.parallel.pool import close_warm_pool

    try:
        if spec.get("pool_workers"):
            out["parallel.pool_start_s"] = pool_start_s(spec["pool_workers"])
        rows, overhead = replay_requests(spec, rec, checks)
        out["rows"] = rows
        out["overhead"] = overhead
        if spec.get("jobs"):
            out.update(telemetry_tax(spec, Path(spec["work"])))
        if spec.get("session"):
            out.update(stream_layers(spec, rec, checks))
    finally:
        close_warm_pool()
    out["checks"] = checks
    out["self_time_by_name"] = rec.self_time_by_name()
    rec.write_chrome(Path(spec["trace"]))
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
