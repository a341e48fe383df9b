"""The ``service-mix`` workload: a live ``repro serve --workers 2`` daemon.

One generator process drives the daemon (default flags: 0.5 s tick,
telemetry on) over HTTP in an open loop: a ``light`` then a ``heavy``
phase, each a fixed number of evenly spaced arrivals, so every
percentile keeps its sample count.  Each job is timed from when it was
due to when the generator sees it ``done``; the generator reports how
late it submitted and polls every 50 ms, a tenth of the tick.

Jobs recur over a few registered log pairs: about 70% ``pattern-tight``
on 5 events x 200 traces and 30% ``heuristic-advanced`` on 5 events x
3000 traces.  Meanwhile a live session receives trace batches on a
fixed schedule from a second thread; halfway through, the feed's
routing changes, so drift triggers re-matches inside the daemon.

Every job result is checked against the serial in-process ``match()`` on
the same files, and the session's final mapping against an in-process
replay of the same batches.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

import inputs
from cli_loop import (
    write_digests,
    compute_references,
    import_cost_s,
    layer_means,
    overhead_metrics,
    pair_spec,
    run_traced_child,
)
from harness import HostSpeed, Tally, check_result, children_peak_rss_mb, summarize
from spans import Recorder

#: Arrival rates (jobs/s), set against the saturation rate of this mix:
#: on a 2-core machine latency held steady through a 16 jobs/s phase and
#: grew within a 24 jobs/s phase (p50 1.06 s -> 1.64 s from its first to
#: its second half), so saturation is about 20 jobs/s.  At 12 jobs/s the
#: heavy p50 already swung between 0.9 s and 1.4 s from run to run as the
#: host's speed varied, so ``heavy`` sits at 40% of saturation.
LIGHT_RATE = 3.0
HEAVY_RATE = 8.0
#: Shares of the run time spent in each phase.  At ``--seconds 25`` they
#: give 30 light and 100 heavy arrivals, enough for a p65 and a p90 tail.
LIGHT_SHARE, HEAVY_SHARE = 0.4, 0.5
TIGHT_SHARE = 0.7
POLL_S = 0.05
SESSION_INTERVAL_S = 1.0
SESSION_OPTIONS = {"drift_threshold": 0.05, "min_traces": 20}
#: Daemon set-ups per run, each started and stopped again before the host
#: speed is calibrated (a live daemon would slow the calibration): the
#: first ones before the phases, the rest after.  A separate daemon, whose
#: set-up is not counted, serves the phases.
SETUP_RUNS, SETUP_BEFORE = 9, 5
#: Give up on a job this long after the last arrival was due.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Job:
    due: float
    phase: str
    pair: inputs.Pair
    job_id: str | None = None
    seen_done: float | None = None
    payload: dict = field(default_factory=dict)
    problem: str | None = None


def http_call(port: int, method: str, path: str, body=None, timeout: float = 30.0):
    """``(status, decoded body)``; ``body`` is a dict (JSON) or text (CSV)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if isinstance(body, dict):
            data, kind = json.dumps(body).encode(), "application/json"
        else:
            data, kind = (body or "").encode(), "text/csv"
        connection.request(method, path, body=data if body is not None else None,
                           headers={"Content-Type": kind})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(raw)
    except json.JSONDecodeError:
        return response.status, raw.decode(errors="replace")


class Daemon:
    """One ``repro serve`` process with every workload log registered."""

    def __init__(self, session, index: int, logs: dict[str, Path]):
        self.session = session
        started = time.perf_counter()
        state = session.work / f"state{index}"
        self.stderr_path = session.work / f"daemon{index}.err"
        with open(self.stderr_path, "w") as stderr:
            self.proc = session.popen(
                [sys.executable, "-m", "repro", "serve", str(state), "--port", "0", "--workers", "2"],
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        self.port = self._wait_for_port()
        self._wait_ready()
        for name, path in logs.items():
            status, body = http_call(self.port, "POST", f"/logs/{name}", path.read_text())
            if status != 201:
                raise RuntimeError(f"registering {name} failed: {status} {body}")
        self.setup_s = time.perf_counter() - started

    def _wait_for_port(self) -> int:
        end = time.monotonic() + 60
        while time.monotonic() < end:
            found = re.search(r"serving on \S*:(\d+)", self.stderr_path.read_text())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"daemon did not start: {self.stderr_path.read_text()[-2000:]}")

    def _wait_ready(self) -> None:
        end = time.monotonic() + 60
        while time.monotonic() < end:
            try:
                if http_call(self.port, "GET", "/readyz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never became ready")

    def shutdown(self) -> None:
        """Ask the daemon to stop, give it time to drain, then stop its group."""
        try:
            http_call(self.port, "POST", "/shutdown", {}, timeout=10)
            self.proc.wait(timeout=20)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            pass  # stopped below either way
        self.session.stop(self.proc)


def build_inputs(work: Path, seed: int, smoke: bool):
    data = work / "inputs"
    tight_traces, adv_traces, feed_traces = (60, 300, 120) if smoke else (200, 3000, 660)
    pairs = [inputs.service_pair(data, seed, i, "pattern-tight", tight_traces) for i in range(2 if smoke else 4)]
    pairs += [inputs.service_pair(data, seed, i, "heuristic-advanced", adv_traces) for i in range(1 if smoke else 2)]
    reference, patterns, phases = inputs.session_feed(data, seed, feed_traces)
    logs = {}
    for pair in pairs:
        logs[pair.path_1.stem] = pair.path_1
        logs[pair.path_2.stem] = pair.path_2
    logs["sessionref"] = reference
    return pairs, logs, reference, patterns, phases


def schedule(pairs, seed: int, seconds: float, smoke: bool) -> list[Job]:
    rng = random.Random(f"{seed}/arrivals")
    tight = [p for p in pairs if p.method == "pattern-tight"]
    advanced = [p for p in pairs if p.method != "pattern-tight"]
    light_rate, heavy_rate = (LIGHT_RATE / 2, HEAVY_RATE / 2) if smoke else (LIGHT_RATE, HEAVY_RATE)
    jobs, offset = [], 0.0
    for phase, rate, share in (("light", light_rate, LIGHT_SHARE), ("heavy", heavy_rate, HEAVY_SHARE)):
        count = max(3, round(rate * seconds * share))
        for k in range(count):
            pool = tight if rng.random() < TIGHT_SHARE else advanced
            jobs.append(Job(offset + k / rate, phase, rng.choice(pool)))
        offset += count / rate
    return jobs


def session_batches(phases: list[Path], seconds: float) -> list[list[list[str]]]:
    """Equal batches, one per interval; the routing changes halfway."""
    from repro.log.csvio import read_csv

    count = max(2, int(seconds * (LIGHT_SHARE + HEAVY_SHARE) / SESSION_INTERVAL_S))
    half = count // 2
    batches = []
    for path, number in ((phases[0], half), (phases[1], count - half)):
        traces = [list(map(str, trace)) for trace in read_csv(path)]
        size = len(traces) // max(number, 1)
        batches += [traces[i * size:(i + 1) * size] for i in range(number)]
    return batches


class SessionFeeder(threading.Thread):
    def __init__(self, port: int, batches, start_at: float):
        super().__init__(daemon=True)
        self.port, self.batches, self.start_at = port, batches, start_at
        self.latencies: list[float] = []
        self.problems: list[str] = []
        self.rematches = 0
        self.lock = threading.Lock()

    def run(self) -> None:
        for index, batch in enumerate(self.batches):
            delay = self.start_at + index * SESSION_INTERVAL_S - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            started = time.perf_counter()
            try:
                status, body = http_call(self.port, "POST", "/sessions/live/traces", {"traces": batch}, timeout=60)
            except (OSError, http.client.HTTPException) as error:
                status, body = None, repr(error)
            elapsed = time.perf_counter() - started
            with self.lock:
                self.latencies.append(elapsed)
                if status != 200:
                    self.problems.append(f"session batch {index}: HTTP {status} {body}")
                else:
                    self.rematches += bool(body.get("rematch"))


def drive(session, seed: int, seconds: float, smoke: bool, rec: Recorder):
    """Set up, run both phases and the session, then stop the daemon."""
    pairs, logs, reference, patterns, phases = build_inputs(session.work, seed, smoke)
    speed = HostSpeed()
    setups = []

    def time_setup(index: int) -> None:
        def start_and_stop() -> float:
            daemon = Daemon(session, index, logs)
            daemon.shutdown()
            return daemon.setup_s

        setups.append(speed.run(start_and_stop))

    runs, before = (3, 2) if smoke else (SETUP_RUNS, SETUP_BEFORE)
    for index in range(before):
        time_setup(index)
    daemon = Daemon(session, runs, logs)
    status, body = http_call(daemon.port, "POST", "/sessions", {
        "name": "live", "reference": "sessionref", "patterns": patterns, **SESSION_OPTIONS,
    })
    if status != 201:
        raise RuntimeError(f"opening the session failed: {status} {body}")

    jobs = schedule(pairs, seed, seconds, smoke)
    batches = session_batches(phases, seconds)
    t0 = time.monotonic() + 0.2
    feeder = SessionFeeder(daemon.port, batches, t0)
    feeder.start()
    refused, polls, lateness = 0, [], []
    outstanding: dict[str, Job] = {}
    pending = list(jobs)
    next_poll = t0
    deadline = t0 + jobs[-1].due + DRAIN_TIMEOUT_S
    while pending or outstanding:
        now = time.monotonic()
        while pending and t0 + pending[0].due <= now:
            job = pending.pop(0)
            lateness.append(time.monotonic() - (t0 + job.due))
            body = {"log_1": job.pair.path_1.stem, "log_2": job.pair.path_2.stem,
                    "patterns": job.pair.patterns, "method": job.pair.method}
            try:
                with rec.span("http.submit", phase=job.phase):
                    status, reply = http_call(daemon.port, "POST", "/jobs", body)
            except (OSError, http.client.HTTPException) as error:
                status, reply = None, repr(error)
            if status == 202:
                job.job_id = reply["job_id"]
                outstanding[job.job_id] = job
            else:
                refused += status == 429
                job.problem = f"submit returned HTTP {status}: {reply}"
        if outstanding and now >= next_poll:
            polls.append(now)
            for job_id, job in list(outstanding.items()):
                try:
                    with rec.span("http.poll"):
                        status, reply = http_call(daemon.port, "GET", f"/jobs/{job_id}")
                except (OSError, http.client.HTTPException):
                    continue  # polled again next round; the drain timeout bounds it
                if status != 200:
                    job.problem = f"poll returned HTTP {status}: {reply}"
                    del outstanding[job_id]
                elif reply["state"] in ("done", "failed"):
                    job.seen_done = time.monotonic()
                    job.payload = reply
                    del outstanding[job_id]
            next_poll = now + POLL_S
        if time.monotonic() > deadline:
            for job in outstanding.values():
                job.problem = "timed out waiting for the job"
            break
        wake = min([next_poll] + ([t0 + pending[0].due] if pending else []))
        time.sleep(max(0.0, min(POLL_S, wake - time.monotonic())))
    feeder.join(timeout=120)
    status, served = http_call(daemon.port, "GET", "/sessions/live")
    daemon.shutdown()
    for index in range(before, runs):
        time_setup(index)
    return {
        "pairs": pairs, "jobs": jobs, "t0": t0, "speed": speed,
        "setups": [setup_s * speed.factor for setup_s in setups],
        "refused": refused,
        "lateness": lateness, "polls": polls, "feeder": feeder, "batches": batches,
        "session_status": served if status == 200 else {}, "reference": reference,
        "patterns": patterns,
    }


def check_jobs(session, run: dict, tally: Tally) -> None:
    compute_references(session, run["pairs"])
    for job in run["jobs"]:
        problem = job.problem
        if problem is None:
            if job.payload.get("state") != "done":
                problem = f"job ended {job.payload.get('state')}: {job.payload.get('error')}"
            else:
                result = job.payload["result"]
                problem = check_result(result["mapping"], result["score"], job.pair.reference, 1e-9)
        tally.record(f"{job.phase} job {job.job_id} on {job.pair.name}", problem)
    feeder = run["feeder"]
    for index in range(len(run["batches"])):
        problems = [p for p in feeder.problems if p.startswith(f"session batch {index}:")]
        tally.record(f"session batch {index}", problems[0] if problems else None)


def session_spec(run: dict) -> dict:
    return {
        "reference": str(run["reference"]),
        "patterns": run["patterns"],
        "options": SESSION_OPTIONS,
        "batches": run["batches"],
        "expected_mapping": run["session_status"].get("mapping"),
    }


def check_session(run: dict, tally: Tally) -> None:
    from traced import replay_session

    final, _ = replay_session(session_spec(run), Recorder(enabled=False))
    served = run["session_status"].get("mapping")
    tally.record(
        "session final mapping",
        None if served is not None and final == served
        else f"served mapping {served} differs from the in-process replay {final}",
    )


def latencies(run: dict, phase: str) -> list[float]:
    return [
        job.seen_done - (run["t0"] + job.due)
        for job in run["jobs"] if job.phase == phase and job.seen_done is not None
    ]


def run(session, workload_name: str, seed: int, seconds: float, smoke: bool):
    result = drive(session, seed, seconds, smoke, Recorder(enabled=False))
    write_digests(session, "service-mix", seed)
    tally = Tally()
    check_jobs(session, result, tally)
    check_session(result, tally)

    metrics = {"setup_s": (median(result["setups"]), "s")}
    report = [f"# workload service-mix seed={seed}: {len(result['jobs'])} jobs"]
    for index, phase in enumerate(("light", "heavy"), start=1):
        stats = summarize(latencies(result, phase))
        metrics[f"class{index}.latency_p50_s"] = (stats["p50"], "s")
        metrics[f"class{index}.latency_tail_s"] = (stats["tail"], "s")
        report.append(f"#   class{index}={phase}: n={stats['n']} p50={stats['p50']:.4f}s "
                      f"tail({stats['tail_name']})={stats['tail']:.4f}s")
    heavy = [j for j in result["jobs"] if j.phase == "heavy"]
    done = [j for j in heavy if j.seen_done is not None and j.payload.get("state") == "done"]
    span = max(j.seen_done for j in done) - (result["t0"] + heavy[0].due)
    metrics["throughput_per_s"] = (len(done) / span, "1/s")
    metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    report += describe(result)
    return tally, metrics, report


def describe(result: dict) -> list[str]:
    jobs, feeder = result["jobs"], result["feeder"]
    seen, repeated = set(), 0
    for job in jobs:
        repeated += job.pair.name in seen
        seen.add(job.pair.name)
    cadence = [b - a for a, b in zip(result["polls"], result["polls"][1:])]
    return [
        f"#   repeated-pair share {repeated / len(jobs):.3f} over {len(seen)} pairs; "
        f"tight share {sum(j.pair.method == 'pattern-tight' for j in jobs) / len(jobs):.2f}",
        f"#   generator lateness p50={median(result['lateness']) * 1e3:.2f} ms "
        f"max={max(result['lateness']) * 1e3:.2f} ms; poll cadence p50="
        f"{median(cadence) * 1e3 if cadence else 0:.1f} ms (tick 500 ms)",
        f"#   session: {len(feeder.latencies)} batches, append p50="
        f"{median(feeder.latencies):.4f}s, {feeder.rematches} re-matches; refused {result['refused']}",
        f"#   setup runs (n={len(result['setups'])}, at the nominal host speed) "
        f"{['%.3f' % s for s in result['setups']]}; {result['speed'].describe()}",
    ]


def trace(session, workload_name: str, seed: int, seconds: float, smoke: bool):
    rec = Recorder()
    result = drive(session, seed, seconds, smoke, rec)
    tally = Tally()
    check_jobs(session, result, tally)
    rec.write_chrome(session.out / f"service-mix-seed{seed}.client-trace.json")

    pairs = result["pairs"]
    spec = {
        "requests": [(pair.name, pair_spec(pair)) for pair in pairs],
        "workers": {},
        "rounds": 1 if smoke else 2,
        "pool_workers": 0,
        "jobs": [pair_spec(pair) for pair in pairs],
        "session": session_spec(result),
        "trace": str(session.out / f"service-mix-seed{seed}.trace.json"),
        "work": str(session.work),
    }
    out = run_traced_child(session, spec, "traced")
    for what, problem in out["checks"]:
        tally.record(f"traced replay {what}", problem)

    done = [j for j in result["jobs"] if j.payload.get("state") == "done"]
    # Weight each pair's in-process layers by how often jobs used it.
    rows = [out["rows"][job.pair.name][0] for job in done]
    values = layer_means(rows)
    values.update(overhead_metrics(out["overhead"]))
    values["cli.import_s"] = import_cost_s(session)
    for key in ("service.execute_job_s", "obs.telemetry_tax_s", "obs.spans_per_job",
                "stream.close_trace_s", "stream.update_s", "stream.rematches"):
        values[key] = out[key]

    def wait(job):
        return job.seen_done - (result["t0"] + job.due)

    values["service.http_submit_s"] = _mean_span(rec, "http.submit")
    values["service.http_poll_s"] = _mean_span(rec, "http.poll")
    values["service.queue_wait_s"] = mean(wait(j) - j.payload["elapsed_seconds"] for j in done)
    light = [j for j in done if j.phase == "light"]
    values["service.queue_wait_share"] = mean((wait(j) - j.payload["elapsed_seconds"]) / wait(j) for j in light)
    values["service.attempt_s"] = mean(j.payload["elapsed_seconds"] for j in done)
    values["service.worker_match_s"] = mean(j.payload["result"]["elapsed_seconds"] for j in done)
    values["service.retries"] = sum(j.payload["attempts"] - 1 for j in done)
    values["service.refused"] = result["refused"]
    values["service.session_append_s"] = median(result["feeder"].latencies)
    for index, phase in enumerate(("light", "heavy"), start=1):
        jobs = [j for j in done if j.phase == phase]
        searched = sum(out["rows"][j.pair.name][0]["core.search_s"] for j in jobs)
        values[f"class{index}.search_share"] = searched / sum(wait(j) for j in jobs)
    report = describe(result) + [
        f"# traced service-mix seed={seed}: self time by span "
        f"{json.dumps({k: round(v, 3) for k, v in out['self_time_by_name'].items()})}"
    ]
    return tally, values, report


def _mean_span(rec: Recorder, name: str) -> float:
    durations = [r["end"] - r["start"] for r in rec.spans if r["name"] == name and r["end"] is not None]
    return mean(durations) if durations else 0.0
