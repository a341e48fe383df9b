"""The two closed-loop CLI workloads: ``cli-mix`` and ``largevocab-parallel``.

One client runs ``python -m repro match`` subprocesses back to back,
alternating two request classes over a rotation of seeded pairs, until
the run time is spent and each class has its minimum sample count (20
for cli-mix, enough for a tail percentile; 12 for largevocab-parallel,
whose cold-started ``--workers 2`` requests vary by about 20%).  Set-up
invocations are spread over the run.  Every timing is put at the nominal
host speed (:class:`harness.HostSpeed`).  Every output is checked after
the timed window against the serial in-process ``match()`` on the same
files.

* ``cli-mix``: ``exact`` (pattern-tight, 9 events x 500 traces; search
  is most of the request) and ``small`` (pattern-tight, 5 events x 3000
  traces; interpreter start, import and parsing are most of it).
* ``largevocab-parallel``: plain ``--blocking`` on 48-type family-chain
  pairs (2 x 0.6 MB CSVs, 2000 traces), ``blocked_serial``
  (``--workers 1``) and ``blocked_2w`` (``--workers 2``, warm pool + shm
  transport).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import inputs
from harness import (
    CLI_SCORE_TOLERANCE,
    HostSpeed,
    Tally,
    check_result,
    children_peak_rss_mb,
    parse_cli_match,
    summarize,
)

REQUEST_TIMEOUT_S = 120.0
#: Child processes that compute the reference results at once, one per
#: core of the 2-core hosts this runs on.  They run after the timed
#: window, so they only shorten the run.
REFERENCE_PROCESSES = 2


@dataclass
class RequestClass:
    name: str
    pairs: list
    workers: int = 1


@dataclass
class Workload:
    classes: list  # [RequestClass, RequestClass]
    min_samples: int
    replay_per_class: int
    #: Index of the class whose first invocations time the set-up: the
    #: one whose request cost depends least on the seed.
    setup_class: int
    #: Set-up invocations per run, spread over the run so that they see
    #: the same host as the requests; ``setup_s`` is their median.
    setup_runs: int = 9


def build(name: str, work: Path, seed: int, smoke: bool) -> Workload:
    data = work / "inputs"
    if name == "cli-mix":
        if smoke:
            exact = [inputs.exact_pair(data, seed, i, traces=60) for i in range(2)]
            small = [inputs.small_pair(data, seed, i, traces=200) for i in range(1)]
            return Workload([RequestClass("exact", exact), RequestClass("small", small)], 3, 1, 1, 2)
        exact = [inputs.exact_pair(data, seed, i) for i in range(20)]
        small = [inputs.small_pair(data, seed, i) for i in range(4)]
        return Workload([RequestClass("exact", exact), RequestClass("small", small)], 20, 6, 1)
    if smoke:
        pairs = [inputs.largevocab_pair(data, seed, 0, families=4, traces=400)]
        return Workload(
            [RequestClass("blocked_serial", pairs, 1), RequestClass("blocked_2w", pairs, 2)],
            2, 1, 0, 2,
        )
    # One pair per request of a class: the median then spans twelve
    # pairs, not the three or four a few pairs would give.
    pairs = [inputs.largevocab_pair(data, seed, i) for i in range(12)]
    return Workload(
        [RequestClass("blocked_serial", pairs, 1), RequestClass("blocked_2w", pairs, 2)],
        12, 4, 0,
    )


def argv(session, pair, workers: int) -> list[str]:
    command = [
        sys.executable, "-m", "repro", "match", str(pair.path_1), str(pair.path_2),
        "--method", pair.method, "--workers", str(workers),
    ]
    for text in pair.patterns:
        command += ["--pattern", text]
    if pair.blocking:
        command.append("--blocking")
    return command


def compute_references(session, pairs) -> None:
    """Serial in-process ``match()`` on the same files, once per pair.

    The pairs are shared out over ``REFERENCE_PROCESSES`` children of
    ``session`` (``reference.py``), each matching its share serially.
    """
    todo = list({id(pair): pair for pair in pairs if pair.reference is None}.values())
    script = str(Path(__file__).resolve().parent / "reference.py")
    children = []
    for index in range(min(REFERENCE_PROCESSES, len(todo))):
        share = todo[index::REFERENCE_PROCESSES]
        spec_path = session.work / f"reference{index}.spec.json"
        out_path = session.work / f"reference{index}.out.json"
        spec_path.write_text(json.dumps([pair_spec(pair) for pair in share]))
        proc = session.popen(
            [sys.executable, script, str(spec_path), str(out_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        children.append((proc, share, out_path))
    for proc, share, out_path in children:
        _, err = proc.communicate(timeout=REQUEST_TIMEOUT_S * len(share))
        session.stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"reference match failed (exit {proc.returncode}): {err[-2000:]}")
        for pair, reference in zip(share, json.loads(out_path.read_text())):
            pair.reference = reference


def timed_request(session, pair, workers: int):
    started = time.perf_counter()
    code, out, err = session.run(argv(session, pair, workers), timeout=REQUEST_TIMEOUT_S)
    return time.perf_counter() - started, code, out, err


def check_request(tally: Tally, what: str, pair, code, out, err) -> None:
    if code is None:
        problem = f"timed out after {REQUEST_TIMEOUT_S:.0f} s"
    elif code != 0:
        problem = f"exit code {code}: {err.strip().splitlines()[-1:] }"
    else:
        try:
            mapping, score = parse_cli_match(out)
        except (StopIteration, ValueError) as error:
            problem = f"unparseable output ({error})"
        else:
            problem = check_result(mapping, score, pair.reference, CLI_SCORE_TOLERANCE)
    tally.record(what, problem)


def run(session, workload_name: str, seed: int, seconds: float, smoke: bool):
    workload = build(workload_name, session.work, seed, smoke)
    digest = write_digests(session, workload_name, seed)
    first = workload.classes[workload.setup_class]
    setup_every = max(1, workload.min_samples // workload.setup_runs)
    speed = HostSpeed()
    setup, done = [], []

    def timed(what: str, pair, workers: int) -> float:
        """One request's wall time; its output is kept for checking."""
        elapsed, code, out, err = speed.run(lambda: timed_request(session, pair, workers))
        done.append((what, pair, code, out, err))
        return elapsed

    # Set-up: the first invocation (cold caches, bytecode, pool) and more
    # of them spread over the run.
    samples = {cls.name: [] for cls in workload.classes}
    counts = {cls.name: 0 for cls in workload.classes}
    started = time.perf_counter()
    for iteration in itertools.count():
        if len(setup) < workload.setup_runs and iteration % setup_every == 0:
            setup.append(timed(f"setup/{first.name}", first.pairs[0], first.workers))
        for cls in workload.classes:
            pair = cls.pairs[counts[cls.name] % len(cls.pairs)]
            counts[cls.name] += 1
            samples[cls.name].append(timed(f"{cls.name}/{pair.name}", pair, cls.workers))
        window = time.perf_counter() - started
        if (
            window >= seconds
            and len(setup) >= workload.setup_runs
            and all(len(v) >= workload.min_samples for v in samples.values())
        ):
            break

    compute_references(session, (pair for _, pair, *_ in done))
    tally = Tally()
    for what, pair, code, out, err in done:
        check_request(tally, what, pair, code, out, err)

    factor = speed.factor
    metrics = {"setup_s": (median(setup) * factor, "s")}
    report = [f"# workload {workload_name} seed={seed}: {len(done)} requests, "
              f"window {window:.2f} s, inputs sha256 {digest}",
              f"#   {speed.describe()}; timings below are at the nominal speed"]
    for index, cls in enumerate(workload.classes, start=1):
        stats = summarize([elapsed * factor for elapsed in samples[cls.name]])
        metrics[f"class{index}.latency_p50_s"] = (stats["p50"], "s")
        metrics[f"class{index}.latency_tail_s"] = (stats["tail"], "s")
        report.append(
            f"#   class{index}={cls.name}: n={stats['n']} p50={stats['p50']:.4f}s "
            f"tail({stats['tail_name']})={stats['tail']:.4f}s"
        )
    # One closed-loop client: requests per second of request time.
    measured = [s for v in samples.values() for s in v]
    metrics["throughput_per_s"] = (len(measured) / (sum(measured) * factor), "1/s")
    metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    report.append(f"#   setup runs (n={len(setup)}) {['%.3f' % (s * factor) for s in setup]}")
    return tally, metrics, report


def write_digests(session, workload_name: str, seed: int) -> str:
    """Record the SHA-256 of every input file; returns their combined digest."""
    digests = inputs.digest_inputs(session.work / "inputs")
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    path = session.out / f"{workload_name}-seed{seed}.inputs.json"
    path.write_text(json.dumps({"combined": combined, "files": digests}, indent=1))
    return combined


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def pair_spec(pair) -> dict:
    return {
        "name": pair.name,
        "path_1": str(pair.path_1),
        "path_2": str(pair.path_2),
        "patterns": pair.patterns,
        "method": pair.method,
        "blocking": pair.blocking,
        "reference": pair.reference,
    }


def run_traced_child(session, spec: dict, label: str) -> dict:
    spec_path = session.work / f"{label}.spec.json"
    out_path = session.work / f"{label}.out.json"
    spec_path.write_text(json.dumps(spec))
    script = str(Path(__file__).resolve().parent / "traced.py")
    code, out, err = session.run([sys.executable, script, str(spec_path), str(out_path)], timeout=150)
    if code != 0:
        raise RuntimeError(f"traced replay failed (exit {code}): {err[-2000:]}")
    return json.loads(out_path.read_text())


def import_cost_s(session, repeats: int = 5) -> float:
    """``import repro.cli`` minus bare interpreter start, medians."""
    bare, full = [], []
    for _ in range(repeats):
        for sink, code in ((bare, "pass"), (full, "import repro.cli")):
            started = time.perf_counter()
            session.run([sys.executable, "-c", code], timeout=60)
            sink.append(time.perf_counter() - started)
    return median(full) - median(bare)


def layer_means(rows: list[dict]) -> dict:
    keys = [k for k in rows[0] if k != "request_s"]
    return {key: mean(row[key] for row in rows) for key in keys}


def share(rows: list[dict], key: str) -> float:
    return sum(r[key] for r in rows) / max(1e-12, sum(r["request_s"] for r in rows))


def overhead_metrics(pairs: list) -> dict:
    """Tracing overhead from (traced, untraced) request times."""
    return {
        "trace.overhead_s": mean(t - u for t, u in pairs),
        "trace.overhead_share": sum(t - u for t, u in pairs) / sum(u for _, u in pairs),
    }


def trace(session, workload_name: str, seed: int, seconds: float, smoke: bool):
    workload = build(workload_name, session.work, seed, smoke)
    requests = []
    for index in range(workload.replay_per_class):
        for cls in workload.classes:
            requests.append((cls, cls.pairs[index % len(cls.pairs)]))
    compute_references(session, (pair for _, pair in requests))
    pool_workers = max(cls.workers for cls in workload.classes)
    spec = {
        "requests": [(cls.name, pair_spec(pair)) for cls, pair in requests],
        "workers": {cls.name: cls.workers for cls in workload.classes},
        "rounds": 1,
        "pool_workers": pool_workers if pool_workers > 1 else 0,
        "trace": str(session.out / f"{workload_name}-seed{seed}.trace.json"),
        "work": str(session.work),
    }
    out = run_traced_child(session, spec, "traced")
    tally = Tally()
    for what, problem in out["checks"]:
        tally.record(f"traced replay {what}", problem)

    rows = [row for cls in workload.classes for row in out["rows"][cls.name]]
    values = layer_means(rows)
    values["cli.import_s"] = import_cost_s(session)
    for index, cls in enumerate(workload.classes, start=1):
        values[f"class{index}.search_share"] = share(out["rows"][cls.name], "core.search_s")
    values.update(overhead_metrics(out["overhead"]))
    serial, parallel = (out["rows"][cls.name] for cls in workload.classes)
    values["parallel.pool_start_s"] = out.get("parallel.pool_start_s", 0.0)
    values["parallel.overhead_s"] = (
        mean(r["request_s"] for r in parallel) - mean(r["request_s"] for r in serial)
        if workload.classes[1].workers > 1 else 0.0
    )
    report = [f"# traced {workload_name} seed={seed}: {len(rows)} replayed requests; "
              f"self time by span {json.dumps({k: round(v, 3) for k, v in out['self_time_by_name'].items()})}"]
    return tally, values, report
