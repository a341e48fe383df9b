"""Self-test of the benchmark: ``python3 e2ebench/selftest.py`` (checkout root).

* Runs every workload at smoke size, untraced and traced, and checks the
  result line: exactly the declared metrics of ``BENCHMARK.json``, each
  with its unit, a finite value, zero failed operations.
* Checks that the result checker rejects a deliberately wrong mapping
  and a wrong score.
* Interrupts runs with SIGTERM, SIGINT, SIGALRM (the deadline path) and
  SIGKILL (cleaned up by the watchdog), and checks that no result is
  printed for them.
* After every invocation, checks that no descendant process and no
  shared-memory segment survives, and that the work directory is gone.
* Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
  the benchmark, where it must fail without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

ROOT = Path.cwd()
RUN = [sys.executable, str(HERE / "run.py")]
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def start(args: list[str], cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        RUN + args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def no_leftovers(label: str, shm_before: set[str], settle_s: float = 10.0) -> None:
    """Every descendant gone (orphans re-parent to us), no new segment, no work dir."""
    work = ROOT / harness.WORK_ROOT
    end = time.monotonic() + settle_s
    while (harness.child_pids() or work.is_dir()) and time.monotonic() < end:
        harness.reap_orphans()
        time.sleep(0.1)
    survivors = harness.child_pids()
    expect(not survivors, f"{label}: no surviving process (found {survivors})")
    harness.reap_descendants()
    leaked = {s for s in harness.shm_segments() - shm_before if s.startswith("psm_")}
    expect(not leaked, f"{label}: no surviving shm segment (found {sorted(leaked)})")
    left = sorted(p.name for p in work.iterdir()) if work.is_dir() else []
    expect(not left, f"{label}: work directory removed (found {left})")


def check_result_line(label: str, stdout: str, declared: dict[str, str]) -> None:
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{label}: last stdout line is a JSON object")
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result has exactly correct/attempted/failed/metrics")
    expect(result.get("correct") is True and result.get("failed") == 0
           and isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{label}: correct with zero failed of {result.get('attempted')} attempted")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(declared),
           f"{label}: emits exactly the declared metrics "
           f"(missing {sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))})")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            expect(False, f"{label}: {name} has unit {unit} and a finite value ({entry})")


def smoke_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (0, 1):
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
            label = f"{workload} trace={traced}"
            shm_before = harness.shm_segments()
            proc = start(["--workload", workload, "--seed", "7", "--seconds", "2",
                          "--trace", str(traced), "--smoke"])
            out, err = proc.communicate(timeout=300)
            expect(proc.returncode == 0, f"{label}: exit code 0 (got {proc.returncode}; {err[-500:]})")
            check_result_line(label, out, declared)
            no_leftovers(label, shm_before)


def checker_rejects_wrong_mapping() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import match
    from repro.datagen import generate_reallike

    task = generate_reallike(num_traces=80, seed=3).project_events(5)
    reference = harness.reference_of(match(task.log_1, task.log_2, patterns=task.patterns))
    expect(harness.check_result(dict(reference["mapping"]), reference["score"], reference, 1e-9) is None,
           "checker accepts the reference itself")
    wrong = dict(reference["mapping"])
    first, second = sorted(wrong)[:2]
    wrong[first], wrong[second] = wrong[second], wrong[first]
    expect(harness.check_result(wrong, reference["score"], reference, 1e-9) is not None,
           "checker rejects a mapping with two targets swapped")
    expect(harness.check_result(reference["mapping"], reference["score"] + 1e-3, reference,
                                harness.CLI_SCORE_TOLERANCE) is not None,
           "checker rejects a wrong score")
    text = "# method=pattern-tight score={:.4f} time=0.01s processed=1\n".format(reference["score"])
    text += "".join(f"{s}\t{t}\n" for s, t in sorted(wrong.items()))
    mapping, score = harness.parse_cli_match(text)
    expect(harness.check_result(mapping, score, reference, harness.CLI_SCORE_TOLERANCE) is not None,
           "checker rejects a wrong mapping printed by the CLI")


def interrupted_runs() -> None:
    cases = (
        ("service-mix", signal.SIGTERM, 6.0),
        ("cli-mix", signal.SIGINT, 3.0),
        ("largevocab-parallel", signal.SIGALRM, 4.0),
        ("largevocab-parallel", signal.SIGKILL, 4.0),
        ("service-mix", signal.SIGKILL, 6.0),
    )
    for workload, sig, after in cases:
        label = f"{workload} killed by {sig.name}"
        shm_before = harness.shm_segments()
        proc = start(["--workload", workload, "--seed", "5", "--seconds", "60", "--trace", "0", "--smoke"])
        time.sleep(after)
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=120)
        expect(proc.returncode != 0, f"{label}: non-zero exit ({proc.returncode})")
        expect(not out.strip(), f"{label}: no result printed")
        # After SIGKILL the benchmark's watchdog does the cleanup.
        no_leftovers(label, shm_before)


def bare_directory_fails() -> None:
    bare = ROOT / harness.WORK_ROOT / f"selftest-bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "cli-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: fails without a result (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (ROOT / harness.WORK_ROOT).rmdir()
        except OSError:
            pass


def main() -> int:
    harness.make_subreaper()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checker_rejects_wrong_mapping()
    bare_directory_fails()
    smoke_runs(spec)
    interrupted_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
