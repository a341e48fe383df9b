"""Process hygiene, statistics, result checking and output for the benchmark.

Every process of the program under test is started through
:meth:`Session.popen`: in its own session (so one ``killpg`` reaches the
whole tree, pool workers and resource tracker included), with
``PR_SET_PDEATHSIG`` so it dies if the benchmark itself is killed, and
with ``TMPDIR`` pointing into the run's work directory so the program's
shared-memory ledger and temporary files stay inside the checkout.  A
watchdog process (``watchdog.py``) learns every process group and cleans
up if the benchmark is killed outright.

The benchmark process makes itself a child subreaper, so an orphaned
grandchild is re-parented to it and can be found and reaped.
:meth:`Session.close` runs on every exit path (success, failed check,
exception, timeout, SIGINT/SIGTERM): it terminates, kills and reaps
every process, unlinks every shared-memory segment the program's ledger
still lists as live, and removes the work directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
SHM_DIR = Path("/dev/shm")
#: Work directories live here, one per run, removed when the run ends.
WORK_ROOT = ".e2ebench_work"
#: Chrome traces and input digests of past runs (kept for inspection).
OUT_ROOT = ".e2ebench_out"
#: Wall-clock limit of one invocation before cleanup starts; a run must
#: end within 180 s and the cleanup may take several seconds.
DEADLINE_S = 150.0


class BenchInterrupted(Exception):
    """SIGINT/SIGTERM/SIGHUP or the wall-clock deadline arrived."""


def _libc():
    return ctypes.CDLL(None, use_errno=True)


#: Signals that interrupt a run; blocked while a child is being started.
INTERRUPTS = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP, signal.SIGALRM)


def _child_setup() -> None:  # runs in the child between fork and exec
    signal.pthread_sigmask(signal.SIG_UNBLOCK, INTERRUPTS)
    _libc().prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def make_subreaper() -> None:
    _libc().prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def ledger_live_segments(tmp_dir: Path) -> set[str]:
    """Segments the program's shm ledger(s) under ``tmp_dir`` list as live."""
    live: set[str] = set()
    for ledger in tmp_dir.glob("repro-shm-registry-*.jsonl"):
        for line in ledger.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail
            if record.get("op") == "add":
                live.add(record["name"])
            elif record.get("op") == "del":
                live.discard(record["name"])
    return live


def unlink_segments(names) -> int:
    removed = 0
    for name in names:
        try:
            (SHM_DIR / name).unlink()
            removed += 1
        except FileNotFoundError:
            pass
    return removed


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _raise_interrupt(signum, _frame):
    raise BenchInterrupted(f"received {signal.Signals(signum).name}")


def _raise_deadline(_signum, _frame):
    raise BenchInterrupted(f"wall-clock deadline of {DEADLINE_S:.0f} s reached")


class Session:
    """Owns one benchmark invocation's processes, files and deadline."""

    def __init__(self, root: Path, label: str):
        self.root = root
        self.work = root / WORK_ROOT / f"{label}-{os.getpid()}"
        self.out = root / OUT_ROOT
        self.tmp = self.work / "tmp"
        self.procs: list[subprocess.Popen] = []
        self.cleanup_report: dict = {}

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Session":
        make_subreaper()
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, _raise_interrupt)
        signal.signal(signal.SIGALRM, _raise_deadline)
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        reap_stale_work_dirs(self.root)
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.watchdog = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("watchdog.py")), str(self.work)],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        # Nothing may interrupt the cleanup itself.
        signal.setitimer(signal.ITIMER_REAL, 0)
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        for proc in list(self.procs):
            self.stop(proc)
        try:
            self.watchdog.stdin.write("done\n")
            self.watchdog.stdin.close()
        except OSError:
            pass  # it died; everything it would have done is done below
        self.watchdog.wait()
        orphans = reap_descendants()
        segments = unlink_segments(ledger_live_segments(self.tmp))
        shutil.rmtree(self.work, ignore_errors=True)
        _remove_if_empty(self.root / WORK_ROOT)
        self.cleanup_report = {"orphans_killed": orphans, "segments_unlinked": segments}
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, signal.SIG_DFL)

    # -- processes --------------------------------------------------------
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.tmp)
        return env

    def popen(self, argv: list[str], **kwargs) -> subprocess.Popen:
        """Start a program process in its own session and track it.

        Interrupts are held off until the process is tracked, so a
        signal can never leave a started child unknown to the cleanup;
        the watchdog learns its group too.
        """
        kwargs.setdefault("stdin", subprocess.DEVNULL)
        signal.pthread_sigmask(signal.SIG_BLOCK, INTERRUPTS)
        try:
            proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=self.env(),
                start_new_session=True,
                preexec_fn=_child_setup,
                **kwargs,
            )
            self.procs.append(proc)
            self.watchdog.stdin.write(f"{proc.pid}\n")
            self.watchdog.stdin.flush()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, INTERRUPTS)
        return proc

    def run(self, argv: list[str], timeout: float) -> tuple[int | None, str, str]:
        """Run to completion; ``(returncode or None on timeout, out, err)``."""
        proc = self.popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(proc)
            out, err = proc.communicate()
            return None, out, err
        self.stop(proc)  # the group may still hold stragglers
        return proc.returncode, out, err

    def stop(self, proc: subprocess.Popen) -> None:
        """Stop ``proc``'s whole process group and forget it."""
        others = [p.pid for p in self.procs if p is not proc and p.returncode is None]
        stop_process(proc, keep=others)
        self.procs.remove(proc)


def _proc_stat(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command: state, ppid, pgid, ...
    return stat[stat.rfind(")") + 2:].split()


def _processes():
    """``(pid, state, ppid, pgid)`` of every process."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(entry)
            if fields is not None:
                yield int(entry), fields[0], int(fields[1]), int(fields[2])


def child_pids() -> list[int]:
    """Live (non-zombie) direct children of this process."""
    return [
        pid for pid, state, ppid, _ in _processes()
        if ppid == os.getpid() and state != "Z"
    ]


def reap_orphans(keep=()) -> None:
    """Reap zombie children that no ``Popen`` object owns.

    ``waitpid(-1)`` would also reap a child a ``Popen`` still tracks and
    make it report exit code 0, so zombies are reaped by pid.
    """
    keep = set(keep)
    for pid, state, ppid, _ in _processes():
        if ppid == os.getpid() and state == "Z" and pid not in keep:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


def _group_alive(pgid: int) -> bool:
    return any(
        group == pgid and state != "Z" for _, state, _, group in _processes()
    )


def stop_process(proc: subprocess.Popen, keep=(), grace: float = 5.0) -> None:
    """Terminate the process group of ``proc``, kill it if needed, reap it.

    ``keep`` lists pids of other live ``Popen`` children, which must not
    be reaped behind their owners' backs.
    """
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        end = time.monotonic() + grace
        while time.monotonic() < end:
            if proc.poll() is not None:
                reap_orphans(keep)
                if not _group_alive(proc.pid):
                    return
            time.sleep(0.02)
    proc.wait()


def reap_descendants(timeout: float = 10.0) -> int:
    """Kill and reap every remaining child (orphans re-parent to us)."""
    killed = 0
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        reap_orphans()
        pids = child_pids()
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                killed += 1
            except ProcessLookupError:
                pass
        time.sleep(0.05)
    reap_orphans()
    return killed


def reap_stale_work_dirs(root: Path) -> None:
    """Remove work dirs of benchmark runs that died without cleaning up."""
    base = root / WORK_ROOT
    if not base.is_dir():
        return
    for work in base.iterdir():
        pid = work.name.rsplit("-", 1)[-1]
        if pid.isdigit() and _pid_alive(int(pid)):
            continue
        unlink_segments(ledger_live_segments(work / "tmp"))
        shutil.rmtree(work, ignore_errors=True)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped child process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: What :func:`calibration_s` takes at the nominal host speed (measured on
#: a 2-core x86-64 VM with Python 3.11 in a quiet period).
CALIBRATION_NOMINAL_S = 0.02


def calibration_s() -> float:
    """Wall time of a fixed piece of pure-Python work (dict updates, a sort)."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(150_000):
        key = i * 2654435761 % 4093
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - started


class HostSpeed:
    """Puts CPU-bound timings at the nominal host speed.

    The cores of a shared host also run other tenants' work, so its speed
    drifts: a run's timings can read 40% higher in a busy hour than in a
    quiet one.  :meth:`run` times the calibration work after every call,
    while no program process is alive.  A run's wall times multiplied by
    :attr:`factor`, ``CALIBRATION_NOMINAL_S`` over the mean calibration of
    the run, are the times at the nominal speed.  (The mean tracks the
    host's speed better than the median: a quiet host has slow moments
    and a busy one fast moments.)  The program never runs the calibration
    work, so a change to the program moves a scaled time exactly as it
    moves the wall time.
    """

    def __init__(self):
        self.calibrations = [calibration_s()]

    def run(self, call):
        """``call()``, followed by one calibration."""
        result = call()
        self.calibrations.append(calibration_s())
        return result

    @property
    def factor(self) -> float:
        return CALIBRATION_NOMINAL_S / (sum(self.calibrations) / len(self.calibrations))

    def describe(self) -> str:
        return (f"host speed: factor {self.factor:.3f} from {len(self.calibrations)} "
                f"calibrations (mean {CALIBRATION_NOMINAL_S / self.factor * 1e3:.1f} ms, "
                f"nominal {CALIBRATION_NOMINAL_S * 1e3:.0f} ms, "
                f"range {min(self.calibrations) * 1e3:.1f}-{max(self.calibrations) * 1e3:.1f} ms)")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
#: Candidate percentiles for the tail: the highest one with at least ten
#: samples beyond it is reported.
TAIL_LADDER = (99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values) -> tuple[str, float]:
    """``(name, value)`` of the highest percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile qualifies; the median is
    reported and named ``p50*``.
    """
    n = len(values)
    for q in TAIL_LADDER:
        if n * (100 - q) >= 10 * 100:  # integers: 100 * 0.1 < 10 in floats
            return f"p{q}", percentile(values, q)
    return "p50*", percentile(values, 50)


def summarize(values) -> dict:
    name, value = tail(values)
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "tail_name": name,
        "tail": value,
    }


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def check_result(
    mapping: dict, score: float, reference: dict, score_tolerance: float
) -> str | None:
    """``None`` when ``mapping``/``score`` match ``reference``, else why not."""
    if mapping != reference["mapping"]:
        wrong = sorted(
            k for k in set(mapping) | set(reference["mapping"])
            if mapping.get(k) != reference["mapping"].get(k)
        )
        return f"mapping differs from the reference on {wrong[:5]}"
    if not abs(score - reference["score"]) <= score_tolerance:
        return f"score {score!r} differs from the reference {reference['score']!r}"
    return None


def reference_of(result) -> dict:
    """The checkable part of a library ``MatchResult``."""
    return {
        "mapping": {str(s): str(t) for s, t in result.mapping.as_dict().items()},
        "score": result.score,
    }


def parse_cli_match(stdout: str) -> tuple[dict, float]:
    """Mapping and score from ``repro match`` output."""
    lines = stdout.splitlines()
    header = next(line for line in lines if line.startswith("# method="))
    score = float(header.split("score=")[1].split()[0])
    mapping = {}
    for line in lines:
        if line and not line.startswith("#") and "\t" in line:
            source, target = line.split("\t")
            mapping[source] = target
    return mapping, score


#: ``repro match`` prints the score with four decimals.
CLI_SCORE_TOLERANCE = 5e-5 + 1e-9


class Tally:
    """Attempted/failed counts plus the reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)


def emit(tally: Tally, metrics: dict[str, tuple[float, str]], report: list[str]) -> None:
    """Print the human report to stderr and the result object to stdout."""
    for line in report:
        print(line, file=sys.stderr)
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
