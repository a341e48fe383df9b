"""Cleans up after a benchmark run that died without cleaning up itself.

Started by :class:`harness.Session` in its own session as
``python3 e2ebench/watchdog.py WORK_DIR``.  It reads one process-group id
per line on stdin.  ``done`` means the run cleaned up and it exits.  End
of file without ``done`` means the run was killed (SIGKILL can't be
caught): it then terminates and kills every group it was told about —
pool workers of a killed daemon would otherwise live on, since their
queue pipes never reach end of file — unlinks the segments the
program's shared-memory ledger still lists, and removes the work
directory.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ledger_live_segments, unlink_segments  # noqa: E402


def _alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    return True


def main(work: Path) -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    groups: list[int] = []
    for line in sys.stdin:
        line = line.strip()
        if line == "done":
            return 0
        if line.isdigit():
            groups.append(int(line))
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for group in groups:
            try:
                os.killpg(group, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + 3.0
        while any(_alive(g) for g in groups) and time.monotonic() < end:
            time.sleep(0.05)
    unlink_segments(ledger_live_segments(work / "tmp"))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
