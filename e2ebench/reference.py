"""Reference results: ``python3 e2ebench/reference.py SPEC OUT``.

SPEC is a JSON list of pairs as :func:`cli_loop.pair_spec` writes them.
OUT receives, in the same order, the mapping and score of the serial
in-process ``match()`` on each pair's files: the pipeline ``repro match``
runs, without the CLI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import reference_of  # noqa: E402
from traced import run_request  # noqa: E402


def main(spec_path: str, out_path: str) -> int:
    pairs = json.loads(Path(spec_path).read_text())
    Path(out_path).write_text(json.dumps([reference_of(run_request(pair)) for pair in pairs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
