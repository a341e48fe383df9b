"""End-to-end benchmark of the repro matcher: one workload, one seed.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` drives the program from outside (CLI subprocesses or a
``repro serve`` daemon over HTTP) and reports the end-to-end metrics;
``--trace 1`` runs the separate traced replay and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the human report
(sample counts, tail percentile names, input digests) goes to stderr.
Metric names and units come from ``BENCHMARK.json``.  See
``e2ebench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BenchInterrupted, Session, emit  # noqa: E402

WORKLOADS = ("cli-mix", "service-mix", "largevocab-parallel")

#: Per-layer prefixes a workload never exercises: reported as 0, which is
#: itself the check that e.g. blocking runs only in largevocab-parallel.
NOT_RUN = {
    "cli-mix": ("blocking.", "parallel.", "service.", "obs.", "stream."),
    "largevocab-parallel": ("service.", "obs.", "stream."),
    "service-mix": ("blocking.", "parallel."),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and sample counts (used by the self-test)",
    )
    return parser.parse_args(argv)


def declared_metrics(root: Path, traced: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def finish_metrics(workload: str, values: dict, declared: dict[str, str], traced: bool) -> dict:
    """Attach units, zero the layers the workload never runs, check names."""
    metrics = {}
    for name, unit in declared.items():
        if name in values:
            value = values[name]
            metrics[name] = (value[0] if isinstance(value, tuple) else value, unit)
        elif traced and name.startswith(NOT_RUN[workload]):
            metrics[name] = (0.0, unit)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"workload {workload} did not produce metrics {missing}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no program source (src/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    declared = declared_metrics(root, bool(args.trace))
    if args.workload == "service-mix":
        import service_mix as module
    else:
        import cli_loop as module
    label = f"{args.workload}-{'t' if args.trace else 'e'}{args.seed}"
    try:
        with Session(root, label) as session:
            entry = module.trace if args.trace else module.run
            tally, values, report = entry(
                session, args.workload, args.seed, args.seconds, args.smoke
            )
            metrics = finish_metrics(args.workload, values, declared, bool(args.trace))
        report.append(f"# cleanup: {session.cleanup_report}")
    except BenchInterrupted as error:
        print(f"error: interrupted: {error}", file=sys.stderr)
        return 3
    except Exception:  # the benchmark must stop cleanly and say why
        traceback.print_exc()
        return 1
    emit(tally, metrics, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
