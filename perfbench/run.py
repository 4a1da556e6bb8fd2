"""Host wall-clock benchmark of the repro library: one workload per run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload beamform-f16 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
makes the separate traced run and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are labelled
provenance and info. See NOTES.md for the workloads and the metrics.

The launcher itself imports nothing from the program. It starts the
measured process (``worker.py``) with a fresh interpreter, and for
``setup_s`` starts it ``SETUP_PROBES`` more times in set-up-only mode. Each
worker reports its set-up time from the moment the launcher started it.
Times are in reference-host seconds, rescaled by the host speed that
``calibrate.py`` measures next to them; the wall-clock values are printed
in the provenance line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("beamform-f16", "beamform-int1", "serve-backlog", "serve-fleet")
#: set-up-only processes per measured run; setup_s is the median of these
#: and the measured process's own set-up.
SETUP_PROBES = 2
#: wall-clock limits: a set-up probe, and the measured worker beyond its
#: timed window. Together they keep a hung run well inside 180 s.
PROBE_TIMEOUT_S = 30.0
WORKER_SLACK_S = 60.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def _worker_env() -> dict:
    # Hash seeding is fixed at interpreter start, so it is set here: set and
    # dict iteration order then repeats from run to run.
    return dict(os.environ, PYTHONHASHSEED="0")


def _run_worker(args: list[str], root: Path, timeout_s: float) -> dict:
    """Run one worker to completion; returns its result object.

    The worker receives the launch instant on the system-wide monotonic
    clock, so it can report set-up time from before its interpreter started.
    """
    cmd = [sys.executable, str(WORKER), *args, "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=_worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        _fail(f"worker {' '.join(args)} exceeded {timeout_s:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"worker {' '.join(args)} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        _fail(f"worker {' '.join(args)} printed no result")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail("run from the checkout root: BENCHMARK.json not found")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        _fail("no program to measure: src/repro is missing from this checkout")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timeout_s = args.seconds + WORKER_SLACK_S
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(
                _run_worker([*common, "--seconds", "0", "--mode", "setup"], root, PROBE_TIMEOUT_S)
            )
    mode = "trace" if args.trace else "measure"
    result = _run_worker([*common, "--seconds", str(args.seconds), "--mode", mode], root, timeout_s)
    probes.append(result)
    setup_samples = [p["setup_s"] for p in probes]

    measured = dict(result["metrics"])
    tail = measured.pop("_tail", None)
    wall = measured.pop("_wall", None)
    measured["setup_s"] = statistics.median(setup_samples)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        _fail(f"worker did not measure {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    provenance = result["provenance"]
    provenance["setup_samples_s"] = setup_samples
    provenance["setup_wall_samples_s"] = [p["setup_wall_s"] for p in probes]
    if wall is not None:
        provenance["wall_clock_metrics"] = wall
    if tail is not None:
        provenance["op_ms.tail"] = tail
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("info (modelled or simulated, not metrics): " + json.dumps(result["info"], sort_keys=True))
    for error in result["errors"]:
        print(f"check failed: {error}")
    for name, metric in metrics.items():
        print(f"{args.workload}/{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
