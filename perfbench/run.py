"""flagposet benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run from the repository root.  Every measured process is a fresh
single-threaded Python with the pure kernel (``FLAGPOSET_PURE=1``), the
package imported from ``src``, and ``PYTHONHASHSEED=0`` so set iteration
order, and with it every per-layer count, is the same in every process.
No bytecode is written (``PYTHONDONTWRITEBYTECODE=1``): in a fresh
checkout every measured process compiles the package from source, so
set-up time does not depend on what earlier runs left behind.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: whole passes over the workload's op pool, closed loop
with one caller, for about ``--seconds``.  ``setup_s`` is the median over
nine fresh processes of the time from process start to inputs built.
With ``--trace 1`` it reports the per-layer metrics instead, from a
fixed number of ops (so counts repeat; ``--seconds`` is not used) run
once untraced and twice traced.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the run's provenance.
``--out`` also writes both to FILE, for ``compare.py``.  Seed 1 is the
default; seed 2 is held out for checking claims that were not tuned on
it.

Timings on a shared host move with the host: on a 2-vCPU Xeon (2.1 GHz)
virtual machine a fixed pure-Python loop took anywhere from 136 to 329
ms for the same work, in spells of seconds, with no steal time reported.
Compare medians of many runs, and read their quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_PROBES = 4  # on each side of the measured worker
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args, extra, deadline):
    """Start a worker and wait for its ``ready`` line; returns the
    process and the seconds from spawn to ready."""
    env = dict(os.environ, FLAGPOSET_PURE="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.monotonic(), 0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError("worker did not finish set-up")
    return proc, setup


def stop(proc) -> None:
    proc.kill()
    proc.communicate()


def finish(proc, deadline) -> list[str]:
    """Wait for the worker; returns the lines it printed after ready."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out.splitlines()


def measure(args, spec):
    deadline = time.monotonic() + TIME_LIMIT_S

    def probe():
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        return setup

    # Probes before and after the measured worker: the host's speed
    # drifts over seconds, and samples from both ends of the run are
    # less likely to share one slow spell.  A traced run has no setup_s.
    probes = 0 if args.trace else SETUP_PROBES
    setups = [probe() for _ in range(probes)]
    proc, setup = start_worker(args, [], deadline)
    setups.append(setup)
    lines = finish(proc, deadline)
    if not lines:
        raise BenchError("worker printed no result")
    worker = json.loads(lines[-1])
    setups += [probe() for _ in range(probes)]

    values = dict(worker["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise BenchError("measured metrics differ from BENCHMARK.json")
    result = {
        "correct": worker["failed"] == 0 and worker.get("counts_repeat", True),
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    provenance = {
        **worker["provenance"],
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": worker["attempted"],
        "setup_samples_s": setups,
    }
    return provenance, result


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flagposet" / "__init__.py").is_file():
        print(f"no flagposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    try:
        provenance, result = measure(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(
            {"provenance": provenance, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
