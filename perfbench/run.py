"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dream_saturated --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload, one child process at a time, with
the same arguments.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run; either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
host, the seed and a readable table.  Load stays within one CPU: the
serial backend only, no pool and no extra threads; the ``setup_s`` samples
come from child interpreters started one after another.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("dream_saturated", "baseline_grid", "fuzz_audit", "fleet_store")

#: Fresh interpreters timed for ``setup_s`` (the run's own set-up is one more).
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120


def host_metadata() -> dict:
    """CPU model, usable CPUs and interpreter of this host."""
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_setup_seconds(args: argparse.Namespace) -> list:
    """Set-up time of fresh interpreters, started one after another."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own child process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.checks import OpLedger, load_expected
    from perfbench.layers import Instrumentation, LayerClock
    from perfbench.measure import END_TO_END, PER_LAYER, measure
    from perfbench.reference import HostReference
    from perfbench.workloads import make_workload

    store_root = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, store_root=store_root)
    setup_clock = None
    if args.trace and not args.setup_only:
        setup_clock = LayerClock()
        instrumentation = Instrumentation(setup_clock)
        instrumentation.install()
        try:
            with setup_clock.span():
                workload.setup()
        finally:
            instrumentation.uninstall()
    else:
        workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [setup_s]
    reference = None
    if not args.trace:
        setup_samples += child_setup_seconds(args)
        reference = HostReference()
    expected = load_expected(args.workload, workload.input_seed)
    ledger = OpLedger(expected=expected, required=True)
    try:
        measurement = measure(
            workload, args.seconds, bool(args.trace), ledger,
            setup_s=statistics.median(setup_samples), setup_clock=setup_clock,
            reference=reference,
        )
    finally:
        workload.close()
        shutil.rmtree(store_root, ignore_errors=True)
        try:
            store_root.parent.rmdir()
        except OSError:
            pass

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": workload.input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "passes": measurement.passes,
        "traced_passes": measurement.traced_passes,
        "pass_walls_s": measurement.pass_walls,
        "setup_samples_s": setup_samples,
        "host_wall_s": measurement.host_wall_s,
        "reference_scale": measurement.reference_scale,
        "reference_samples": len(reference.samples) if reference else 0,
    }
    print(json.dumps(info))
    units = {**END_TO_END, **PER_LAYER}
    for name, value in {**measurement.metrics, **measurement.extra}.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':34s} {ledger.error_rate:14.6g} ratio ({ledger.failed}/{ledger.attempted} ops)")
    for failure in ledger.failures:
        print(f"  failed: {failure}", file=sys.stderr)
    print(json.dumps(measurement.payload()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
