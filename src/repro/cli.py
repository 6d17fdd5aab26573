"""``repro`` — the console entry point of the reproduction.

Subcommands:

* ``repro list`` — every scenario, platform, scheduler, backend and figure
  preset the harness knows about.
* ``repro grid`` — run a (scenario x platform x scheduler) grid on a chosen
  execution backend, print the paper-style UXCost table, optionally
  persisting results (``--store``) and dumping structured JSON (``--json``).
  ``--smoke`` selects the small fixed grid CI uses for backend parity.
* ``repro figure N`` — regenerate one evaluation figure (or ``all``),
  routed through the selected backend via
  :func:`repro.experiments.harness.default_execution`.
* ``repro bench`` — time the same grid on the serial and process backends,
  assert bit-for-bit parity, and emit a machine-readable ``BENCH_grid.json``
  (cells/sec, wall times, speedup) so perf trajectories persist across PRs.
* ``repro generate`` — sample randomized scenarios from the model zoo
  (seeded, reproducible), optionally writing the generator spec and running
  the generated grid on any backend/store.  ``--traffic`` samples
  non-periodic arrival processes (Poisson, bursty, load-scaled) per head
  task; ``--latency`` (also on ``repro grid``) prints the streamed
  per-task latency quantiles.
* ``repro fuzz`` — cross-scheduler differential testing: run every
  requested scheduler on each generated scenario, audit the trace-invariant
  oracle and the metamorphic cross-scheduler properties, and write failing
  scenario specs as replayable artifacts.  ``--traffic`` extends the sweep
  to non-periodic arrival processes; ``--kernels python,reference``
  (or ``all``) re-runs every scheduler on the fast and the reference
  engine and reports any result/trace divergence as a ``kernel_parity``
  violation.
  Exit codes: 0 = clean,
  1 = harness error (a scheduler/engine crashed), 2 = usage error,
  3 = invariant or metamorphic violation.  ``--replay <spec.json>``
  deterministically re-runs a stored artifact.
* ``repro fleet run`` / ``repro fleet describe`` — simulate N heterogeneous
  platforms behind a routing/admission tier (:mod:`repro.fleet`): sessions
  from user populations are routed by a pluggable policy (round-robin,
  least-loaded, fair-share), every admitted session runs as one
  per-platform simulation on the chosen backend, and the fleet invariant
  oracle audits the admission trace (exit 3 on violation, like ``fuzz``).
  ``describe`` resolves the spec and prints the admission plan without
  running any simulation.

Every subcommand is importable and drives the same public harness API the
tests use; the CLI adds no simulation logic of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace as _dc_replace
from pathlib import Path
from typing import Optional, Sequence

from repro import __version__
from repro.experiments import figures as figures_mod
from repro.experiments.backends import backend_names, make_backend
from repro.experiments.differential import (
    FUZZ_AXES,
    axis_summary,
    replay_artifact,
    run_fuzz,
    validate_axis,
)
from repro.experiments.harness import (
    GridResult,
    default_execution,
    execute_jobs,
    run_grid,
)
from repro.experiments.jobs import generated_cell_jobs, grid_jobs
from repro.experiments.store import ResultStore
from repro.fleet import (
    FleetSimulator,
    FleetSpec,
    PlatformSpec,
    audit_fleet,
    routing_policy_names,
    simulate_fleet,
)
from repro.hardware.platform import all_platform_names
from repro.sim import resource_model_names
from repro.metrics.reporting import format_table
from repro.schedulers import scheduler_names
from repro.workloads import (
    GeneratorSpec,
    ScenarioGenerator,
    UserSpec,
    arrival_process_names,
    make_arrival_process,
    scenario_names,
)

#: ``repro fuzz`` exit code for invariant/metamorphic violations (a harness
#: error exits 1 and a usage error exits 2, so the three are distinguishable
#: in CI).
EXIT_INVARIANT_VIOLATION = 3

#: Fixed grid used by ``repro grid --smoke`` and as the ``repro bench``
#: default: 2 scenarios x 2 platforms x 3 schedulers = 12 cells, spanning a
#: baseline, a strong baseline and the full DREAM configuration.
SMOKE_GRID = {
    "scenarios": ["ar_call", "vr_gaming"],
    "platforms": ["4k_1ws_2os", "4k_2ws"],
    "schedulers": ["fcfs_dynamic", "planaria", "dream_full"],
}

#: Simulated window used by the smoke grid (short but non-trivial).
SMOKE_DURATION_MS = 400.0


def _split_names(values: Optional[Sequence[str]], default: Sequence[str]) -> list[str]:
    """Expand repeated/comma-separated name options into a flat list."""
    if not values:
        return list(default)
    names: list[str] = []
    for value in values:
        names.extend(part for part in value.split(",") if part)
    return names


def _jsonable(value):
    """Best-effort conversion of figure summaries to JSON-serializable data."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default="serial",
        help="execution backend for grid cells (default: serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for --backend process (default: CPU count)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-keyed result cache directory; cached cells are not re-run",
    )


def _make_store(args: argparse.Namespace) -> Optional[ResultStore]:
    return ResultStore(args.store) if args.store is not None else None


def _engine_kwargs(args: argparse.Namespace) -> dict[str, str]:
    """Extra engine kwargs for ``--resource-model``.

    The default resource model contributes nothing so default jobs keep
    their historical content-addressed store keys.
    """
    resource_model = getattr(args, "resource_model", "pe_fraction")
    if resource_model != "pe_fraction":
        return {"resource_model": resource_model}
    return {}


def _execute_and_report(jobs, args: argparse.Namespace) -> tuple[GridResult, float]:
    """Run cell jobs on the selected backend and print the UXCost table.

    Shared by ``repro grid`` and ``repro generate --run`` so both
    subcommands report identically (table format, throughput, store stats).
    With ``--latency`` a per-task table of the streamed latency quantiles
    (P² estimates of p50/p95/p99) is printed as well.
    """
    store = _make_store(args)
    started = time.perf_counter()
    results = execute_jobs(jobs, backend=args.backend, workers=args.workers, store=store)
    elapsed = time.perf_counter() - started
    grid = GridResult(results={job.cell: result for job, result in zip(jobs, results)})

    table = grid.uxcost_table()
    rows = [
        [config, scheduler, uxcost]
        for config, by_scheduler in sorted(table.items())
        for scheduler, uxcost in sorted(by_scheduler.items())
    ]
    print(format_table(["scenario/platform", "scheduler", "UXCost"], rows))
    if getattr(args, "latency", False):
        print()
        print(_latency_table(grid))
    print(f"done: {len(jobs)} cells in {elapsed:.2f} s ({len(jobs) / elapsed:.2f} cells/s)")
    if store is not None:
        print(f"store: {store.stats()}")
    return grid, elapsed


def _latency_table(grid: GridResult) -> str:
    """Per-task completed-frame latency quantiles across every grid cell."""
    rows = []
    for cell, result in sorted(grid.results.items(), key=lambda item: item[0].key):
        for task_name, stats in sorted(result.task_stats.items()):
            rows.append(
                [
                    cell.key,
                    task_name,
                    stats.completed_frames,
                    stats.mean_latency_ms,
                    stats.latency_quantile_ms("p50"),
                    stats.latency_quantile_ms("p95"),
                    stats.latency_quantile_ms("p99"),
                    stats.latency_max_ms,
                ]
            )
    return format_table(
        ["cell", "task", "done", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"],
        rows,
        float_format="{:.2f}",
    )


# --------------------------------------------------------------------- #
# repro list
# --------------------------------------------------------------------- #


def _cmd_list(args: argparse.Namespace) -> int:
    print("scenarios: ", ", ".join(scenario_names()))
    print("platforms: ", ", ".join(all_platform_names()))
    print("schedulers:", ", ".join(scheduler_names()))
    print("backends:  ", ", ".join(backend_names()))
    print("resources: ", ", ".join(resource_model_names()))
    print("traffic:   ", ", ".join(arrival_process_names()))
    print("figures:   ", ", ".join(sorted(figures_mod.ALL_FIGURES)))
    return 0


# --------------------------------------------------------------------- #
# repro grid
# --------------------------------------------------------------------- #


def _cmd_grid(args: argparse.Namespace) -> int:
    if args.smoke:
        scenarios = list(SMOKE_GRID["scenarios"])
        platforms = list(SMOKE_GRID["platforms"])
        schedulers = list(SMOKE_GRID["schedulers"])
        duration_ms = args.duration_ms if args.duration_ms is not None else SMOKE_DURATION_MS
    else:
        scenarios = _split_names(args.scenarios, scenario_names())
        platforms = _split_names(args.platforms, ["4k_1ws_2os"])
        schedulers = _split_names(args.schedulers, ["fcfs_dynamic", "planaria", "dream_full"])
        duration_ms = args.duration_ms if args.duration_ms is not None else 800.0

    cells = len(scenarios) * len(platforms) * len(schedulers)
    print(
        f"running {cells} cells ({len(scenarios)} scenarios x {len(platforms)} "
        f"platforms x {len(schedulers)} schedulers) on backend "
        f"{args.backend!r} (duration {duration_ms:g} ms, seed {args.seed})"
    )
    jobs = grid_jobs(
        scenarios,
        platforms,
        schedulers,
        duration_ms=duration_ms,
        seed=args.seed,
        cascade_probability=args.cascade_probability,
        **_engine_kwargs(args),
    )
    grid, elapsed = _execute_and_report(jobs, args)

    if args.json is not None:
        table = grid.uxcost_table()
        payload = {
            "grid": {
                "scenarios": scenarios,
                "platforms": platforms,
                "schedulers": schedulers,
                "duration_ms": duration_ms,
                "seed": args.seed,
                "cascade_probability": args.cascade_probability,
            },
            "backend": args.backend,
            "workers": args.workers,
            "wall_time_s": elapsed,
            "uxcost_table": table,
            "results": grid.to_dict(),
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


# --------------------------------------------------------------------- #
# repro figure
# --------------------------------------------------------------------- #


def _figure_key(name: str) -> str:
    return name if name.startswith("figure") else f"figure{name}"


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "all":
        names = sorted(figures_mod.ALL_FIGURES)
    else:
        key = _figure_key(args.name)
        if key not in figures_mod.ALL_FIGURES:
            known = ", ".join(sorted(figures_mod.ALL_FIGURES))
            print(f"unknown figure {args.name!r}; available: {known}, all", file=sys.stderr)
            return 2
        names = [key]

    store = _make_store(args)
    with default_execution(backend=args.backend, workers=args.workers, store=store):
        for name in names:
            generator = figures_mod.ALL_FIGURES[name]
            kwargs = {"seed": args.seed}
            if args.duration_ms is not None:
                kwargs["duration_ms"] = args.duration_ms
            started = time.perf_counter()
            result = generator(**kwargs)
            elapsed = time.perf_counter() - started
            print(f"== {result.name}: {result.description} [{elapsed:.2f} s]")
            print(result.text)
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(result.text + "\n", encoding="utf-8")
                payload = {
                    "name": result.name,
                    "description": result.description,
                    "rows": _jsonable(result.rows),
                    "summary": _jsonable(result.summary),
                }
                (args.out / f"{name}.json").write_text(
                    json.dumps(payload, indent=2) + "\n", encoding="utf-8"
                )
                print(f"wrote {args.out / name}.{{txt,json}}")
    return 0


# --------------------------------------------------------------------- #
# repro bench
# --------------------------------------------------------------------- #


def _cmd_bench(args: argparse.Namespace) -> int:
    # Built before anything runs, so a bad --workers is a usage error at
    # once rather than after the whole serial pass.
    process_backend = make_backend("process", workers=args.workers)
    scenarios = _split_names(args.scenarios, SMOKE_GRID["scenarios"])
    platforms = _split_names(args.platforms, SMOKE_GRID["platforms"])
    schedulers = _split_names(args.schedulers, SMOKE_GRID["schedulers"])
    duration_ms = args.duration_ms if args.duration_ms is not None else 2000.0
    jobs = grid_jobs(
        scenarios, platforms, schedulers, duration_ms=duration_ms, seed=args.seed
    )
    cells = len(jobs)
    print(
        f"benchmarking {cells} cells (duration {duration_ms:g} ms) "
        f"serial vs process[{args.workers}]"
    )

    started = time.perf_counter()
    serial_grid = run_grid(
        scenarios, platforms, schedulers,
        duration_ms=duration_ms, seed=args.seed, backend="serial",
    )
    serial_s = time.perf_counter() - started
    print(f"serial:  {serial_s:.2f} s ({cells / serial_s:.2f} cells/s)")

    started = time.perf_counter()
    process_grid = run_grid(
        scenarios, platforms, schedulers,
        duration_ms=duration_ms, seed=args.seed, backend=process_backend,
    )
    process_s = time.perf_counter() - started
    print(f"process: {process_s:.2f} s ({cells / process_s:.2f} cells/s)")

    parity = serial_grid.uxcost_table() == process_grid.uxcost_table()
    speedup = serial_s / process_s if process_s > 0 else 0.0
    print(f"parity:  {'OK (bit-for-bit)' if parity else 'MISMATCH'}")
    print(f"speedup: {speedup:.2f}x at {args.workers} workers")

    payload = {
        "benchmark": "grid_throughput",
        "repro_version": __version__,
        "grid": {
            "scenarios": scenarios,
            "platforms": platforms,
            "schedulers": schedulers,
            "duration_ms": duration_ms,
            "seed": args.seed,
        },
        "cells": cells,
        "workers": args.workers,
        "serial": {"wall_time_s": serial_s, "cells_per_sec": cells / serial_s},
        "process": {"wall_time_s": process_s, "cells_per_sec": cells / process_s},
        "speedup": speedup,
        "parity": parity,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if not parity:
        print("error: serial and process backends disagree", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"error: speedup {speedup:.2f}x below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------- #
# repro generate / repro fuzz
# --------------------------------------------------------------------- #


def _add_generator_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--generator-seed", type=int, default=0, metavar="S",
        help="base seed of the scenario generator (default: 0)",
    )
    parser.add_argument(
        "--min-tasks", type=int, default=2, help="minimum tasks per scenario (default: 2)"
    )
    parser.add_argument(
        "--max-tasks", type=int, default=5, help="maximum tasks per scenario (default: 5)"
    )
    parser.add_argument(
        "--max-cascade-depth", type=int, default=2,
        help="maximum cascade-chain depth (0 disables cascades; default: 2)",
    )
    parser.add_argument(
        "--chain-probability", type=float, default=0.35,
        help="probability a task extends a cascade chain (default: 0.35)",
    )
    parser.add_argument(
        "--no-resolution-sweep", action="store_true",
        help="use each model's canonical input size instead of sweeping",
    )
    parser.add_argument(
        "--traffic", action="append", metavar="NAMES",
        help="traffic models sampled per generated head task ('all' or "
        "comma-separated from: " + ", ".join(arrival_process_names()) + "; "
        "default: periodic only)",
    )
    parser.add_argument(
        "--resource-model", choices=resource_model_names(), default="pe_fraction",
        help="execution-resource model of the generated scenarios: kv_batch "
        "samples a shared KV-cache budget and multi-turn interaction tasks "
        "(default: pe_fraction)",
    )


def _traffic_models(values: Optional[Sequence[str]]) -> tuple[str, ...]:
    return tuple(_expand_registry(values, ["periodic"], arrival_process_names))


def _generator_spec(args: argparse.Namespace) -> GeneratorSpec:
    return GeneratorSpec(
        seed=args.generator_seed,
        min_tasks=args.min_tasks,
        max_tasks=args.max_tasks,
        max_cascade_depth=args.max_cascade_depth,
        chain_probability=args.chain_probability,
        resolution_sweep=not args.no_resolution_sweep,
        traffic_models=_traffic_models(args.traffic),
        resource_model=getattr(args, "resource_model", "pe_fraction"),
    )


def _expand_registry(
    values: Optional[Sequence[str]], default: Sequence[str], registry_names
) -> list[str]:
    """Expand name options, with ``all`` meaning every registered name."""
    names = _split_names(values, default)
    if "all" in names:
        return list(registry_names())
    return names


def _scheduler_list(values: Optional[Sequence[str]], default: Sequence[str]) -> list[str]:
    return _expand_registry(values, default, scheduler_names)


def _fuzz_axis(axis: str, values: Optional[Sequence[str]]) -> Optional[list[str]]:
    """Expand one ``repro fuzz`` axis option ('all' = the axis registry).

    None when the option is not given, so a replay keeps the artifact's
    own values.  Unknown names are usage errors (exit 2).  An option that
    names nothing (``--kernels ""``) is no error: a sweep then takes the
    default, and a replay keeps the artifact's kernels and resource models
    but runs no faults.
    """
    if not values:
        return None
    names = _expand_registry(values, [], lambda: FUZZ_AXES[axis]["names"])
    if names:
        validate_axis(axis, names)
    return names


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _generator_spec(args)
    generator = ScenarioGenerator(spec)
    scenarios = [generator.generate(index) for index in range(args.count)]
    for scenario in scenarios:
        print(scenario.describe())
        print()
    if args.spec_out is not None:
        payload = {"generator": spec.to_dict(), "count": args.count}
        args.spec_out.parent.mkdir(parents=True, exist_ok=True)
        args.spec_out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.spec_out}")
    if not args.run:
        return 0

    schedulers = _scheduler_list(args.schedulers, ["fcfs_dynamic", "planaria", "dream_full"])
    platforms = _split_names(args.platforms, ["4k_1ws_2os"])
    duration_ms = args.duration_ms if args.duration_ms is not None else 400.0
    jobs = generated_cell_jobs(
        spec, args.count, platforms, schedulers,
        duration_ms=duration_ms, seed=args.seed,
        **_engine_kwargs(args),
    )
    print(
        f"running {len(jobs)} generated cells ({args.count} scenarios x "
        f"{len(platforms)} platforms x {len(schedulers)} schedulers) on backend "
        f"{args.backend!r}"
    )
    _execute_and_report(jobs, args)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    schedulers = _scheduler_list(args.schedulers, scheduler_names())
    # None = "not given": a replay then honours the artifact's own axes.
    axes = {axis: _fuzz_axis(axis, getattr(args, axis)) for axis in FUZZ_AXES}
    duration_ms = args.duration_ms if args.duration_ms is not None else 400.0

    if args.replay is not None:
        try:
            artifact = json.loads(args.replay.read_text(encoding="utf-8"))
        except OSError as error:
            print(f"repro: error: cannot read {args.replay}: {error}", file=sys.stderr)
            return 2
        try:
            report = replay_artifact(
                artifact, schedulers=args.schedulers and schedulers, **axes
            )
        except ValueError:
            # Malformed artifact (e.g. no generator spec): a usage error —
            # main() maps ValueError to exit 2, like other bad inputs.
            raise
        except Exception as error:  # noqa: BLE001 - harness error, exit 1
            print(f"repro fuzz: harness error during replay: {error}", file=sys.stderr)
            return 1
        print(report.describe())
        if report.harness_errors:
            return 1
        return 0 if report.ok else EXIT_INVARIANT_VIOLATION

    if args.seeds < 1:
        # Usage error (exit 2 via main's handler), NOT a harness error: the
        # broad except below must only classify engine/scheduler crashes.
        raise ValueError("--seeds must be positive")
    spec = _generator_spec(args)
    axes = {axis: values or list(FUZZ_AXES[axis]["default"]) for axis, values in axes.items()}
    if "kv_batch" in axes["resource_models"] and spec.resource_model == "pe_fraction":
        # The kv axis is only interesting on kv-flavoured scenarios (shared
        # KV budgets, interaction chains), so upgrade the generator spec.
        spec = _dc_replace(spec, resource_model="kv_batch")
        print("notice: --resource-models includes kv_batch; generating kv_batch scenarios")
    print(
        f"fuzzing {args.seeds} generated scenario(s) (generator seed "
        f"{spec.seed}) x {len(schedulers)} schedulers{axis_summary(axes, ' x ')} "
        f"on {args.platform} ({duration_ms:g} ms, sim seed {args.seed})"
    )
    try:
        fuzz = run_fuzz(
            spec,
            count=args.seeds,
            schedulers=schedulers,
            platform=args.platform,
            duration_ms=duration_ms,
            seed=args.seed,
            **axes,
        )
    except Exception as error:  # noqa: BLE001 - harness error, exit 1
        print(f"repro fuzz: harness error: {error}", file=sys.stderr)
        return 1

    for report in fuzz.reports:
        print(report.describe())
    print(fuzz.summary())

    needs_artifacts = fuzz.failing or fuzz.erroneous
    if args.artifacts is not None and needs_artifacts:
        args.artifacts.mkdir(parents=True, exist_ok=True)
        for report in fuzz.reports:
            if report.ok and not report.harness_errors:
                continue
            path = args.artifacts / f"{report.scenario_name}.json"
            path.write_text(
                json.dumps(report.to_artifact(), indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote failing scenario artifact {path}")

    if fuzz.erroneous:
        print("repro fuzz: harness error(s) — see report above", file=sys.stderr)
        return 1
    if fuzz.failing:
        print("repro fuzz: invariant/metamorphic violation(s)", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    return 0


# --------------------------------------------------------------------- #
# repro fleet
# --------------------------------------------------------------------- #

#: Default heterogeneous fleet of ``repro fleet`` when no spec is given:
#: three platforms mixing accelerator presets and schedulers.
DEFAULT_FLEET_PLATFORMS = ["4k_2ws", "4k_1ws_2os", "8k_2os"]
DEFAULT_FLEET_SCHEDULERS = ["fcfs_dynamic", "dream_full", "dream_mapscore"]


def _add_fleet_spec_options(parser: argparse.ArgumentParser) -> None:
    """Options that define a FleetSpec inline (or load one from JSON)."""
    parser.add_argument(
        "--spec", type=Path, default=None, metavar="SPEC.json",
        help="load the full FleetSpec from JSON (other spec options are ignored)",
    )
    parser.add_argument(
        "--platforms", action="append", metavar="NAMES",
        help="comma-separated platform presets (repeatable; default: "
        + ",".join(DEFAULT_FLEET_PLATFORMS) + ")",
    )
    parser.add_argument(
        "--schedulers", action="append", metavar="NAMES",
        help="schedulers paired with --platforms, cycled when shorter "
        "(default: " + ",".join(DEFAULT_FLEET_SCHEDULERS) + ")",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=2, metavar="N",
        help="concurrent-session capacity of each platform (default: 2)",
    )
    parser.add_argument(
        "--policy", choices=routing_policy_names(), default="least_loaded",
        help="routing/admission policy (default: least_loaded)",
    )
    parser.add_argument(
        "--scenarios", action="append", metavar="NAMES",
        help="comma-separated scenario presets, one user population each "
        "(default: ar_call,vr_gaming)",
    )
    parser.add_argument(
        "--users", type=int, default=2, metavar="N",
        help="users per population (default: 2)",
    )
    parser.add_argument(
        "--session-rate", type=float, default=120.0, metavar="R",
        help="session arrivals per minute per user (default: 120)",
    )
    parser.add_argument(
        "--session-ms", type=float, default=200.0, metavar="MS",
        help="simulated window of one admitted session (default: 200)",
    )
    parser.add_argument(
        "--traffic", choices=arrival_process_names(), default=None,
        help="session-arrival process per user (default: periodic, no jitter)",
    )
    parser.add_argument(
        "--duration-ms", type=float, default=1000.0,
        help="fleet-clock window over which sessions arrive (default: 1000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="fleet master seed")
    parser.add_argument(
        "--spec-out", type=Path, default=None, metavar="PATH",
        help="write the resolved FleetSpec as JSON for replay/sharing",
    )


def _fleet_spec(args: argparse.Namespace) -> FleetSpec:
    """Resolve the FleetSpec from ``--spec`` or the inline options."""
    if args.spec is not None:
        try:
            payload = json.loads(args.spec.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"cannot read fleet spec {args.spec}: {error}") from error
        return FleetSpec.from_dict(payload)
    platforms = _split_names(args.platforms, DEFAULT_FLEET_PLATFORMS)
    schedulers = _split_names(args.schedulers, DEFAULT_FLEET_SCHEDULERS)
    traffic = make_arrival_process(args.traffic) if args.traffic else None
    return FleetSpec(
        platforms=tuple(
            PlatformSpec(
                platform=platform,
                scheduler=schedulers[index % len(schedulers)],
                max_sessions=args.max_sessions,
            )
            for index, platform in enumerate(platforms)
        ),
        users=tuple(
            UserSpec(
                name=scenario,
                users=args.users,
                scenario=scenario,
                sessions_per_minute=args.session_rate,
                session_duration_ms=args.session_ms,
                traffic=traffic,
            )
            for scenario in _split_names(args.scenarios, ["ar_call", "vr_gaming"])
        ),
        policy=args.policy,
        duration_ms=args.duration_ms,
        seed=args.seed,
    )


def _write_fleet_spec(spec: FleetSpec, args: argparse.Namespace) -> None:
    if args.spec_out is not None:
        args.spec_out.parent.mkdir(parents=True, exist_ok=True)
        args.spec_out.write_text(
            json.dumps(spec.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.spec_out}")


def _cmd_fleet_describe(args: argparse.Namespace) -> int:
    spec = _fleet_spec(args)
    _write_fleet_spec(spec, args)
    print(
        f"fleet spec: {len(spec.platforms)} platforms, "
        f"{len(spec.users)} populations ({spec.total_users} users), "
        f"policy={spec.policy}, {spec.duration_ms:g} ms, seed {spec.seed}"
    )
    for index, (platform, label) in enumerate(zip(spec.platforms, spec.platform_labels())):
        print(
            f"  platform[{index}] {label}: {platform.platform} + "
            f"{platform.scheduler}, capacity {platform.max_sessions}"
        )
    for population in spec.users:
        traffic = population.traffic.kind if population.traffic else "periodic"
        print(
            f"  population {population.name}: {population.users} users x "
            f"{population.scenario}, {population.sessions_per_minute:g} "
            f"sessions/min, {population.session_duration_ms:g} ms each, "
            f"traffic={traffic}"
        )
    plan = FleetSimulator(spec).plan()
    counts = plan.outcome_counts()
    print(
        f"admission plan: {plan.submitted} session requests -> "
        + ", ".join(f"{outcome}={count}" for outcome, count in sorted(counts.items()))
    )
    per_platform = [0] * len(spec.platforms)
    for job in plan.jobs:
        per_platform[job.platform_index] += 1
    for index, label in enumerate(spec.platform_labels()):
        print(f"  platform[{index}] {label}: {per_platform[index]} sessions")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    spec = _fleet_spec(args)
    _write_fleet_spec(spec, args)
    print(
        f"running fleet: {len(spec.platforms)} platforms, {spec.total_users} "
        f"users, policy={spec.policy!r} on backend {args.backend!r} "
        f"({spec.duration_ms:g} ms, seed {spec.seed})"
    )
    store = _make_store(args)
    started = time.perf_counter()
    result = simulate_fleet(
        spec, backend=args.backend, workers=args.workers, store=store
    )
    elapsed = time.perf_counter() - started
    print(result.describe())
    sessions = max(result.admitted, 1)
    print(
        f"done: {result.admitted} session simulations in {elapsed:.2f} s "
        f"({result.admitted / elapsed:.2f} sessions/s)"
        if elapsed > 0
        else f"done: {sessions} session simulations"
    )
    if store is not None:
        print(f"store: {store.stats()}")
    if args.json is not None:
        args.json.write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}")
    if not args.no_oracle:
        violations = audit_fleet(result)
        if violations:
            print(
                f"repro fleet: {len(violations)} fleet invariant violation(s):",
                file=sys.stderr,
            )
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return EXIT_INVARIANT_VIOLATION
        print("fleet oracle: OK (session conservation, routing, admission, frames)")
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's experiment grids, figures and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list every known preset name")
    list_parser.set_defaults(func=_cmd_list)

    grid_parser = subparsers.add_parser(
        "grid", help="run a scenario x platform x scheduler grid"
    )
    grid_parser.add_argument(
        "--scenarios", action="append", metavar="NAMES",
        help="comma-separated scenario names (repeatable; default: all)",
    )
    grid_parser.add_argument(
        "--platforms", action="append", metavar="NAMES",
        help="comma-separated platform names (repeatable; default: 4k_1ws_2os)",
    )
    grid_parser.add_argument(
        "--schedulers", action="append", metavar="NAMES",
        help="comma-separated scheduler names (repeatable; "
        "default: fcfs_dynamic,planaria,dream_full)",
    )
    grid_parser.add_argument(
        "--duration-ms", type=float, default=None, help="simulated window per cell"
    )
    grid_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    grid_parser.add_argument(
        "--cascade-probability", type=float, default=0.5,
        help="ML-cascade trigger probability (default: 0.5)",
    )
    grid_parser.add_argument(
        "--smoke", action="store_true",
        help=f"use the fixed CI smoke grid ({'x'.join(str(len(v)) for v in SMOKE_GRID.values())} "
        f"cells at {SMOKE_DURATION_MS:g} ms)",
    )
    grid_parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the full grid result (uxcost table + per-cell stats) as JSON",
    )
    grid_parser.add_argument(
        "--latency", action="store_true",
        help="also print per-task streamed latency quantiles (p50/p95/p99)",
    )
    grid_parser.add_argument(
        "--resource-model", choices=resource_model_names(), default="pe_fraction",
        help="execution-resource model of every accelerator: 'pe_fraction' "
        "is the paper's spatially-partitioned PE array, 'kv_batch' a shared "
        "KV-cache memory budget with continuous-batching latency dilation "
        "(default: pe_fraction)",
    )
    _add_execution_options(grid_parser)
    grid_parser.set_defaults(func=_cmd_grid)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one evaluation figure (2,7-14) or 'all'"
    )
    figure_parser.add_argument(
        "name", help="figure number (e.g. 7), name (figure7), or 'all'"
    )
    figure_parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="override the figure's default simulated window",
    )
    figure_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    figure_parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="write <figure>.txt and <figure>.json into this directory",
    )
    _add_execution_options(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    bench_parser = subparsers.add_parser(
        "bench", help="time serial vs process execution and emit BENCH_grid.json"
    )
    bench_parser.add_argument(
        "--scenarios", action="append", metavar="NAMES",
        help="comma-separated scenario names (default: smoke grid)",
    )
    bench_parser.add_argument(
        "--platforms", action="append", metavar="NAMES",
        help="comma-separated platform names (default: smoke grid)",
    )
    bench_parser.add_argument(
        "--schedulers", action="append", metavar="NAMES",
        help="comma-separated scheduler names (default: smoke grid)",
    )
    bench_parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="simulated window per cell (default: 2000)",
    )
    bench_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    bench_parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="process-pool size to benchmark against (default: 4)",
    )
    bench_parser.add_argument(
        "--out", type=Path, default=Path("BENCH_grid.json"), metavar="PATH",
        help="machine-readable output file (default: BENCH_grid.json)",
    )
    bench_parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail unless the process backend is at least X times faster",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    generate_parser = subparsers.add_parser(
        "generate", help="sample randomized scenarios from the model zoo"
    )
    generate_parser.add_argument(
        "--count", type=int, default=3, metavar="N",
        help="number of scenarios to generate (default: 3)",
    )
    _add_generator_options(generate_parser)
    generate_parser.add_argument(
        "--spec-out", type=Path, default=None, metavar="PATH",
        help="write the generator spec (JSON) for later replay/sharing",
    )
    generate_parser.add_argument(
        "--run", action="store_true",
        help="also run the generated scenarios as a grid on the chosen backend",
    )
    generate_parser.add_argument(
        "--schedulers", action="append", metavar="NAMES",
        help="schedulers for --run ('all' or comma-separated; "
        "default: fcfs_dynamic,planaria,dream_full)",
    )
    generate_parser.add_argument(
        "--platforms", action="append", metavar="NAMES",
        help="platforms for --run (default: 4k_1ws_2os)",
    )
    generate_parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="simulated window per cell for --run (default: 400)",
    )
    generate_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    generate_parser.add_argument(
        "--latency", action="store_true",
        help="with --run: also print per-task streamed latency quantiles",
    )
    _add_execution_options(generate_parser)
    generate_parser.set_defaults(func=_cmd_generate)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="cross-scheduler differential testing with the trace-invariant oracle",
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=5, metavar="N",
        help="number of generated scenarios to sweep (default: 5)",
    )
    _add_generator_options(fuzz_parser)
    fuzz_parser.add_argument(
        "--schedulers", action="append", metavar="NAMES",
        help="schedulers to differential-test ('all' or comma-separated; default: all)",
    )
    fuzz_parser.add_argument(
        "--kernels", action="append", metavar="NAMES",
        help="engine paths to cross-check per scheduler: python (the fast "
        "engine), reference ('all' or comma-separated; the first is the "
        "canonical run, any divergence on the others is a kernel_parity "
        "violation; default: python)",
    )
    fuzz_parser.add_argument(
        "--resource-models", action="append", metavar="NAMES",
        help="execution-resource models to audit per scheduler ('all' or "
        "comma-separated: pe_fraction, kv_batch; the first is the canonical "
        "run, the others get a full invariant audit of their own physics — "
        "no cross-model parity is asserted; includes kv_batch scenarios "
        "when requested; default: pe_fraction)",
    )
    fuzz_parser.add_argument(
        "--faults", action="append", metavar="KINDS",
        help="chaos axis: fault kinds to inject per scheduler ('all' or "
        "comma-separated: accel_degrade, platform_outage, transient_stall; "
        "each kind samples a deterministic fault plan from the sim seed and "
        "re-runs every scheduler under the full oracle including the "
        "fault-specific invariants; default: no injection)",
    )
    fuzz_parser.add_argument(
        "--platform", default="4k_1ws_2os",
        help="platform preset shared by every run (default: 4k_1ws_2os)",
    )
    fuzz_parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="simulated window per run (default: 400)",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    fuzz_parser.add_argument(
        "--artifacts", type=Path, default=None, metavar="DIR",
        help="write failing scenario specs (replayable JSON) into this directory",
    )
    fuzz_parser.add_argument(
        "--replay", type=Path, default=None, metavar="SPEC.json",
        help="re-run one stored failing-scenario artifact instead of fuzzing",
    )
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="simulate a fleet of platforms behind a routing/admission tier",
    )
    fleet_subparsers = fleet_parser.add_subparsers(dest="fleet_command", required=True)

    fleet_run_parser = fleet_subparsers.add_parser(
        "run", help="plan admissions, simulate every session, aggregate + audit"
    )
    _add_fleet_spec_options(fleet_run_parser)
    fleet_run_parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the full fleet result (trace, per-user/platform stats) as JSON",
    )
    fleet_run_parser.add_argument(
        "--no-oracle", action="store_true",
        help="skip the fleet invariant oracle (exit 3 on violations otherwise)",
    )
    _add_execution_options(fleet_run_parser)
    fleet_run_parser.set_defaults(func=_cmd_fleet_run)

    fleet_describe_parser = fleet_subparsers.add_parser(
        "describe", help="show the resolved spec and admission plan (no simulations)"
    )
    _add_fleet_spec_options(fleet_describe_parser)
    fleet_describe_parser.set_defaults(func=_cmd_fleet_describe)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``repro`` in ``pyproject.toml``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        # Unknown preset names and invalid option values raise with a
        # message that already lists the alternatives; show it without a
        # traceback.
        message = error.args[0] if error.args else str(error)
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
