"""Shared configuration for the figure-regeneration benchmarks.

Each benchmark runs one figure generator exactly once (``rounds=1``) —
the interesting output is the paper-style table it prints, not the wall
time — but going through pytest-benchmark keeps a uniform invocation:

    pytest benchmarks/ --benchmark-only

Durations are chosen so the whole suite completes in a few minutes; pass
``--figure-duration-ms`` to scale every simulated window up for tighter
statistics.

The committed ``results/figure*.txt`` pin the paper figures: each run
compares its report byte for byte with the committed file and fails with
a diff on any drift.  A missing file is written instead, so an intended
change is regenerated by deleting the file and re-running its benchmark.
Runs under ``--figure-duration-ms`` neither compare nor write.
"""

from __future__ import annotations

import difflib
import pathlib

import pytest

#: Directory where each benchmark drops the regenerated figure table.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--figure-duration-ms",
        action="store",
        default=None,
        type=float,
        help="Override the simulated window length used by every figure benchmark.",
    )
    parser.addoption(
        "--run-perf",
        action="store_true",
        default=False,
        help="Run the opt-in timed engine gate (marker: perf).",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: timed engine gate; skipped unless --run-perf is given",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-perf"):
        return
    skip_perf = pytest.mark.skip(reason="perf microbenchmark; enable with --run-perf")
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)


@pytest.fixture(scope="session")
def figure_duration_override(request):
    """Optional global override of the simulated window length."""
    return request.config.getoption("--figure-duration-ms")


def run_figure(benchmark, figure_fn, default_duration_ms, override, **kwargs):
    """Run one figure generator, print its table and check it against the pin."""
    duration = override if override is not None else default_duration_ms
    result = benchmark.pedantic(
        figure_fn, kwargs={"duration_ms": duration, **kwargs}, rounds=1, iterations=1
    )
    # Summary floats print to six decimals, so the pinned report does not
    # depend on the last bit of float ``sum()``, which is compensated
    # (Neumaier) summation from Python 3.12 on and plain before it.
    printable = {
        k: round(v, 6) if isinstance(v, float) else v
        for k, v in result.summary.items()
        if not hasattr(v, "keys")
    }
    report = (
        f"=== {result.name}: {result.description}\n"
        f"{result.text}\n"
        f"summary: {printable}\n"
    )
    print()
    print(report)
    if override is None:
        _check_pinned(RESULTS_DIR / f"{result.name}.txt", report)
    return result


def _check_pinned(path: pathlib.Path, report: str) -> None:
    """Fail with a diff unless ``report`` equals the committed ``path``."""
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text(report)
        return
    committed = path.read_text()
    if report != committed:
        diff = "".join(
            difflib.unified_diff(
                committed.splitlines(keepends=True),
                report.splitlines(keepends=True),
                fromfile=f"committed {path.name}",
                tofile=f"regenerated {path.name}",
            )
        )
        pytest.fail(
            f"{path.name} drifted from the committed figure (delete it and re-run "
            f"to accept the new output):\n{diff}"
        )
