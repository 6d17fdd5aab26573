"""The package imports nothing outside the standard library.

A fresh interpreter builds the CLI parser, runs one DREAM cell and one
fast-vs-reference fuzz scenario; every top-level module that doing so
imports must be ``repro`` or named in ``sys.stdlib_module_names``.  A
stray third-party import (numpy, say) would quietly cost every process
its import time and resident memory.
"""

import os
import subprocess
import sys

SCRIPT = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from repro.cli import build_parser\n"
    "from repro.experiments.differential import run_fuzz\n"
    "from repro.experiments.jobs import grid_jobs\n"
    "from repro.workloads import GeneratorSpec\n"
    "build_parser()\n"
    "(job,) = grid_jobs(['ar_call'], ['4k_1ws_2os'], ['dream_full'], duration_ms=200.0)\n"
    "assert job.run().task_stats\n"
    "fuzz = run_fuzz(GeneratorSpec(seed=0), count=1, duration_ms=150.0,\n"
    "                kernels=('python', 'reference'))\n"
    "assert fuzz.ok, fuzz.summary()\n"
    "imported = {name.split('.')[0] for name in set(sys.modules) - before}\n"
    "# multiprocessing registers __main__ again under the alias __mp_main__.\n"
    "print(sorted(imported - set(sys.stdlib_module_names) - {'repro', '__mp_main__'}))\n"
)


def test_cli_cell_and_fuzz_import_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      env.get("PYTHONPATH", "")])
    )
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    )
    assert output.stdout.strip() == "[]"
