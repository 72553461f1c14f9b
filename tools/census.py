"""Census of ``src/repro``: which functions do the project's programs call?

Usage, from the root of the repository::

    python3 tools/census.py [--tests]

Every function and method under ``src/repro`` (an ``ast`` walk, nested
defs included) is a *def*; its size is its line span, decorators
included. The census runs each program below in a fresh Python process
whose ``PYTHONPATH`` starts with a throwaway directory holding a
``sitecustomize.py``. That file installs a profile hook before the
program starts: ``cProfile``, whose C profile function is the
``sys.setprofile`` mechanism without a Python-level callback, so host-time
checks inside the programs (dispatch-overhead bounds) still hold under it.
At exit the hook writes every code object under ``src/repro`` that started
running to a file. The script then prints, per run, its exit code,
and finally each def that no run called, with totals.

The programs are the paper's evaluation (Figs. 1/2/7/9/10/12, Tables
II-IV and the design ablation), the five examples, the seven ``--smoke``
benchmarks, the four end-to-end workers and one traced worker,
``regress --check``, ``export --check`` and the report CLI over the three
trace artifacts that ``bench_obs_trace.py`` writes: 31 runs. The
end-to-end workers start ``benchmarks/e2e/worker.py`` directly, because
``run.py`` resets ``PYTHONPATH`` and so would drop the hook.

``--tests`` adds one more run, the tier-1 suite, and splits the uncalled
defs into those that only tests call and those nothing calls.

Limits: a process that leaves through ``os._exit`` writes nothing, so
workers of a ``multiprocessing`` pool (sweep workers, for one) are not
captured, and what only they call shows as uncalled. Only the main thread
is profiled. The census runs the full paper benchmarks; Fig. 10 alone
takes several minutes and a few GiB. Benchmark reports go to the
git-ignored ``bench_out/`` and ``trace_artifacts/``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

HOOK = '''\
import atexit, cProfile, json, os, sys


class _Census(cProfile.Profile):
    def __call__(self, frame, event, arg):
        # A tool that paused profiling (pytest-benchmark does, around each
        # timed call) restores it with sys.setprofile(this object): hand
        # the events back to the C hook.
        sys.setprofile(None)
        self.enable()


_profiler = _Census()


def _dump():
    _profiler.disable()
    prefix = os.environ["CENSUS_PACKAGE"] + os.sep
    rows = sorted({
        (entry.code.co_filename, entry.code.co_firstlineno)
        for entry in _profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(prefix)
    })
    path = os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(rows, fh)


atexit.register(_dump)
_profiler.enable()
'''

PY = sys.executable
BENCH = ["-m", "pytest", "--benchmark-only", "-s", "-q", "-p",
         "no:cacheprovider"]
PAPER = ("fig01_crossover", "fig02_matrix_study", "fig07_load_balance",
         "fig09_dataset", "fig10_rnn", "table2_ablation",
         "table3_transformer", "table4_fig12_mobilenet", "ablation_design")
EXAMPLES = ("quickstart", "sparse_attention", "sparse_rnn",
            "mobilenet_inference", "pruning_workflow")
SMOKE = ("autotune", "batched", "dynamic_sparsity", "memory_pressure",
         "multi_gpu", "obs_trace", "sweep_engine")
WORKLOADS = ("rnn_infer", "transformer_fwd", "rigl_train", "corpus_plan")
#: Measured seconds of each end-to-end worker run.
E2E_SECONDS = 5.0
#: The workload of the one traced end-to-end run.
TRACED = "transformer_fwd"
TRACES = ("sweep_trace", "mobilenet_trace", "batched_attention_trace")


def programs(e2e_out: Path) -> list[tuple[str, list[str]]]:
    """The census runs, in order: ``(name, argv)``."""
    runs = [(f"paper:{name}", [PY, *BENCH, f"benchmarks/bench_{name}.py"])
            for name in PAPER]
    runs += [(f"example:{name}", [PY, f"examples/{name}.py"])
             for name in EXAMPLES]
    runs += [(f"smoke:{name}", [PY, f"benchmarks/bench_{name}.py", "--smoke"])
             for name in SMOKE]
    worker = [PY, "benchmarks/e2e/worker.py", "--seed", "0",
              "--seconds", str(E2E_SECONDS), "--out", str(e2e_out)]
    runs += [(f"e2e:{name}", [*worker, "--workload", name, "--trace", "0"])
             for name in WORKLOADS]
    runs.append((f"e2e:{TRACED}:trace",
                 [*worker, "--workload", TRACED, "--trace", "1"]))
    runs.append(("regress:check", [PY, "-m", "repro.obs.regress", "--check"]))
    runs.append(("export:check", [PY, "-m", "repro.obs.export", "--check"]))
    runs += [(f"report:{name}",
              [PY, "-m", "repro.obs.report", f"trace_artifacts/{name}.jsonl"])
             for name in TRACES]
    return runs


def census_defs() -> dict[tuple[str, int], tuple[str, int]]:
    """Every def under ``src/repro``: ``(file, first line) -> (qualified
    name, lines)``. The first line is the first decorator's, as in
    ``co_firstlineno``."""
    defs = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    defs[(str(path), first)] = (name,
                                                child.end_lineno - first + 1)
                    walk(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return defs


def run(argv: list[str], hook_dir: Path, out: Path) -> tuple[int, set]:
    """Run ``argv`` under the hook; return its exit code and the set of
    ``(file, first line)`` it called. A failing run's output tail goes to
    standard error."""
    out.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_HBM_CAP", "REPRO_CHAOS_SEED")
           and not k.startswith("REPRO_FLIGHT")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=f"{hook_dir}{os.pathsep}{SRC}",
               CENSUS_OUT=str(out), CENSUS_PACKAGE=str(PACKAGE))
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode:
        tail = proc.stdout.splitlines()[-25:]
        print("\n".join(["    " + line for line in tail]), file=sys.stderr)
    called = set()
    for dump in out.glob("*.json"):
        called.update(tuple(row) for row in json.loads(dump.read_text()))
    return proc.returncode, called


def total(rows) -> tuple[int, int]:
    rows = list(rows)
    return len(rows), sum(lines for _, lines in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run the tier-1 suite under the hook")
    args = parser.parse_args()

    defs = census_defs()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp = Path(tmp)
        hook_dir = tmp / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        (tmp / "e2e").mkdir()
        runs = programs(tmp / "e2e")
        suite = [("tests", [PY, "-m", "pytest", "-x", "-q", "-p",
                            "no:cacheprovider"])] if args.tests else []
        in_programs: set = set()
        in_tests: set = set()
        failed = 0
        for i, (name, argv) in enumerate(runs + suite):
            t0 = time.perf_counter()
            code, called = run(argv, hook_dir, tmp / f"run{i}")
            (in_tests if name == "tests" else in_programs).update(called)
            failed += code != 0
            print(f"exit {code:3d}  {time.perf_counter() - t0:7.1f} s  "
                  f"{name}", flush=True)

    dead = {key: defs[key] for key in defs if key not in in_programs}
    print()
    for (path, line), (name, lines) in sorted(dead.items()):
        mark = "" if not args.tests else (
            "  tests" if (path, line) in in_tests else "  dead")
        rel = Path(path).relative_to(SRC)
        print(f"{rel}:{line}  {name}  ({lines} lines){mark}")
    print()
    print("defs: %d (%d lines)" % total(defs.values()))
    print("uncalled in %d runs: %d (%d lines)"
          % (len(runs), *total(dead.values())))
    if args.tests:
        print("uncalled in runs and tests: %d (%d lines)" % total(
            v for k, v in dead.items() if k not in in_tests))
    print(f"runs with nonzero exit: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
