"""End-to-end benchmark: four sparse workloads, host and simulated clocks.

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs in a fresh single-threaded Python process (``worker.py``),
one after another, with BLAS threads pinned to 1, ``PYTHONHASHSEED=0`` and
the ``REPRO_*`` overrides that change behaviour removed. Every metric is
printed by name with its unit. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace`` the per-layer ones. The exit code
is 0 only when every workload ran and every correctness check passed.
See ``README.md`` for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("rnn_infer", "transformer_fwd", "rigl_train", "corpus_plan")
DEFAULT_SECONDS = 15
#: A worker that outlives this is killed and counts as a failed run.
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_HBM_CAP", "REPRO_CHAOS_SEED")
        and not k.startswith("REPRO_FLIGHT")
    }
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def run_worker(name: str, args, env) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(args.out),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: worker timed out after {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: dict, commit: str) -> None:
    info = result["info"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']:g}  trace={result['trace']}")
    print(f"   nproc={info['nproc']}  python={info['python']}  "
          f"numpy={info['numpy']}  scipy={info['scipy']}  commit={commit}")
    print(f"   {info['iterations']} timed iterations, {info['beyond_p90']} "
          f"beyond p90; work unit: {info['work_per_iter']} "
          f"{info['work_unit']} per iteration")
    for section in ("end_to_end", "reported", "per_layer"):
        for name, metric in result[section].items():
            print(f"   {name:32s} {metric['value']:14.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"   {'error_rate':32s} {rate:14.6g} "
          f"({result['failed']} of {result['attempted']} iterations)")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced phase; report per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results and traces")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    env = pinned_env()
    commit = git_commit()
    names = (args.workload,) if args.workload else WORKLOADS
    results = []
    for name in names:
        result = run_worker(name, args, env)
        if result is None:
            return 1
        result["commit"] = commit
        (args.out / f"{name}-seed{args.seed}.json").write_text(
            json.dumps(result, indent=2) + "\n"
        )
        report(result, commit)
        results.append(result)

    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r[section].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
