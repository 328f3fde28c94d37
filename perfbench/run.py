"""Benchmark entry point: one seeded run of one workload.

    python3 perfbench/run.py --workload train|ask|eval --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Three processes run in turn, each fresh:
gen.py writes the seeded inputs, prepare.py has the program write the
artifacts the workload loads, and measure.py is the measured process, so
its peak memory counts only the program.  BLAS runs single-threaded in all
of them.  The last line of output is the result JSON; the lines before it
describe the host.  Work files live in .bench_work/ and are removed at the
end; the traced run keeps its spans in .bench_out/spans-<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import common

BLAS_THREADS = "1"
BUDGET_S = 175  # every run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("train", "ask", "eval"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(common.SRC_DIR, "kbqa")):
        print(f"kbqa sources not found under {common.SRC_DIR}", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    work = os.path.join(common.REPO_ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(common.REPO_ROOT, ".bench_out")
    script = lambda name: os.path.join(common.BENCH_DIR, name)  # noqa: E731
    steps = [[script("gen.py"), "--seed", str(args.seed), "--out", work]]
    if args.workload != "train":
        steps.append([script("prepare.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--dir", work])
    measured = [script("measure.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", work]
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
        measured += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.jsonl")]
    deadline = time.monotonic() + BUDGET_S
    try:
        for step in steps:
            subprocess.run([sys.executable, *step], env=env, check=True,
                           timeout=deadline - time.monotonic())
        proc = subprocess.run([sys.executable, *measured], env=env, check=True,
                              timeout=deadline - time.monotonic(), stdout=subprocess.PIPE,
                              text=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(proc.stdout, end="")
    return 0 if json.loads(proc.stdout.strip().splitlines()[-1])["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
