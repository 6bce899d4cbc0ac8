"""Benchmark entry point: one workload in a fresh single-threaded process.

    python3 perfbench/run.py --workload {paper,novel-members,concept-space} \
        --seed N --seconds S --trace {0,1}

The workload runs in a child process (worker.py) so that peak_rss_mb is
that workload's own high-water mark, with numpy/BLAS limited to one thread
and a fixed string-hash seed, so runs differ only in their input seed.
The child's output is passed through; its last line is the result JSON.
Exits non-zero without a result when the wugnet sources are missing, the
child fails, or the child overruns its time limit.

`--record-digests` instead records the output digests of one round for
this workload and seed into perfbench/digests.json.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170

SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main() -> int:
    if not (SRC / "wugnet" / "__init__.py").is_file():
        print(f"perfbench: no wugnet sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        child = subprocess.run([sys.executable, str(HERE / "worker.py"), *sys.argv[1:]],
                               env=env, cwd=ROOT, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload overran {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
