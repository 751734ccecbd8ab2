"""Record the reference outputs that checks.py compares ``tables`` and ``maps`` with.

    python3 perfbench/record_reference.py

Run from the root of a dqsim source tree at the commit whose outputs are
the reference.  Writes perfbench/reference/<command>.csv.gz for every
command of those two workloads.
"""

import gzip
import os
import subprocess
import sys

from checks import REFERENCE_DIR, reference_path
from run import ROOT, workload_commands


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for workload in ("tables", "maps"):
        for argv in workload_commands(workload, seed=0):
            out = subprocess.run(
                [sys.executable, "-m", "dqsim.cli", *argv],
                cwd=ROOT, env=env, check=True, capture_output=True, encoding="utf-8",
            ).stdout
            with open(reference_path(argv), "wb") as fh:
                fh.write(gzip.compress(out.encode("utf-8"), mtime=0))
            print(reference_path(argv).name, len(out.splitlines()) - 1, "rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
