"""One set-up of a workload, run in its own process by bench/run.py.

Times importing delayboost and writing the workload's inputs into --dir
(for prepare-score also training and saving the scored model).  A fresh
process makes each repetition pay the import again and keeps set-up memory
out of the measuring process's peak.  Prints one JSON object:
{"seconds": ..., "import_s": ..., "spans": [...]}.

    python3 bench/setup_inputs.py --workload NAME --seed N --dir DIR --trace 0|1
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH)]

from spans import Tracer  # noqa: E402  (standard library only, so not timed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads  # imports delayboost and NumPy

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.dir)
    tracer = Tracer()
    if args.trace:
        with tracer.installed(workloads.BOUNDARIES), tracer.span("setup"):
            workload.setup()
    else:
        workload.setup()
    end = time.perf_counter()
    print(json.dumps({"seconds": end - start, "import_s": imported - start, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
