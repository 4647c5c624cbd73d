"""Write the reference answers of every pool member to bench/reference.json.

    python3 bench/reference.py [--workload saddle-nd ...]

Runs each pool member of the generated task sets (``saddle-nd`` and the
thread probe's ``mc-paths``) once, in process, under every output check of
``bench/run.py`` except the reference comparison itself, and stores the
answers. The ``cli-1d`` table (the bundled models, with the exact targets of
criteria 1 and 2) is kept as it is. If any check fails, the script prints the
failures, writes nothing and exits 1. Run it only after a change that moves
answers on purpose, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from generate import SLOTS, pool_tasks, write
from run import REFERENCE, SRC, WORK, Runner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SLOTS), action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    failed = False
    for workload in args.workload or sorted(SLOTS):
        tasks, models = pool_tasks(workload)
        input_dir = WORK / f"pool-{workload}"
        write(input_dir, {"workload": workload, "pool": True}, tasks, models)
        runner = Runner(workload, -1, tasks, input_dir, references={})
        for index in range(len(tasks)):
            runner.run(index)
        print(f"{workload}: {runner.attempted} tasks, {runner.failed} failed")
        for problem in runner.problems:
            print(f"  FAILED {problem}")
        failed = failed or runner.failed > 0
        table[workload] = runner.answers
    if failed:
        return 1
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
