"""Run one rlp command under the benchmark's span tracer and save the spans.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS_JSON <rlp arguments...>

The traced ``cli-1d`` pass of ``bench/run.py`` starts this in place of
``python -m rlp.cli`` and merges the saved spans of every task.
"""

import json
import sys
from pathlib import Path

import rlp.cli
from spans import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return rlp.cli.main(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
