"""One cold set-up: import operadics, load a workload's inputs, warm up, exit.

run.py times this script as a fresh interpreter to measure ``setup_s``.

    python3 perfbench/probe.py --workload NAME --inputs DIR
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    args = parser.parse_args()
    WORKLOADS[args.workload]().setup(args.inputs)


if __name__ == "__main__":
    main()
