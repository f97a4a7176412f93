"""Set-up time of one library workload, measured in this fresh interpreter.

usage: python perfbench/setup_probe.py WORKLOAD SEED SIZES_JSON

Starts the clock on its first statement, imports hippomem and builds what
the workload builds before its first timed op, then prints
{"setup_s": seconds}. hippomem must be importable (the benchmark puts `src`
on PYTHONPATH). The `cli` workload's set-up is a bare `import hippomem.cli`,
which the benchmark times without this script.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import hippomem  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed, sizes = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    cls, default = WORKLOADS[name]
    cls(type(default)(**sizes)).setup(hippomem, seed, None)
    print(json.dumps({"setup_s": time.perf_counter() - _started}))


if __name__ == "__main__":
    main()
