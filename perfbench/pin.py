"""Record the exact-output pins: python3 perfbench/pin.py

Runs every workload at the default seed 0 and stores, for each pinned
item, its exit code and the sha256 of its ``--json`` stdout in
``pins.json``, keyed by the item's content address. Run it on the commit
whose outputs are the reference; every later run compares against them.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in workloads.WORKLOADS:
            record = os.path.join(tmp, f"{workload}.json")
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", workload, "--seed", "0", "--record", record],
                check=True, stdout=subprocess.DEVNULL,
            )
            with open(record, encoding="utf-8") as fh:
                pins.update(json.load(fh))
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        rows = (f"{json.dumps(key)}: {json.dumps(pin)}" for key, pin in sorted(pins.items()))
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"pinned {len(pins)} items")


if __name__ == "__main__":
    main()
