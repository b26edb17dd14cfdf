"""Record the default-seed digest of every workload in expected_digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only when a change is meant to alter the program's outputs, and say
so in the change; the benchmark fails every run whose digest differs.
"""

import json

import workloads
from child import EXPECTED


def main() -> None:
    got = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        got[name], failures = workloads.golden_digest(cls)
        if failures:
            raise SystemExit(f"{name}: {failures}")
    EXPECTED.write_text(json.dumps(got, indent=1) + "\n")


if __name__ == "__main__":
    main()
