"""Write perfbench/reference.json: the checked values of every input in
every workload's pool, computed by the package as it stands.

    python3 perfbench/make_reference.py

Run from the repository root.  Regenerating the file changes what the
benchmark accepts as correct, so it belongs in a change that alters the
package's results on purpose and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        reference[name] = {
            workload.reference_key(kind, key): workload.summary(kind, key, workload.call(kind, key))
            for kind, key in workload.pool_ops()
        }
        print(f"{name}: {len(reference[name])} reference entries", file=sys.stderr)
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
