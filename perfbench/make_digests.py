"""Record the reference report digests the benchmark checks against.

    python3 perfbench/make_digests.py

Run from the root of a checkout of the commit whose reports are the
reference. It runs every check of every workload once (for `refuted`,
every corruption a pass can draw) through the benchmark's gate, which
checks each verdict and re-checks each witness or counterexample, and
writes perfbench/digests.json. It writes nothing if any check fails.
"""

from __future__ import annotations

import json
import os
import random
import sys

from run import DIGESTS, ROOT, WORK, Gate, fresh_import, run_pass
from workloads import VOTING, WORKLOADS, corruptions, refuted_ops


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    cak = fresh_import()
    ops = []
    for name, workload in WORKLOADS.items():
        if name != "refuted":
            ops += workload.generate(cak, random.Random(0))
    ops += refuted_ops(cak, [c for shape in VOTING for c in corruptions(cak, shape)])
    gate = Gate({}, record=True)
    run_pass(ops, False, gate)
    if gate.failed:
        print(f"{gate.failed} checks failed; nothing written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(gate.digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(gate.digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
