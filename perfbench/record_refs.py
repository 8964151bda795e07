"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/record_refs.py

For every op argument a round can hold (machine seeds 1..POOL), this runs
the op once under the tracer and stores its canonical outputs together with
the engine runs and simulated cycles it took, in perfbench/refs.json. Record
again only when a change to the simulated behaviour is intended, and say why
in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, import_qcpsim
from tracer import Tracer
from workloads import POOL, WORKLOADS


def main() -> int:
    q = import_qcpsim()
    tracer = Tracer(q)
    refs = {}
    for name, wl_cls in WORKLOADS.items():
        wl = wl_cls(q)
        entries = refs[name] = {}
        for args in wl.pool():
            tracer.reset()
            with tracer.installed():
                outcome = wl.op(args)
            entries[wl.key(args)] = {"out": wl.observe(outcome),
                                     "runs": tracer.engine_runs(),
                                     "cycles": tracer.model["sim_cycles"]}
        print(f"{name}: {len(entries)} references", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"recorded_at_commit": commit, "pool": POOL, "workloads": refs}
    (HERE / "refs.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
