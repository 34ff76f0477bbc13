"""Record the reference behaviour metrics that run.py checks against.

    python3 bench/make_reference.py WORKLOAD [WORKLOAD ...]

Runs one untraced pass of every input set of each named workload and stores
its medians (mae.*, effort.*) in bench/reference.json, keeping the entries of
other workloads.  Re-record only for a deliberate behaviour change, and say so
where the change is described.
"""

import json
import os
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main(names):
    os.chdir(run.ROOT)
    for name in names:
        wl = workloads.WORKLOADS[name]
        entries = {}
        for input_set in range(workloads.INPUT_SETS):
            units = wl.prepare(input_set)
            outputs = [[] for _ in units]
            ops = workloads.Ops()
            run.run_pass(wl, units, ops, None, outputs)
            if ops.failed:
                raise SystemExit(f"{name} input set {input_set}: {ops.errors}")
            entries[str(input_set)] = wl.summary([o[0] for o in outputs])
            print(name, input_set, entries[str(input_set)], flush=True)
        # Read just before writing, so recorders for other workloads can run
        # at the same time.
        table = json.loads(workloads.REFERENCE.read_text())
        table[name] = entries
        workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
