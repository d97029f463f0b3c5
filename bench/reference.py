"""Record the reference outputs the benchmark checks every task against.

    python3 bench/reference.py

Evaluates every workload's whole input pool with the library as it stands
and writes ``bench/reference.json`` and ``bench/symbol_probe_ref.npz``.  Run it
only when the benchmark is (re)defined: a change that claims a speed-up must
reproduce these values, not re-record them.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import harness


def main() -> int:
    root = harness.bootstrap()
    import workloads

    fp = harness.fingerprint(seed=None)
    refs = {
        "schema": "primedir.bench.reference.v1",
        "recorded_with": {key: fp[key] for key in ("python", "numpy", "longdouble_nmant", "cpu_model")},
    }
    off = harness.Tracer(False)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for cls in workloads.WORKLOADS.values():
            t0 = time.perf_counter()
            wl = cls(None)
            wl.setup(off, tmp)
            refs[wl.name] = wl.record_reference()
            print(f"{wl.name}: recorded in {time.perf_counter() - t0:.1f} s", flush=True)
    with open(workloads.REFERENCE_JSON, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
