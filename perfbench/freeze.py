"""Record the frozen workload values in perfbench/frozen.json.

    python3 perfbench/freeze.py

Writes, for every workload, the SHA-256 of the inputs generated from the
primary and the confirmation seed, and the reference values (losses after
the fixed train steps, or eval metrics) on the primary seed. Run it only in
a change that means to redefine a workload; ``run.py`` fails whenever the
library no longer reproduces these values.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = {"primary": 0, "confirm": 1}
REFERENCE_STEPS = 3
REFERENCE_RTOL = 1e-6


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import workloads

    out = {
        "seeds": SEEDS,
        "reference_steps": REFERENCE_STEPS,
        "reference_rtol": REFERENCE_RTOL,
        "workloads": {},
    }
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name, wl in workloads.WORKLOADS.items():
            hashes = {str(s): workloads.input_hash(wl.generate(s)) for s in SEEDS.values()}
            primary = SEEDS["primary"]
            ref = wl.reference(wl.generate(primary), primary, REFERENCE_STEPS, Path(tmp))
            out["workloads"][name] = {"input_sha256": hashes, "reference": ref}
    (run.HERE / "frozen.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
