"""Rewrite perfbench/digests.json from the library in ./src.

    python3 perfbench/pin_digests.py

The pinned digests are the sweep gate's reference: run this only on a commit
whose outputs are trusted, and commit the file with a note saying which.
"""

import json
import sys

from run import HERE, cap_threads, import_library


def main():
    cap_threads()
    _, workloads = import_library()
    pinned = {}
    for name in ("ela_sweep", "ca_sweep"):
        sweep = workloads.make(name)
        sweep.setup(workloads.GATE_SEED)
        error = sweep.check(0, sweep.op(0))
        if error:
            sys.exit(f"error: {name}: {error}")
        pinned[name] = sweep.reference
    pinned["toy_train"] = {"losses": workloads.train_toy_losses(workloads.GATE_SEED)}
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {HERE / 'digests.json'}")


if __name__ == "__main__":
    main()
