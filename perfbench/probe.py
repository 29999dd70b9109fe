"""Set-up probe: import nestedmzi, run one op of a workload, report the time.

run.py starts this in a fresh interpreter, as ``probe.py <workload>
<workdir>``, and times it from the start of the process to the
``ready <perf_counter>`` line it prints. The op is op 0 of the default
seed, so set-up time does not depend on the run's seed.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nestedmzi  # noqa: E402,F401  (the import is what is being timed)
import workloads  # noqa: E402

w = workloads.make(sys.argv[1], workloads.DEFAULT_SEED, Path(sys.argv[2]))
w.run(w.inputs(0))
print(f"ready {time.perf_counter()!r}", flush=True)
