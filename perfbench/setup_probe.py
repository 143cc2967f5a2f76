"""Set-up probe: a fresh process imports cupgeo and builds one workload's inputs.

Usage, from the root of a cupgeo checkout::

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line, ``{"import_s": ...}``, as soon as the inputs exist;
the parent takes the time from spawning this process to reading that line.
Then it runs the host-speed probe of ``calibration.py`` and prints
``{"probe_s": ...}``, seconds per rep: the speed of the core this process
ran on, just after its set-up.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

t0 = time.perf_counter()
import cupgeo.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"import_s": import_s}), flush=True)

import calibration  # noqa: E402

calibration.timed("interp", 5)
print(json.dumps({"probe_s": calibration.timed("interp", 100)}), flush=True)
