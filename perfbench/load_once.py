"""Set-up probe: import onionlabel and load one vote CSV in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/load_once.py VOTES.csv N K

Prints one JSON object whose ``setup_s`` is the time from before the import
to after the ``load_pws_matrix`` call.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import onionlabel  # noqa: E402

onionlabel.load_pws_matrix(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
print(json.dumps({"setup_s": time.perf_counter() - t0}))
