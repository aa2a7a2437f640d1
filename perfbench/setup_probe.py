"""Set-up time of one fresh interpreter: import rectconv and rectconv.cli,
then build the run config from a CLI config file.  Prints seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG.json
"""

import sys
import time

t0 = time.perf_counter()
import rectconv  # noqa: E402,F401
import rectconv.cli  # noqa: E402

rectconv.cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
