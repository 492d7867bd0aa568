"""Install the span tracer in every Python process of a traced run.

This directory is put on PYTHONPATH only for traced operations, so the
operation process and any worker it starts (spawn, forkserver or fork)
trace the same layer functions into the same trace directory.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import tracer

    tracer.install()
