"""One benchmark operation in a fresh process: set up, run, time.

Usage: op.py WORKLOAD CASE_JSON OUT_DIR RESULT_JSON

Set-up (interpreter start, imports, and the workload's untimed set-up such
as parsing the lexicon) ends at the ``ready`` stamp, taken on the
system-wide monotonic clock so the launching process can subtract its own
launch stamp. The entry call is timed on wall and CPU clocks; the CPU time
and peak RSS include any worker processes the call starts.
"""

import json
import resource
import sys
import time

import workloads


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def main(argv):
    name, case_path, out_dir, result_path = argv
    workload = workloads.WORKLOADS[name]
    with open(case_path, encoding="utf-8") as fh:
        case = json.load(fh)
    state = workload.setup(case)
    ready = time.monotonic()
    cpu0, _ = _usage()
    start = time.perf_counter()
    workload.run(state, out_dir)
    wall = time.perf_counter() - start
    cpu1, max_rss_kb = _usage()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "wall_s": wall, "cpu_s": cpu1 - cpu0,
                   "peak_rss_mb": max_rss_kb / 1024.0}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
