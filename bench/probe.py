"""Child-process helpers for `run.py`, started with `src` on PYTHONPATH.

    probe.py inputs WORKLOAD SEED WORKDIR   print the workload's spec (JSON)
    probe.py setup                          read a spec on stdin, time
                                            `import yslot` plus the
                                            workload's set-up, print
                                            {"setup_s": ...}

Inputs are generated in a child so that the memory the montecarlo search
uses never shows in the measuring process's peak RSS.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["inputs"]:
        import workloads
        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        print(json.dumps(workloads.inputs(workload, seed, workdir)))
        return 0
    if argv[:1] == ["setup"]:
        spec = json.load(sys.stdin)
        start = time.perf_counter()
        import workloads  # imports yslot
        workloads.setup(spec)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
