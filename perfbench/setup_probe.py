"""Child process that times one set-up: `import secnoma` and building a
workload's inputs. Prints one JSON object with the two times in seconds.

Usage: setup_probe.py <workload> <seed> <workdir>, with the checkout's
`src` on PYTHONPATH.
"""
import json
import sys
import time
from pathlib import Path


def main(argv):
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    import secnoma  # noqa: F401

    t1 = time.perf_counter()
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    from perfbench.workloads import build

    build(workload, seed, workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
