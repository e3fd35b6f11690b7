#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Writes golden/sweep_digests.json (SHA-256 of each standard fading study's
CSV at the default seed) and golden/cli.json (exit code, stdout and CSV
digest of every CLI call, for every geometry seed the calls can use). Run it
only on a commit whose outputs are known to be right: the benchmark fails
any later commit whose outputs differ from these.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)
sys.path.insert(1, str(Path(sys.path[0]) / "src"))

from secnoma import run_sweep, write_results  # noqa: E402

from perfbench import clicalls, sweeps  # noqa: E402
from perfbench.common import DEFAULT_SEED, GOLDEN, ROOT  # noqa: E402


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        digests = {}
        for name in sweeps.STUDIES:
            path = workdir / f"{name}.csv"
            write_results(run_sweep(sweeps.study_spec(name, DEFAULT_SEED)), path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        _dump(GOLDEN / "sweep_digests.json", {"seed": DEFAULT_SEED, "trials": sweeps.TRIALS, "sha256": digests})

        reference = {}
        for seed in range(clicalls.GEOMETRY_SEEDS):
            for call in clicalls.make_calls(seed):
                if call.key in reference:
                    continue
                proc = clicalls.run_subprocess(call, workdir)
                csv = workdir / call.csv if call.csv else None
                reference[call.key] = {
                    "exit": proc.returncode,
                    "stdout": proc.stdout,
                    "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest() if csv else None,
                }
        _dump(GOLDEN / "cli.json", reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
