#!/usr/bin/env python3
"""Run the standard sweep studies and drop one CSV per study.

Each study is one `specs/<name>.spec` file, run as `secnoma sweep` runs it.
Deterministic for a fixed seed; rerunning overwrites byte-identical files.
"""
import argparse
import pathlib
import sys

from secnoma import cli

SPEC_DIR = pathlib.Path(__file__).resolve().parent / "specs"


def study_specs():
    """Study name (the file stem) -> spec file, for every file in SPEC_DIR."""
    return {path.stem: path for path in sorted(SPEC_DIR.glob("*.spec"))}


def main(argv=None):
    studies = study_specs()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="directory for the CSVs")
    ap.add_argument("--only", nargs="*", choices=sorted(studies), help="subset of studies")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.only or sorted(studies):
        status = cli.main(["sweep", "--config", str(studies[name]), "--out", str(outdir / f"{name}.csv")])
        if status != cli.EXIT_OK:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
