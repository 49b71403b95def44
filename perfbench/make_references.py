"""Write the reference CSVs the benchmark checks against.

    python3 perfbench/make_references.py

Runs every input of every workload once through the CLI and stores the
CSVs under perfbench/references/<workload>/.  The committed files were
made from the program before any optimization; regenerate them only when a
change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import sys

from run import REFERENCE_DIR, import_program


def write_references(reference_dir=REFERENCE_DIR, smoke: bool = False) -> None:
    import workloads

    for workload in workloads.WORKLOADS:
        directory = reference_dir / workload
        inputs = workloads.reference_inputs(workload, smoke)
        workloads.write_inputs(inputs, directory)
        for entry in inputs:
            for job, code, _ in workloads.run_pass(entry, directory):
                if code != 0:
                    raise RuntimeError(f"{workload} {job.label}: CLI exited with {code}")
                (directory / f"{job.label}.json").unlink()


if __name__ == "__main__":
    import_program()
    write_references()
    sys.exit(0)
