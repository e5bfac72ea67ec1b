#!/usr/bin/env python3
"""Write reference.json from the rngts code as it stands.

Runs every workload, full and smoke, at every seed-pool entry through a
traced in-process session, and records for each cell the digest of its
report section, the digest of its exact p-values, the raw words its test
drew and whether it has a FAILED verdict.  Run it from the repository
root, only on code whose reports are known to be right; the benchmark
then holds every later run to them:

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys

from run import ROOT, import_rngts


def main() -> int:
    import_rngts()
    import harness
    import reference
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_run" / "reference"
    cells = {}
    try:
        for variant, workloads in WORKLOADS.items():
            for name, workload in workloads.items():
                for seed in range(len(workload.seed_pool)):
                    inputs = workload.write_inputs(seed, workdir)
                    tracer = Tracer(harness.alias_map(workload))
                    harness.session(inputs, 1, tracer, workdir, "ref", {})
                    sections = reference.report_sections(workdir / "ref.xml")
                    if not (len(sections) == len(inputs.cells)
                            == len(tracer.cell_words)
                            == len(tracer.cell_pvalues)):
                        raise SystemExit(f"{variant} {name} {seed}: "
                                         "cell counts disagree")
                    for key, (_, _, _, test), words, pvalues in zip(
                            inputs.cells, sections, tracer.cell_words,
                            tracer.cell_pvalues):
                        if test.aborted is not None:
                            raise SystemExit(f"{key}: aborted: {test.aborted}")
                        entry = {
                            "digest": reference.section_digest(test),
                            "p": reference.pvalue_digest(pvalues),
                            "words": words,
                            "failed": reference.has_failed_verdict(test),
                        }
                        if cells.setdefault(key, entry) != entry:
                            raise SystemExit(f"{key}: differs between runs")
                    print(f"{variant} {name} seed {seed}: "
                          f"{len(inputs.cells)} cells", file=sys.stderr)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(cells[key])}"
                       for key in sorted(cells))
    reference.DEFAULT_PATH.write_text('{"cells": {\n' + lines + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
