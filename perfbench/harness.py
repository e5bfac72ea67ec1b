"""The measuring half of run.py; imported once rngts is importable."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import reference
import rngts.cli as cli
from rngts._jit import JIT_ENABLED
from rngts.genkit.adapters import file_stream
from rngts.runner import resolve_generator, resolve_test
from spans import LAYERS, Tracer, clear_law_caches
from workloads import CATALOG_TESTS, MICRO_ENGINES, REPORT_DATE, WORKLOADS

SETUP_REPS = 3     # per invocation
SETUP_CODE = "import sys, rngts.cli; rngts.cli.load_manifest(sys.argv[1])"
MICRO_BLOCK = 16384
TRACEBACK = "Traceback (most recent call last)"

_now = time.perf_counter


def environment() -> dict:
    """What a result depends on besides the code; compare.py checks it."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jit_enabled": bool(JIT_ENABLED),
        "kernel_mode": "jit" if JIT_ENABLED else "interpreted",
    }


def alias_map(workload) -> dict:
    """TestCase.test_name -> test alias, for every catalog test."""
    return {resolve_test(a)(**workload.params(a)).test_name: a
            for a in CATALOG_TESTS}


def cells_failed(rc: int, errors: str, xml: Path, html: Path, inputs,
                 table: dict) -> int:
    """Exit 2, a traceback or a missing report fails every cell.

    Exit 1 is normal: randu and chance verdicts produce FAILED results.
    An exit code other than the reference's fails at least one cell.
    """
    if rc not in (0, 1) or TRACEBACK in errors:
        return len(inputs.cells)
    failed = reference.failed_cells(xml, html, inputs.cells, table)
    if rc != reference.expected_exit(inputs.cells, table):
        failed = max(failed, 1)
    return failed


# ---------------------------------------------------------------------------
# --trace 0: the CLI as a user runs it


def run_child(argv: list, root: Path, stderr_path: Path) -> tuple:
    """Run one child to completion: (wall s, peak RSS MB, exit code)."""
    paths = [str(root / "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    with open(stderr_path, "wb") as err:
        start = _now()
        proc = subprocess.Popen(argv, env=env, cwd=root,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = _now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def end_to_end(inputs, table: dict, seconds: float, root: Path,
               workdir: Path) -> dict:
    err = workdir / "child.err"
    xml, html = workdir / "report.xml", workdir / "report.html"
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(inputs.manifest)]
    run_argv = [sys.executable, "-m", "rngts.cli", "run",
                "--config", str(inputs.manifest), "--out", str(xml),
                "--html", str(html), "--jobs", str(inputs.jobs),
                "--date", REPORT_DATE]
    words = inputs.warmup_words + sum(table[k]["words"] for k in inputs.cells
                                      if k in table)
    setup, walls, rss, attempted, failed = [], [], [], 0, 0
    start = _now()
    last = 0.0
    # another round starts only if one more like the last ends in time
    while not walls or _now() - start + last <= seconds:
        began = _now()
        # set-up samples are spread over the run like the invocations,
        # so drift in machine speed reaches both alike
        for _ in range(SETUP_REPS):
            wall, _, rc = run_child(setup_argv, root, err)
            if rc != 0:
                sys.stderr.write(err.read_text(errors="replace"))
                raise SystemExit("error: the set-up child failed")
            setup.append(wall)
        xml.unlink(missing_ok=True)
        html.unlink(missing_ok=True)
        wall, peak, rc = run_child(run_argv, root, err)
        walls.append(wall)
        rss.append(peak)
        attempted += len(inputs.cells)
        failed += cells_failed(rc, err.read_text(errors="replace"), xml,
                               html, inputs, table)
        last = _now() - began
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "words_per_s": (statistics.median(words / w for w in walls),
                            "words/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        },
        "attempted": attempted,
        "failed": failed,
        "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss,
                    "words": words},
    }


# ---------------------------------------------------------------------------
# --trace 1: in-process sessions with spans


def session(inputs, jobs: int, tracer: Tracer, workdir: Path, tag: str,
            table: dict) -> tuple:
    """Run the manifest through rngts.cli.main: (wall s, failed cells)."""
    xml, html = workdir / f"{tag}.xml", workdir / f"{tag}.html"
    argv = ["run", "--config", str(inputs.manifest), "--out", str(xml),
            "--html", str(html), "--jobs", str(jobs), "--date", REPORT_DATE]
    clear_law_caches()
    tracer.install()
    rc, errors = 2, ""
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            root = tracer.enter("cli", "main") if tracer.full else None
            start = _now()
            try:
                rc = cli.main(argv)
            except Exception:
                errors = traceback.format_exc()
            wall = _now() - start
            if root is not None:
                tracer.exit(root)
                wall = tracer.spans[root][4] - tracer.spans[root][3]
    finally:
        tracer.restore()
    sys.stderr.write(errors)
    failed = cells_failed(rc, errors, xml, html, inputs, table)
    if tracer.full:
        failed = max(failed, traced_mismatches(tracer, inputs, table))
    return wall, failed


def traced_mismatches(tracer: Tracer, inputs, table: dict) -> int:
    """Cells whose test drew another number of raw words than recorded,
    or whose exact p-values differ from the recorded ones."""
    if not (len(tracer.cell_words) == len(tracer.cell_pvalues)
            == len(inputs.cells)):
        return len(inputs.cells)
    return sum(
        1 for key, words, pvalues in zip(inputs.cells, tracer.cell_words,
                                         tracer.cell_pvalues)
        if key not in table or table[key]["words"] != words
        or table[key]["p"] != reference.pvalue_digest(pvalues))


def engine_rates(inputs, budget: float) -> dict:
    """Mwords/s of a seed + next_block loop on each engine by itself."""
    file_words = inputs.file_path.stat().st_size // 4
    rates = {}
    for name in MICRO_ENGINES:
        start = _now()
        words = 0
        if name == "file":
            while words == 0 or _now() - start < budget:
                stream = file_stream(str(inputs.file_path))
                try:
                    for _ in range(file_words // MICRO_BLOCK):
                        stream.next_block(MICRO_BLOCK)
                        words += MICRO_BLOCK
                finally:
                    stream.close()
        else:
            stream = resolve_generator(name)()
            stream.seed(inputs.first_seed)
            while words == 0 or _now() - start < budget:
                stream.next_block(MICRO_BLOCK)
                words += MICRO_BLOCK
        rates[name] = words / (_now() - start) / 1e6
    return rates


def per_layer(workload, seed: int, inputs, table: dict, workdir: Path,
              micro_budget: float) -> dict:
    alias_of = alias_map(workload)
    plain = Tracer(alias_of, full=False)
    plain_wall, failed = session(inputs, 1, plain, workdir, "plain", table)
    traced = Tracer(alias_of)
    traced_wall, failed_traced = session(inputs, 1, traced, workdir,
                                         "traced", table)
    parallel = Tracer(alias_of, full=False)
    _, failed_parallel = session(inputs, 2, parallel, workdir, "jobs2", table)
    attempted = 3 * len(inputs.cells)
    failed += failed_traced + failed_parallel

    layer_self, test_self = traced.self_times()
    if (min(layer_self.values()) < -1e-6
            or abs(sum(layer_self.values()) - traced_wall)
            > 1e-6 * traced_wall):
        raise SystemExit(f"error: layer self times {layer_self} do not add "
                         f"up to the traced wall {traced_wall}")
    test_words = dict(traced.words)
    exact_law = traced.total("battery", "exact_law")

    # Tests the workload does not run are timed on their catalog cells, so
    # every run reports all 22; the layer totals stay the workload's own.
    absent = tuple(t for t in CATALOG_TESTS if t not in workload.tests)
    if absent:
        catalog = WORKLOADS[workload.variant]["catalog"]
        probe_inputs = catalog.write_inputs(seed, workdir / "probe",
                                            tests=absent)
        probe = Tracer(alias_of)
        _, failed_probe = session(probe_inputs, 1, probe, workdir, "probe",
                                  table)
        attempted += len(probe_inputs.cells)
        failed += failed_probe
        test_self.update(probe.self_times()[1])
        test_words.update(probe.words)
        exact_law = probe.total("battery", "exact_law")

    metrics = {
        "genkit.busy_s": (layer_self["genkit"], "s"),
        "genkit.next_block_calls": (traced.next_block_calls, "count"),
        "genkit.words": (sum(traced.words.values()) + traced.warmup_words,
                         "words"),
    }
    for name, rate in engine_rates(inputs, micro_budget).items():
        metrics[f"genkit.{name}.mwords_per_s"] = (rate, "Mwords/s")
    metrics["battery.busy_s"] = (layer_self["battery"], "s")
    metrics["battery.exact_law_s"] = (exact_law, "s")
    for alias in CATALOG_TESTS:
        metrics[f"battery.{alias}.self_s"] = (test_self[alias], "s")
    for alias in CATALOG_TESTS:
        metrics[f"battery.{alias}.words"] = (test_words[alias], "words")
    cells = plain.cell_seconds
    metrics.update({
        "stats.busy_s": (layer_self["stats"], "s"),
        "stats.calls": (traced.count("stats"), "count"),
        "runner.self_s": (layer_self["runner"], "s"),
        "runner.overhead_s": (traced.total("runner", "run_suite")
                              - traced.total("battery", "execute"), "s"),
        "runner.cell_p50_s": (statistics.median(cells), "s"),
        "runner.cell_p90_s": (
            statistics.quantiles(cells, n=10, method="inclusive")[8], "s"),
        "runner.parallel_efficiency": (
            sum(cells) / (2 * parallel.run_suite_seconds), "ratio"),
        "report.write_xml_s": (traced.total("report", "write_xml"), "s"),
        "report.render_html_s": (traced.total("report", "render_html"), "s"),
        "report.xml_bytes": ((workdir / "traced.xml").stat().st_size,
                             "bytes"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    })
    shares = {layer: layer_self[layer] / traced_wall for layer in LAYERS}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "samples": {"layer_share": shares, "plain_wall_s": plain_wall}}


# ---------------------------------------------------------------------------


def main(args, root: Path) -> int:
    variant = "smoke" if args.smoke else "full"
    workload = WORKLOADS[variant][args.workload]
    table = reference.load(args.reference or reference.DEFAULT_PATH)
    work = root / ".bench_run"
    workdir = work / f"{args.workload}-{os.getpid()}"
    try:
        inputs = workload.write_inputs(args.seed, workdir)
        if args.trace:
            micro_budget = 0.005 if args.smoke else 0.25
            result = per_layer(workload, args.seed, inputs, table, workdir,
                               micro_budget)
        else:
            result = end_to_end(inputs, table, args.seconds, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()

    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(f"{'failed_cell_frac':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} cells)")
    if "layer_share" in result["samples"]:
        print("share of the traced wall: " + ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in result["samples"]["layer_share"].items()))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "variant": variant, "env": environment(),
        "failed_cell_frac": failed / attempted,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "samples": result["samples"],
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1
