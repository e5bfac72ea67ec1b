"""Command line behavior: subcommands, precedence, exit codes.

Exit code contract: 0 clean, 1 when the produced report contains any
FAILED verdict, 2 on configuration or parse errors.  The run
subcommand with the pinned date must reproduce the golden report byte
for byte through the whole stack (manifest, registry, suite, writer).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rngts
from rngts.cli import main
from rngts.report import parse_xml
from rngts.runner import generator_names, test_names as catalog_test_names

GOLDEN = Path(__file__).parent / "data" / "golden.xml"


def _manifest(tmp_path, **overrides):
    data = {
        "generators": [{"name": "mt19937"}],
        "seeds": [331],
        "levels": [0.05, 0.95],
        "tests": [{"name": "chisqr_uniformity"}],
    }
    data.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestListing:
    def test_list_tests(self, capsys):
        assert main(["list-tests"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == catalog_test_names()

    def test_list_generators(self, capsys):
        assert main(["list-generators"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == generator_names()


class TestRun:
    def test_reproduces_golden_bytes(self, tmp_path, capfd):
        out = tmp_path / "report.xml"
        code = main(["run", "--config", _manifest(tmp_path),
                     "--out", str(out), "--date", "2025-06-01"])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()
        captured = capfd.readouterr()
        assert captured.out == ""
        assert ("mt19937 seed=331 Chi-Square-Uniformity-Test: done"
                in captured.err)

    def test_stdout_with_dash(self, tmp_path, capfd):
        code = main(["run", "--config", _manifest(tmp_path),
                     "--out", "-", "--date", "2025-06-01"])
        assert code == 0
        assert capfd.readouterr().out.encode() == GOLDEN.read_bytes()

    def test_stdout_is_the_default_sink(self, tmp_path, capfd):
        code = main(["run", "--config", _manifest(tmp_path),
                     "--date", "2025-06-01"])
        assert code == 0
        assert capfd.readouterr().out.encode() == GOLDEN.read_bytes()

    def test_manifest_output_path_used_without_flag(self, tmp_path, capfd):
        target = tmp_path / "from_manifest.xml"
        config = _manifest(tmp_path, output=str(target))
        assert main(["run", "--config", config,
                     "--date", "2025-06-01"]) == 0
        assert target.read_bytes() == GOLDEN.read_bytes()
        assert capfd.readouterr().out == ""

    def test_failed_verdict_exits_one(self, tmp_path, capfd):
        # the pinned p-value 0.7146... exceeds a 0.714 right-tail level
        config = _manifest(tmp_path, levels=[0.714])
        out = tmp_path / "r.xml"
        code = main(["run", "--config", config, "--out", str(out)])
        assert code == 1
        assert b"FAILED" in out.read_bytes()

    def test_html_flag_renders_page(self, tmp_path, capfd):
        page = tmp_path / "report.html"
        code = main(["run", "--config", _manifest(tmp_path),
                     "--out", str(tmp_path / "r.xml"),
                     "--html", str(page)])
        assert code == 0
        text = page.read_bytes()
        assert text.startswith(b"<!DOCTYPE html>")
        assert b"241.761" in text

    def test_unencodable_label_still_writes_report(self, tmp_path, capfd):
        # a lone surrogate cannot be encoded as UTF-8; the cell aborts on
        # the short file, and both reports are written all the same
        words = tmp_path / "words.bin"
        words.write_bytes(bytes(400))
        config = _manifest(tmp_path, generators=[
            {"name": "file", "path": str(words), "label": "bad\ud800"}])
        out = tmp_path / "r.xml"
        page = tmp_path / "r.html"
        assert main(["run", "--config", config, "--out", str(out),
                     "--html", str(page)]) in (0, 1)
        doc = parse_xml(str(out))
        assert doc.generators[0].name == "bad\\ud800"
        assert doc.generators[0].seeds[0].tests[0].aborted is not None
        assert b"bad\\ud800" in page.read_bytes()

    def test_jobs_flag_beats_garbage_env(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("RNGTS_JOBS", "junk")
        out = tmp_path / "r.xml"
        code = main(["run", "--config", _manifest(tmp_path),
                     "--out", str(out), "--jobs", "2",
                     "--date", "2025-06-01"])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_jobs_env_applied(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("RNGTS_JOBS", "4")
        out = tmp_path / "r.xml"
        code = main(["run", "--config", _manifest(tmp_path),
                     "--out", str(out), "--date", "2025-06-01"])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()


class TestErrorExits:
    def test_missing_manifest(self, tmp_path, capfd):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capfd.readouterr().err

    def test_malformed_manifest(self, tmp_path, capfd):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        assert main(["run", "--config", str(bad)]) == 2
        boolean_seed = _manifest(tmp_path, seeds=[True])
        assert main(["run", "--config", boolean_seed]) == 2
        # JSON's NaN and 1e309 load as non-finite floats
        for test in ("minimum_distance", "parking_lot"):
            for side in (float("nan"), float("1e309")):
                config = _manifest(tmp_path, tests=[
                    {"name": test, "parameters": {"side": side}}])
                capfd.readouterr()
                assert main(["run", "--config", config]) == 2
                assert "side must be finite" in capfd.readouterr().err

    def test_bad_date(self, tmp_path, capfd):
        code = main(["run", "--config", _manifest(tmp_path),
                     "--date", "2025-13-40"])
        assert code == 2
        assert "YYYY-MM-DD" in capfd.readouterr().err

    def test_bad_jobs_env(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("RNGTS_JOBS", "zero point five")
        code = main(["run", "--config", _manifest(tmp_path)])
        assert code == 2
        assert "RNGTS_JOBS" in capfd.readouterr().err

    def test_nonpositive_jobs_env(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("RNGTS_JOBS", "0")
        assert main(["run", "--config", _manifest(tmp_path)]) == 2

    def test_unwritable_output(self, tmp_path, capfd):
        target = tmp_path / "no" / "such" / "dir" / "r.xml"
        code = main(["run", "--config", _manifest(tmp_path),
                     "--out", str(target)])
        assert code == 2

    def test_render_missing_input(self, tmp_path, capfd):
        code = main(["render", "--in", str(tmp_path / "absent.xml"),
                     "--out", str(tmp_path / "out.html")])
        assert code == 2

    def test_render_malformed_input(self, tmp_path, capfd):
        bad = tmp_path / "bad.xml"
        bad.write_text("<broken")
        code = main(["render", "--in", str(bad),
                     "--out", str(tmp_path / "out.html")])
        assert code == 2
        assert "error:" in capfd.readouterr().err


class TestRender:
    def test_renders_golden_report(self, tmp_path):
        page = tmp_path / "golden.html"
        code = main(["render", "--in", str(GOLDEN), "--out", str(page)])
        assert code == 0
        text = page.read_bytes()
        assert text.startswith(b"<!DOCTYPE html>")
        assert b"241.761" in text and b"Chi-Square-Uniformity-Test" in text


def _child_env():
    """Environment for a child process that imports this checkout's rngts."""
    env = dict(os.environ)
    root = str(Path(rngts.__file__).parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (os.pathsep.join([root, inherited])
                         if inherited else root)
    return env


def _console_scripts():
    """The ``[project.scripts]`` table of the project's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _write_wrapper(bin_dir, name, target):
    """Write the console-script wrapper an installer writes for ``target``."""
    module, _, attr = target.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rngts.cli", "list-generators"],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0
        assert "mt19937" in proc.stdout.splitlines()

    def test_import_leaves_out_url_handling(self):
        # the report escapes attributes itself; xml.sax.saxutils, which
        # loads urllib.request, is not needed to start the CLI
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rngts.cli; print('urllib.request' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_import_leaves_out_the_worker_pool(self):
        # only --jobs above 1 needs multiprocessing; loading it costs
        # every run start-up time
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rngts.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="needs Linux /proc")
    def test_import_starts_no_threads(self):
        # numpy's OpenBLAS would start a thread per core; fork copies
        # only the calling thread, and a lock another thread held stays
        # held in the workers
        env = _child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import rngts.cli, numpy\n"
             "print(*[line for line in open('/proc/self/status')"
             " if line.startswith('Threads:')])"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["Threads:", "1"]

    def test_installed_entry_point(self, tmp_path):
        scripts = _console_scripts()
        assert "rngts" in scripts
        bin_dir = tmp_path / "bin"
        _write_wrapper(bin_dir, "rngts", scripts["rngts"])
        env = _child_env()
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])

        proc = subprocess.run(
            ["rngts", "list-tests"], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == catalog_test_names()

        # main's return value must become the process exit code
        proc = subprocess.run(
            ["rngts", "run", "--config", str(tmp_path / "absent.json")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.skipif(shutil.which("rngts") is None,
                        reason="rngts console script not installed")
    def test_path_entry_point(self):
        proc = subprocess.run(
            ["rngts", "list-tests"], capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "gap_test" in proc.stdout.splitlines()
