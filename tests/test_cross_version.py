"""Every pinned artifact has the same bytes under each CPython 3.10 to 3.13.

Finds ``python3.10`` to ``python3.13`` on ``PATH`` other than the running
interpreter. Each one runs the pinned digest runs of
``tests/test_pipeline_digests.py`` in a child process started with ``-S``
(no site-packages, so only the standard library and the package are
importable), and every artifact digest is compared with the pins. Skips
when no other interpreter is found, and warns, naming it, of each one on
``PATH`` that does not start, since its bytes go unchecked.
"""

import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

from test_pipeline_digests import EVALUATE, PIPELINE, PREDICT_EXTERNAL, STATS

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
# One child runs in about two seconds here; a child past this is killed.
CHILD_TIMEOUT_S = 300
PROBE = "import os, sys; print(sys.version_info[1], os.path.realpath(sys.executable))"
CHILD = """
import hashlib, json, pathlib, sys
from helpers import digest_runs, stats_digests
from sentigraph.cli import main

root = pathlib.Path(sys.argv[1])
(root / "runs").mkdir()
(root / "stats").mkdir()
for argv in digest_runs(root / "runs"):
    if main(argv) != 0:
        raise SystemExit(f"exit code not 0: {argv}")
found = {d: {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in (root / "runs" / d).iterdir()} for d in ("run", "ext", "eval")}
found["stats"] = stats_digests(root / "stats")
(root / "digests.json").write_text(json.dumps(found), encoding="utf-8")
"""


def other_interpreters():
    """(name, path) of each python3.10 to python3.13 on PATH that starts, is
    the version its name says and is not the running interpreter; a warning
    names each one that does not start."""
    running = os.path.realpath(sys.executable)
    found, seen = [], {running}
    for minor in range(10, 14):
        name = f"python3.{minor}"
        path = shutil.which(name)
        if path is None:
            continue
        try:
            probe = subprocess.run([path, "-S", "-c", PROBE], capture_output=True,
                                   encoding="utf-8", timeout=60)
            started = probe.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            started = False
        if not started:  # for example a pyenv shim whose version is not selected
            warnings.warn(f"{name} ({path}) does not start; artifacts are not checked under it")
            continue
        got_minor, real = probe.stdout.split(maxsplit=1)
        if int(got_minor) == minor and real.strip() not in seen:
            seen.add(real.strip())
            found.append((name, path))
    return found


def test_pinned_artifacts_under_other_interpreters(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no python3.10 to python3.13 other than the running one on PATH")
    expected = {"run": PIPELINE, "ext": PREDICT_EXTERNAL, "eval": EVALUATE, "stats": STATS}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    for name, path in interpreters:
        root = tmp_path / name
        root.mkdir()
        child = subprocess.run([path, "-S", "-c", CHILD, str(root)], env=env, cwd=str(root),
                               capture_output=True, encoding="utf-8", timeout=CHILD_TIMEOUT_S)
        assert child.returncode == 0, f"{name} ({path}):\n{child.stderr}"
        found = json.loads((root / "digests.json").read_text(encoding="utf-8"))
        assert found == expected, f"{name} ({path}) wrote other bytes"
        print(f"{name} ({path}): {sum(map(len, found.values()))} digests match the pins")


def test_an_interpreter_that_does_not_start_is_named_in_a_warning(tmp_path, monkeypatch):
    shim = tmp_path / "python3.10"
    shim.write_text("#!/bin/sh\nexit 1\n", encoding="utf-8")
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.warns(UserWarning, match=r"python3\.10 \(.*\) does not start"):
        assert other_interpreters() == []
