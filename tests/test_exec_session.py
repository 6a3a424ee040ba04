"""The cmake/ctest path that docker and local sessions share, with no cmake installed.

Stub ``cmake`` and ``ctest`` executables go first on ``PATH`` and log
their argv. The local runtime runs them on the host; the docker runtime
runs them through a runner that maps the container's ``/work`` onto a
host directory. Both must issue the same commands, up to that mapping,
and read the same results.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import perfmine.runtime as runtime_module
from perfmine.orchestrator import run_tests_repeatedly
from perfmine.runtime import (
    DockerCliRuntime,
    LocalProcessRuntime,
    RunnerResult,
    TestRun,
    _subprocess_runner,
)

JUNIT = """\
<?xml version="1.0" encoding="UTF-8"?>
<testsuite name="stub" tests="2" failures="1" time="0.75">
  <testcase name="my test" classname="my test" time="0.25" status="run"><system-out/></testcase>
  <testcase name="broken" classname="broken" time="0.5" status="fail"><failure message="Failed"/></testcase>
</testsuite>
"""

# what a real ctest prints for the same two tests
CTEST_STDOUT = """\
    Start 1: my test
1/2 Test #1: my test ..........................   Passed    0.25 sec
    Start 2: broken
2/2 Test #2: broken ...........................***Failed    0.50 sec
"""

STUB = """\
#!{python}
import json, os, sys, time
args = sys.argv[1:]
with open({log!r}, "a") as log:
    log.write(json.dumps([os.path.basename(sys.argv[0]), *args]) + "\\n")
if os.path.basename(sys.argv[0]) == "cmake":
    if "-B" in args:
        os.makedirs(args[args.index("-B") + 1], exist_ok=True)
    sys.exit(0)
build = args[args.index("--test-dir") + 1]
if "--show-only=json-v1" in args:
    print(json.dumps({{"tests": [{{"name": "my test"}}, {{"name": "broken"}}]}}))
    sys.exit(0)
if os.path.exists(os.path.join(build, "hang")):
    time.sleep(10)
if not os.path.exists(os.path.join(build, "crash")):
    with open(args[args.index("--output-junit") + 1], "w") as report:
        report.write({junit!r})
print({stdout!r})
sys.exit(8)
"""

SOURCE, BUILD = "/work/src", "/work/src-build"
EXPECTED_ARGV = [
    ["cmake", "-S", SOURCE, "-B", BUILD, "-DFAST=ON"],
    ["cmake", "--build", BUILD, "--parallel"],
    ["ctest", "--test-dir", BUILD, "--show-only=json-v1"],
    ["ctest", "--test-dir", BUILD, "--output-junit", f"{BUILD}/perfmine-junit.xml"],
]
EXPECTED_RESULTS = (TestRun("my test", True, 250.0), TestRun("broken", False, 500.0))


@pytest.fixture()
def stub_toolchain(tmp_path, monkeypatch):
    """Put stub cmake and ctest first on PATH; returns their argv log."""
    bin_dir, log = tmp_path / "bin", tmp_path / "toolchain.log"
    bin_dir.mkdir()
    for name in ("cmake", "ctest"):
        stub = bin_dir / name
        stub.write_text(STUB.format(python=sys.executable, log=str(log), junit=JUNIT,
                                    stdout=CTEST_STDOUT))
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    return log


def _logged_argv(log, root: str) -> list[list[str]]:
    """The stubs' argv, with the host directory standing for ``/`` taken off."""
    with open(log, encoding="utf-8") as handle:
        return [[arg.removeprefix(root) for arg in json.loads(line)] for line in handle]


def _local_session(tmp_path):
    session = LocalProcessRuntime(tmp_path / "state").start_session("host")
    return session, session.root


def _docker_session(tmp_path):
    container = str(tmp_path / "container")

    def runner(argv, input_text=None, timeout=0.0):
        if argv[1] != "exec":  # run, and rm on close
            return RunnerResult(0, "cid\n", "")
        command = argv[argv.index("cid") + 1:]
        command = [container + a if a.startswith("/work") else a for a in command]
        proc = subprocess.run(command, input=input_text, capture_output=True, text=True)
        return RunnerResult(proc.returncode, proc.stdout, proc.stderr)

    return DockerCliRuntime(runner=runner).start_session("gcc:13"), container


def test_docker_runs_each_command_under_a_kill_at_the_limit_in_the_container(monkeypatch):
    # the host kills only the docker exec client; the container must kill the command
    monkeypatch.setattr(runtime_module, "COMMAND_TIMEOUT_S", 90.0)
    calls = []

    def runner(argv, input_text=None, timeout=0.0):
        calls.append((list(argv), timeout))
        return RunnerResult(0, "cid\n" if argv[1] == "run" else "", "")

    session = DockerCliRuntime(runner=runner).start_session("gcc:13")
    session.exec(["ctest", "--test-dir", BUILD])
    session.exec(["git", "apply", "-"], "diff")
    assert calls[1:] == [
        (["docker", "exec", "cid", "timeout", "-s", "KILL", "90", "mkdir", "-p", "/work"], 90.0),
        (["docker", "exec", "cid", "timeout", "-s", "KILL", "90", "ctest", "--test-dir", BUILD],
         90.0),
        (["docker", "exec", "-i", "cid", "timeout", "-s", "KILL", "90", "git", "apply", "-"],
         90.0),
    ]


def _plant(root: str, path: str, content: str) -> None:
    """Write a file where a session whose ``/`` is the host directory ``root`` sees ``path``."""
    os.makedirs(os.path.dirname(root + path), exist_ok=True)
    with open(root + path, "w", encoding="utf-8") as handle:
        handle.write(content)


@pytest.mark.parametrize("adapter", [_local_session, _docker_session], ids=["local", "docker"])
def test_both_adapters_issue_the_same_commands_and_read_the_same_report(
        adapter, tmp_path, stub_toolchain):
    session, root = adapter(tmp_path)
    _plant(root, f"{SOURCE}/CMakeLists.txt", "project(stub)\n")
    assert session.configure_and_build(SOURCE, BUILD, ("-DFAST=ON",)).ok
    assert session.list_tests(BUILD) == ["my test", "broken"]
    suite = session.run_suite(BUILD)
    assert suite.results == EXPECTED_RESULTS
    assert _logged_argv(stub_toolchain, root) == EXPECTED_ARGV

    # a run whose ctest writes no report reads no report, not the last one
    _plant(root, f"{BUILD}/crash", "")
    assert session.run_suite(BUILD).results == ()
    session.close()


def test_a_command_that_outlives_its_limit_fails_instead_of_raising():
    started = time.monotonic()
    result = _subprocess_runner([sys.executable, "-c", "import time; time.sleep(10)"],
                                None, 0.2)
    assert time.monotonic() - started < 5
    assert result.returncode != 0
    assert "timed out after 0.2 s" in result.stderr


def _still_running(pid: int, within_s: float = 5.0) -> bool:
    """Whether ``pid`` is still alive, and no zombie, after waiting up to ``within_s``
    seconds for it to die (a SIGKILL takes effect when the process is next scheduled)."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        if state == "Z":
            return False
        time.sleep(0.05)
    return True


# the shell starts a sleep, records its pid and waits for it
GRANDCHILD = ["sh", "-c", 'sleep 20 & echo $! > "$1"; wait', "sh"]


def test_a_timed_out_command_takes_its_whole_process_group_with_it(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    result = _subprocess_runner([*GRANDCHILD, str(pid_file)], None, 0.5)
    assert result.returncode == 124
    assert not _still_running(int(pid_file.read_text()))


def test_an_interrupted_command_takes_its_whole_process_group_with_it(tmp_path):
    pid_file = tmp_path / "grandchild.pid"

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            _subprocess_runner([*GRANDCHILD, str(pid_file)], None, 30.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not _still_running(int(pid_file.read_text()))


def test_a_hung_ctest_fails_its_version_on_the_host(tmp_path, stub_toolchain, monkeypatch):
    monkeypatch.setattr(runtime_module, "COMMAND_TIMEOUT_S", 0.5)
    session, root = _local_session(tmp_path)
    _plant(root, f"{SOURCE}/CMakeLists.txt", "project(stub)\n")
    assert session.configure_and_build(SOURCE, BUILD, ()).ok
    _plant(root, f"{BUILD}/hang", "")
    started = time.monotonic()
    assert session.run_suite(BUILD).results == ()
    assert time.monotonic() - started < 5
    outcome = run_tests_repeatedly(session, SOURCE, runs=2)
    assert not outcome.qualified
    session.close()
