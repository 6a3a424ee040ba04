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

from conftest import head_of

import perfmine.processes as processes_module
import perfmine.runtime as runtime_module
from perfmine.discovery import HeadTestsState
from perfmine.harvest import GitObjects
from perfmine.orchestrator import run_tests_repeatedly
from perfmine.pipeline import gate_with_runtime, local_descriptor
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
if os.path.exists(os.path.join(build, "hang")):
    time.sleep(10)
if not os.path.exists(os.path.join(build, "crash")):
    with open(args[args.index("--output-junit") + 1], "w") as report:
        report.write(os.environ.get("STUB_JUNIT", {junit!r}))
print({stdout!r})
sys.exit(8)
"""

SOURCE, BUILD = "/work/src", "/work/src-build"
EXPECTED_ARGV = [
    ["cmake", "-S", SOURCE, "-B", BUILD, "-DFAST=ON"],
    ["cmake", "--build", BUILD, "--parallel"],
    ["ctest", "--test-dir", BUILD, "--output-junit", f"{BUILD}/perfmine-junit.xml"],
]
EXPECTED_RESULTS = (TestRun("my test", True, 250.0), TestRun("broken", False, 500.0))


@pytest.fixture()
def stub_toolchain(tmp_path, monkeypatch):
    """Put stub cmake and ctest first on PATH; returns their argv log.

    ctest writes ``JUNIT``, or the report in ``STUB_JUNIT`` where that is set."""
    bin_dir, log = tmp_path / "bin", tmp_path / "toolchain.log"
    bin_dir.mkdir()
    for name in ("cmake", "ctest"):
        stub = bin_dir / name
        stub.write_text(STUB.format(python=sys.executable, log=str(log), junit=JUNIT,
                                    stdout=CTEST_STDOUT))
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    return log


def _logged_argv(log, work: str) -> list[list[str]]:
    """The stubs' argv, with the host directory standing for ``/work`` put back as ``/work``."""
    with open(log, encoding="utf-8") as handle:
        return [["/work" + arg.removeprefix(work) if arg.startswith(work) else arg
                 for arg in json.loads(line)] for line in handle]


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

    return DockerCliRuntime(runner=runner).start_session("gcc:13"), container + "/work"


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


def _plant(work: str, path: str, content: str) -> None:
    """Write a file where a session whose ``/work`` is the host directory ``work``
    sees ``path``."""
    host = work + path.removeprefix("/work")
    os.makedirs(os.path.dirname(host), exist_ok=True)
    with open(host, "w", encoding="utf-8") as handle:
        handle.write(content)


@pytest.mark.parametrize("adapter", [_local_session, _docker_session], ids=["local", "docker"])
def test_both_adapters_issue_the_same_commands_and_read_the_same_report(
        adapter, tmp_path, stub_toolchain):
    session, work = adapter(tmp_path)
    _plant(work, f"{SOURCE}/CMakeLists.txt", "project(stub)\n")
    assert session.configure_and_build(SOURCE, BUILD, ("-DFAST=ON",)).ok
    suite = session.run_suite(BUILD)
    assert suite.results == EXPECTED_RESULTS
    assert _logged_argv(stub_toolchain, work) == EXPECTED_ARGV

    # a run whose ctest writes no report reads no report, not the last one
    _plant(work, f"{BUILD}/crash", "")
    assert session.run_suite(BUILD).results == ()
    session.close()


@pytest.fixture()
def started(monkeypatch) -> list[str]:
    """The name of each executable that a host session starts, in order."""
    names = []

    def runner(argv, *args, **kwargs):
        names.append(os.path.basename(argv[0]))
        return _subprocess_runner(argv, *args, **kwargs)

    monkeypatch.setattr(runtime_module, "_subprocess_runner", runner)
    return names


def test_a_host_session_starts_cmake_and_ctest_alone(tmp_path, stub_toolchain, started):
    # the old build directory and report are deleted by the session, and a
    # symlink planted as the build directory is removed, not followed
    session, work = _local_session(tmp_path)
    _plant(work, f"{SOURCE}/CMakeLists.txt", "project(stub)\n")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "kept").write_text("kept\n")
    os.symlink(outside, work + BUILD.removeprefix("/work"))
    assert session.configure_and_build(SOURCE, BUILD, ()).ok
    assert os.listdir(outside) == ["kept"]
    _plant(work, f"{BUILD}/stale", "")
    assert session.configure_and_build(SOURCE, BUILD, ()).ok
    assert not session.path_exists(f"{BUILD}/stale")
    for _ in range(2):
        assert session.run_suite(BUILD).results == EXPECTED_RESULTS
    assert started == ["cmake", "cmake", "cmake", "cmake", "ctest", "ctest"]
    session.close()


ONE_PASSING = """\
<?xml version="1.0" encoding="UTF-8"?>
<testsuite name="stub" tests="1" failures="0" time="0.25">
  <testcase name="my test" classname="my test" time="0.25" status="run"><system-out/></testcase>
</testsuite>
"""
NO_TESTCASE = """\
<?xml version="1.0" encoding="UTF-8"?>
<testsuite name="stub" tests="0" failures="0" time="0"/>
"""


def _gate_locally(tmp_path, fixture_repo, monkeypatch, junit: str):
    """Gate the fixture's head on the local runtime, with ctest reporting ``junit``."""
    monkeypatch.setenv("STUB_JUNIT", junit)
    runtime = LocalProcessRuntime(tmp_path / "state")
    repo = local_descriptor(head_of(fixture_repo.path), "local", "fixturerepo")
    with GitObjects(fixture_repo.path) as objects:
        gated = gate_with_runtime(repo, runtime, objects=objects)
    runtime.close()
    return gated


def test_a_local_gate_builds_the_head_and_runs_its_suite_once(
        tmp_path, fixture_repo, stub_toolchain, started, monkeypatch):
    gated = _gate_locally(tmp_path, fixture_repo, monkeypatch, ONE_PASSING)
    assert (gated.passes_gate, gated.has_cmake_tests) == (True, True)
    assert started == ["cmake", "cmake", "ctest"]


def test_a_suite_that_reports_no_test_leaves_the_repository_gated_out(
        tmp_path, fixture_repo, stub_toolchain, started, monkeypatch):
    gated = _gate_locally(tmp_path, fixture_repo, monkeypatch, NO_TESTCASE)
    assert (gated.passes_gate, gated.has_cmake_tests) == (False, False)
    assert gated.head_tests_pass is HeadTestsState.UNTESTED
    assert started == ["cmake", "cmake", "ctest"]


def _pidfd_works() -> bool:
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):
        return False
    return True


@pytest.fixture(params=["pidfd", "polled"])
def exit_wait(request, monkeypatch):
    """Run the test once as the kernel gives it, and once where no pidfd can be
    opened, so the runner polls for the exit."""
    if request.param == "pidfd":
        if not _pidfd_works():
            pytest.skip("no pidfd on this platform")
        yield request.param
        return
    refused = []

    def no_pidfd(pid, flags=0):
        refused.append(pid)
        raise OSError(38, "Function not implemented")

    monkeypatch.setattr(processes_module.os, "pidfd_open", no_pidfd)
    yield request.param
    assert refused, "the runner never asked for a pidfd"


@pytest.mark.skipif(not _pidfd_works(), reason="no pidfd on this platform")
def test_the_runner_reaps_an_exited_command_without_sleeping(monkeypatch):
    # git closes its output before it exits, so a poll right after EOF misses
    # it and polling would sleep
    def no_sleep(seconds):
        raise AssertionError(f"slept {seconds} s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    for _ in range(10):
        result = _subprocess_runner(["git", "--version"], None, 30.0)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("git version")


WRITE_BOTH = ("import sys\n"
              "sys.stdout.buffer.write(b'a\\r\\nb\\rc\\r\\r\\nd\\xff\\xe2\\x82e\\n\\r' * 3)\n"
              "sys.stderr.buffer.write(b'\\xc3\\xa9\\r\\nx\\r\\xe2\\x82')\n")


def test_the_runner_decodes_as_a_text_mode_popen(exit_wait):
    reference = subprocess.run([sys.executable, "-c", WRITE_BOTH], capture_output=True,
                               encoding="utf-8", errors="replace")
    result = _subprocess_runner([sys.executable, "-c", WRITE_BOTH], None, 30.0)
    assert (result.stdout, result.stderr) == (reference.stdout, reference.stderr)
    assert result.stdout.startswith("a\nb\nc\n\nd\ufffd\ufffde\n\n")
    assert result.stderr == "\u00e9\nx\n\ufffd"


MIB = ("\u00e9" + "x" * 61 + "\n") * 16384  # 1 MiB in UTF-8


def test_a_mebibyte_goes_through_cat_unchanged(exit_wait):
    result = _subprocess_runner(["cat"], MIB, 30.0)
    assert (result.returncode, result.stdout == MIB, result.stderr) == (0, True, "")


def test_a_command_that_reads_no_input_still_succeeds(exit_wait):
    assert _subprocess_runner(["true"], MIB, 30.0) == RunnerResult(0, "", "")


def test_the_runner_adds_env_to_the_environment(monkeypatch):
    monkeypatch.setenv("PERFMINE_KEPT", "kept")
    result = _subprocess_runner(["sh", "-c", 'echo "$PERFMINE_ADDED $PERFMINE_KEPT"'], None,
                                30.0, {"PERFMINE_ADDED": "added"})
    assert result.stdout == "added kept\n"


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


@pytest.mark.parametrize("script", [
    'sleep 20 & echo $! > "$1"',  # the child exits; its child keeps the pipes open
    'exec >&- 2>&-; echo $$ > "$1"; exec sleep 20',  # the pipes end; the child lives on
], ids=["grandchild-holds-pipes", "child-closes-pipes"])
def test_a_command_is_timed_out_whichever_of_pipes_and_exit_lasts(tmp_path, exit_wait, script):
    pid_file = tmp_path / "pid"
    started = time.monotonic()
    result = _subprocess_runner(["sh", "-c", script, "sh", str(pid_file)], None, 0.5)
    assert 0.5 <= time.monotonic() - started < 5
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


@pytest.mark.parametrize("exit_wait", ["polled"], indirect=True)
def test_without_a_pidfd_commands_still_time_out_and_take_their_group(tmp_path, exit_wait):
    test_a_command_that_outlives_its_limit_fails_instead_of_raising()
    for case in ("timed-out", "interrupted"):
        (tmp_path / case).mkdir()
    test_a_timed_out_command_takes_its_whole_process_group_with_it(tmp_path / "timed-out")
    test_an_interrupted_command_takes_its_whole_process_group_with_it(tmp_path / "interrupted")


def test_a_hung_ctest_fails_its_version_on_the_host(tmp_path, stub_toolchain, monkeypatch):
    monkeypatch.setattr(runtime_module, "COMMAND_TIMEOUT_S", 0.5)
    session, work = _local_session(tmp_path)
    _plant(work, f"{SOURCE}/CMakeLists.txt", "project(stub)\n")
    assert session.configure_and_build(SOURCE, BUILD, ()).ok
    _plant(work, f"{BUILD}/hang", "")
    started = time.monotonic()
    assert session.run_suite(BUILD).results == ()
    assert time.monotonic() - started < 5
    outcome = run_tests_repeatedly(session, SOURCE, runs=2)
    assert not outcome.qualified
    session.close()
