"""End-to-end run on the host toolchain: real cmake, real ctest, real time.

These tests compile and repeatedly execute a small C++ project, so they
are skipped where cmake or ctest is missing.
"""

from __future__ import annotations

import shutil
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import commit_all, git, head_of

from perfmine.discovery import HeadTestsState
from perfmine.harvest import CommitRecord, FileChange, GitObjects
from perfmine.orchestrator import (
    BuildPlan,
    ORIGINAL_DIR,
    PATCHED_DIR,
    build_with_repair,
    prepare_environment,
    run_tests_repeatedly,
    snapshot_image,
)
from perfmine.evaluate import compare_timings
from perfmine.pipeline import gate_with_runtime, local_descriptor
from perfmine.runtime import LocalProcessRuntime
from perfmine.stats import StatConfig

pytestmark = pytest.mark.skipif(
    shutil.which("cmake") is None or shutil.which("ctest") is None,
    reason="cmake/ctest not installed",
)

RUNS = 9  # 8 recorded samples per version


MAIN_CPP = """\
#include <chrono>
#include <thread>
int main() {
    std::this_thread::sleep_for(std::chrono::milliseconds(SLEEP_MS));
    return 0;
}
"""

CMAKELISTS = """\
cmake_minimum_required(VERSION 3.16)
project(timedrepo CXX)
set(CMAKE_CXX_STANDARD 17)
add_executable(timed main.cpp)
enable_testing()
add_test(NAME timed COMMAND timed)
"""


def _build_timing_repo(root: Path) -> tuple[str, str]:
    """Two commits: a 60ms test, then a 30ms one."""
    root.mkdir(parents=True)
    git(root, "init", "-q", "-b", "main", ".")
    (root / "CMakeLists.txt").write_text(CMAKELISTS)
    (root / "main.cpp").write_text(MAIN_CPP.replace("SLEEP_MS", "60"))
    slow_sha = commit_all(root, "Initial timed loop", "2023-01-01T00:00:00 +0000")
    (root / "main.cpp").write_text(MAIN_CPP.replace("SLEEP_MS", "30"))
    fast_sha = commit_all(root, "Halve the loop time", "2023-01-02T00:00:00 +0000")
    return slow_sha, fast_sha


@pytest.fixture(scope="module")
def timing_repo(tmp_path_factory):
    root = tmp_path_factory.mktemp("local") / "timedrepo"
    slow_sha, fast_sha = _build_timing_repo(root)
    return root, slow_sha, fast_sha


def test_gate_builds_and_runs_head_on_the_host(timing_repo, tmp_path):
    root, _, _ = timing_repo
    runtime = LocalProcessRuntime(state_dir=tmp_path / "state")
    with GitObjects(root) as objects:
        gated = gate_with_runtime(local_descriptor(head_of(root), "local", "timedrepo"),
                                  runtime, objects=objects)
    assert gated.passes_gate
    assert gated.head_tests_pass is HeadTestsState.PASS


def test_real_build_measure_and_snapshot(timing_repo, tmp_path):
    root, slow_sha, fast_sha = timing_repo
    commit = CommitRecord(
        sha=fast_sha,
        parent_sha=slow_sha,
        author_timestamp=datetime(2023, 1, 2, tzinfo=timezone.utc),
        message="Halve the loop time",
        changes=(FileChange(path="main.cpp", change_kind="modified"),),
    )
    runtime = LocalProcessRuntime(state_dir=tmp_path / "state")
    with GitObjects(root) as objects:
        session = prepare_environment(commit, runtime, objects=objects, base_image="host")
    try:
        plan = BuildPlan(base_image="host", compiler_version="")
        for version_dir in (ORIGINAL_DIR, PATCHED_DIR):
            attempt = build_with_repair(session, version_dir, plan, max_rounds=1)
            plan = attempt.plan
            assert attempt.build_ok, attempt.log[-2000:]
        original = run_tests_repeatedly(session, ORIGINAL_DIR, runs=RUNS, version="original")
        patched = run_tests_repeatedly(session, PATCHED_DIR, runs=RUNS, version="patched")
        assert original.qualified and patched.qualified
        assert original.runs_recorded == RUNS - 1
        assert patched.runs_recorded == RUNS - 1

        [evidence] = compare_timings(original, patched, StatConfig())
        assert evidence.series.test_name == "timed"
        # 60ms -> 30ms sleeps leave generous margin over scheduler jitter
        assert evidence.result.relative_improvement > 0.2
        assert evidence.result.p_value < 0.05
        assert evidence.result.significant

        tag = snapshot_image(session, "local__timedrepo__real", runtime,
                             [original, patched])
    finally:
        session.close()

    assert runtime.has_image(tag)
    reopened = runtime.open_image(tag)
    try:
        assert reopened.path_exists(ORIGINAL_DIR)
        assert not reopened.path_exists(PATCHED_DIR)
        rebuilt = reopened.configure_and_build(ORIGINAL_DIR, f"{ORIGINAL_DIR}-build", ())
        assert rebuilt.ok
        suite = reopened.run_suite(f"{ORIGINAL_DIR}-build")
        assert [r.name for r in suite.results] == ["timed"]
        assert all(r.passed for r in suite.results)
    finally:
        reopened.close()
