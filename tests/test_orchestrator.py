from __future__ import annotations

import errno
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timezone

import pytest

from conftest import COMPUTE_FAST, COMPUTE_SLOW, files_under

from perfmine.backends import StubBackend
from perfmine.errors import ContractViolation, GitError, RuntimeUnavailableError
from perfmine.harvest import CommitRecord, FileChange, GitObjects
from perfmine.orchestrator import (
    BuildPlan,
    ORIGINAL_DIR,
    PATCHED_DIR,
    RunOutcome,
    TestRuns,
    build_with_repair,
    image_tag,
    load_repair_table,
    prepare_environment,
    run_tests_repeatedly,
    select_base_image,
    snapshot_image,
)
from perfmine.runtime import (
    BuildResult,
    DockerCliRuntime,
    FakeRuntime,
    RunnerResult,
    SHA_MARKER,
    SuiteRun,
    TestRun,
    scan_fake_timings,
)
from perfmine.store import read_entry, read_ground_truth_diff

UTC = timezone.utc


def make_commit(sha, parent):
    return CommitRecord(
        sha=sha,
        parent_sha=parent,
        author_timestamp=datetime(2023, 3, 10, tzinfo=UTC),
        message="Speed up compute",
        changes=(FileChange(path="src/compute.cpp", change_kind="modified"),),
    )


def make_plan(**kwargs):
    defaults = dict(base_image="gcc:12", compiler_version="12")
    defaults.update(kwargs)
    return BuildPlan(**defaults)


@pytest.fixture()
def fake_runtime(tmp_path):
    return FakeRuntime(tmp_path / "state")


# ---------------------------------------------------------------------------
# base image selection and repair table


def test_select_base_image_by_declared_standard():
    assert select_base_image("set(CMAKE_CXX_STANDARD 17)") == ("gcc:12", "12")
    assert select_base_image("set(CMAKE_CXX_STANDARD 11)") == ("gcc:11", "11")
    assert select_base_image("set(CMAKE_CXX_STANDARD 23)") == ("gcc:14", "14")


def test_select_base_image_fallback_is_newest():
    assert select_base_image("project(x)") == ("gcc:14", "14")
    assert select_base_image("set(CMAKE_CXX_STANDARD 26)") == ("gcc:14", "14")


def test_repair_table_loads():
    table = load_repair_table()
    assert any(p == "zlib.h: No such file" for p, _ in table)
    assert all(packages for _, packages in table)


def test_repair_table_is_read_once_and_copied_out(monkeypatch):
    load_repair_table().clear()

    def unreadable(package):
        raise AssertionError("the packaged repair table was read again")

    monkeypatch.setattr("perfmine.orchestrator.resources.files", unreadable)
    assert any(p == "zlib.h: No such file" for p, _ in load_repair_table())


# ---------------------------------------------------------------------------
# prepare_environment


def test_prepare_environment_clones_both_versions(fake_runtime, fixture_repo):
    commit = make_commit(fixture_repo.perf_sha, fixture_repo.perf_parent_sha)
    with GitObjects(fixture_repo.path) as objects:
        ses = prepare_environment(commit, fake_runtime, objects=objects, base_image="gcc:12")
    assert ses.read_file(f"{ORIGINAL_DIR}/.perfmine-sha").strip() == fixture_repo.perf_parent_sha
    assert ses.read_file(f"{PATCHED_DIR}/.perfmine-sha").strip() == fixture_repo.perf_sha
    # the two trees really differ at the perf change
    original = ses.read_file(f"{ORIGINAL_DIR}/src/compute.cpp")
    patched = ses.read_file(f"{PATCHED_DIR}/src/compute.cpp")
    assert "reallocated every iteration" in original
    assert "hoisted out of the loop" in patched
    ses.close()


def test_check_out_writes_each_commit_tree_exactly(fake_runtime, tmp_path):
    # export-ignore and export-subst are what rule out `git archive`
    import conftest as fixtures

    repo = tmp_path / "attrs"
    (repo / "tests").mkdir(parents=True)
    fixtures.git(repo, "init", "-q", "-b", "main", ".")
    (repo / ".gitattributes").write_text("tests export-ignore\nversion.txt export-subst\n")
    (repo / "version.txt").write_text("$Format:%H$\n")
    (repo / "tests" / "t.cpp").write_text("int t;\n")
    (repo / "run.sh").write_text("#!/bin/sh\n")
    (repo / "run.sh").chmod(0o755)
    os.symlink("version.txt", repo / "link.txt")
    first = fixtures.commit_all(repo, "first", "2023-01-01T00:00:00 +0000")
    (repo / "tests" / "t.cpp").unlink()
    (repo / "src").mkdir()
    (repo / "src" / "new.cpp").write_text("int n;\n")
    second = fixtures.commit_all(repo, "second", "2023-02-01T00:00:00 +0000")
    index = (repo / ".git" / "index").read_bytes()

    session = fake_runtime.start_session("gcc:12")
    with GitObjects(repo) as objects:
        session.check_out(objects, {"/work/first": first, "/work/second": second})
    for dest, sha in (("/work/first", first), ("/work/second", second)):
        expected = {SHA_MARKER: ("100644", sha + "\n"), **fixtures.commit_files(repo, sha)}
        assert fixtures.files_under(session.host_path(dest)) == expected
    assert "tests/t.cpp" in fixtures.files_under(session.host_path("/work/first"))
    assert sorted(os.listdir(session.root)) == ["first", "second"]
    session.close()
    assert (repo / ".git" / "index").read_bytes() == index
    assert fixtures.git(repo, "rev-parse", "HEAD").strip() == second
    assert fixtures.git(repo, "status", "--porcelain") == ""


def test_check_out_reads_every_tree_through_one_cat_file_and_starts_no_checkout(
        fake_runtime, fixture_repo, recorded_processes):
    session = fake_runtime.start_session("gcc:12")
    parent, sha = fixture_repo.perf_parent_sha, fixture_repo.perf_sha
    with GitObjects(fixture_repo.path) as objects:
        session.check_out(objects, {ORIGINAL_DIR: parent, PATCHED_DIR: sha})
        assert [p.args[3] for p in recorded_processes] == ["cat-file"]
    assert all(p.returncode is not None for p in recorded_processes)
    assert session.read_file(f"{PATCHED_DIR}/{SHA_MARKER}") == sha + "\n"
    session.close()


def test_a_missing_commit_names_its_sha_and_leaves_no_marker_process_or_session(
        fake_runtime, fixture_repo, recorded_processes):
    bad = "0123456789" * 4
    session = fake_runtime.start_session("gcc:12")
    with GitObjects(fixture_repo.path) as objects:
        with pytest.raises(GitError, match=bad):
            session.check_out(objects, {ORIGINAL_DIR: fixture_repo.perf_parent_sha,
                                        PATCHED_DIR: bad})
        assert sorted(os.listdir(session.root)) == ["original", "patched"]
        assert not session.path_exists(f"{ORIGINAL_DIR}/{SHA_MARKER}")  # no marker either
        session.close()

        with pytest.raises(GitError, match=bad):
            prepare_environment(make_commit(bad, fixture_repo.perf_parent_sha), fake_runtime,
                                objects=objects)
        # the reader serves on after a missing object
        assert objects.read(f"{fixture_repo.perf_sha}^{{tree}}")[0] == "tree"
    # what is left is the spare trees, kept in a closed session's directory
    fake_runtime.close()
    assert os.listdir(os.path.join(fake_runtime.state_dir, "sessions")) == []
    assert os.listdir(fake_runtime.blobs_dir) == []
    assert [p.args[3] for p in recorded_processes] == ["cat-file"]
    assert all(p.returncode is not None for p in recorded_processes)


def test_a_reader_that_cannot_start_leaves_no_marker_or_session(fake_runtime, fixture_repo,
                                                                monkeypatch):
    def cannot_start(*args, **kwargs):
        raise OSError("no more processes")

    monkeypatch.setattr(subprocess, "Popen", cannot_start)
    commit = make_commit(fixture_repo.perf_sha, fixture_repo.perf_parent_sha)
    with GitObjects(fixture_repo.path) as objects:
        with pytest.raises(OSError, match="no more processes"):
            prepare_environment(commit, fake_runtime, objects=objects)
    assert not any(files_under(os.path.join(fake_runtime.state_dir, "sessions")))
    fake_runtime.close()
    assert os.listdir(os.path.join(fake_runtime.state_dir, "sessions")) == []


def test_prepare_environment_rejects_parentless_commit(fixture_repo, tmp_path):
    commit = CommitRecord(
        sha=fixture_repo.root_sha,
        parent_sha="",
        author_timestamp=datetime(2018, 5, 1, tzinfo=UTC),
        message="initial project layout",
    )

    class ExplodingRuntime:
        def available(self):
            raise AssertionError("runtime touched for a parentless commit")

    with pytest.raises(ContractViolation), GitObjects(fixture_repo.path) as objects:
        prepare_environment(commit, ExplodingRuntime(), objects=objects)


def test_prepare_environment_unreachable_runtime_names_endpoint(tmp_path, fixture_repo):
    runtime = FakeRuntime(tmp_path / "state", reachable=False)
    commit = make_commit(fixture_repo.perf_sha, fixture_repo.perf_parent_sha)
    with pytest.raises(RuntimeUnavailableError) as exc_info, \
            GitObjects(fixture_repo.path) as objects:
        prepare_environment(commit, runtime, objects=objects)
    assert "fake runtime state" in str(exc_info.value)


# ---------------------------------------------------------------------------
# build_with_repair (scripted session)


class ScriptedSession:
    """configure_and_build pops scripted results; installs are recorded."""

    session_id = "scripted"

    def __init__(self, build_results):
        self.build_results = list(build_results)
        self.installed = []
        self.repair_prompts = []

    def configure_and_build(self, source_dir, build_dir, configure_args):
        return self.build_results.pop(0)

    def install_packages(self, packages):
        self.installed.append(tuple(packages))
        return BuildResult(True, "installed")


TABLE = [("zlib.h: No such file", ("zlib1g-dev",))]


def test_repair_zero_rounds_when_build_succeeds():
    session = ScriptedSession([BuildResult(True, "ok")])
    attempt = build_with_repair(session, ORIGINAL_DIR, make_plan(), repair_table=TABLE)
    assert attempt.build_ok
    assert attempt.plan.repair_rounds_used == 0
    assert attempt.plan.install_packages == ()
    assert session.installed == []


def test_repair_heuristic_hit_one_round():
    session = ScriptedSession(
        [BuildResult(False, "fatal error: zlib.h: No such file or directory"),
         BuildResult(True, "ok")]
    )
    attempt = build_with_repair(session, ORIGINAL_DIR, make_plan(), repair_table=TABLE)
    assert attempt.build_ok
    assert attempt.plan.repair_rounds_used == 1
    assert attempt.plan.install_packages == ("zlib1g-dev",)
    assert session.installed == [("zlib1g-dev",)]


def test_repair_falls_back_to_model_suggestions():
    session = ScriptedSession(
        [BuildResult(False, "ld: cannot find -lfoozle"), BuildResult(True, "ok")]
    )
    stub = StubBackend({"default": "You should install:\nlibfoozle-dev\n"})
    attempt = build_with_repair(
        session, ORIGINAL_DIR, make_plan(),
        backend=stub, backend_model="qwen3:8b", repair_table=TABLE,
    )
    assert attempt.build_ok
    assert attempt.plan.install_packages == ("libfoozle-dev",)
    assert attempt.plan.repair_rounds_used == 1
    # the model saw the log tail, not the sources
    assert "-lfoozle" in stub.calls[0].prompt


def test_repair_budget_exhausted():
    session = ScriptedSession([BuildResult(False, "ld: cannot find -lfoozle")] * 3)
    stub = StubBackend({"default": ["nonexistent-pkg", "other-nonexistent"]})
    attempt = build_with_repair(
        session, ORIGINAL_DIR, make_plan(),
        backend=stub, backend_model="m", max_rounds=2, repair_table=TABLE,
    )
    assert not attempt.build_ok
    assert attempt.plan.repair_rounds_used == 2
    assert attempt.plan.install_packages == ("nonexistent-pkg", "other-nonexistent")


def test_repair_stops_when_no_suggestions():
    session = ScriptedSession([BuildResult(False, "inscrutable failure")])
    attempt = build_with_repair(session, ORIGINAL_DIR, make_plan(), repair_table=TABLE)
    assert not attempt.build_ok
    assert attempt.plan.repair_rounds_used == 0
    assert "inscrutable" in attempt.log


def test_model_package_parsing_rejects_junk():
    session = ScriptedSession(
        [BuildResult(False, "x"), BuildResult(False, "x")]
    )
    stub = StubBackend(
        {"default": "Run `sudo apt install`:\n- zlib1g-dev\nUPPER_CASE\nrm -rf /\nnone\n"}
    )
    attempt = build_with_repair(
        session, ORIGINAL_DIR, make_plan(),
        backend=stub, backend_model="m", max_rounds=1, repair_table=[],
    )
    assert attempt.plan.install_packages == ("zlib1g-dev",)


# ---------------------------------------------------------------------------
# run_tests_repeatedly on the fake runtime


def prepared_session(fake_runtime, fixture_repo, sha, parent):
    with GitObjects(fixture_repo.path) as objects:
        return prepare_environment(
            make_commit(sha, parent), fake_runtime, objects=objects, base_image="gcc:12",
        )


def build_both(session):
    plan = make_plan()
    for version_dir in (ORIGINAL_DIR, PATCHED_DIR):
        attempt = build_with_repair(session, version_dir, plan, repair_table=[])
        assert attempt.build_ok
        plan = attempt.plan
    return plan


def _write(host_path: str, content: str) -> None:
    with open(host_path, "w", encoding="utf-8") as handle:
        handle.write(content)


@pytest.mark.parametrize("runs", [2, 5, 31])
def test_warmup_law(fake_runtime, fixture_repo, runs):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    build_both(session)
    outcome = run_tests_repeatedly(session, ORIGINAL_DIR, runs=runs, version="original")
    assert outcome.runs_recorded == runs - 1
    assert outcome.runs_requested == runs
    (test,) = outcome.tests
    assert test.name == "unit_main"
    assert len(test.wall_times_ms) == runs - 1
    assert outcome.qualified


def test_planted_timings_are_tie_free_and_ordered(fake_runtime, fixture_repo):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    build_both(session)
    original = run_tests_repeatedly(session, ORIGINAL_DIR, runs=31, version="original")
    patched = run_tests_repeatedly(session, PATCHED_DIR, runs=31, version="patched")
    pre = original.tests[0].wall_times_ms
    post = patched.tests[0].wall_times_ms
    assert len(set(pre)) == len(pre)  # strictly increasing, no ties
    assert max(post) < min(pre)  # patched strictly faster
    assert min(pre) > 150 and min(post) > 100


def test_flaky_failure_disqualifies(fake_runtime, tmp_path):
    import conftest as fixtures

    repo = tmp_path / "flaky"
    repo.mkdir()
    fixtures.git(repo, "init", "-q", "-b", "main", ".")
    (repo / "a.cpp").write_text(
        "// fake-timing: wobbly base_ms=50 step_ms=0.01 fail_run=17\nint a;\n"
    )
    base = fixtures.commit_all(repo, "base", "2022-01-01T00:00:00 +0000")
    (repo / "a.cpp").write_text(
        "// fake-timing: wobbly base_ms=40 step_ms=0.01 fail_run=17\nint a2;\n"
    )
    child = fixtures.commit_all(repo, "speed", "2022-06-01T00:00:00 +0000")

    with GitObjects(repo) as objects:
        session = prepare_environment(
            make_commit(child, base), fake_runtime, objects=objects, base_image="gcc:12",
        )
    build_both(session)
    outcome = run_tests_repeatedly(session, ORIGINAL_DIR, runs=31, version="original")
    assert not outcome.qualified
    assert outcome.runs_recorded == 30
    # run 17 overall = recorded index 15 (warm-up consumed run 1)
    assert outcome.tests[0].passed[15] is False
    assert sum(1 for p in outcome.tests[0].passed if not p) == 1


class _ScriptedSuites:
    def __init__(self, *suites: SuiteRun) -> None:
        self._suites = iter(suites)

    def run_suite(self, build_dir: str) -> SuiteRun:
        return next(self._suites)


@pytest.mark.parametrize("ragged", [
    SuiteRun((TestRun("u", True, 5.0),), 5.0),  # t lost, as by a crashed ctest
    SuiteRun((), 1.0),  # no report at all
    SuiteRun((TestRun("t", True, 9.0), TestRun("t", True, 9.0), TestRun("u", True, 5.0)), 23.0),
])
def test_recorded_runs_that_disagree_on_their_tests_disqualify(ragged):
    whole = SuiteRun((TestRun("t", True, 10.0), TestRun("u", True, 5.0)), 15.0)
    session = _ScriptedSuites(whole, whole, ragged, whole)
    outcome = run_tests_repeatedly(session, ORIGINAL_DIR, runs=4, version="original")
    assert not outcome.qualified
    assert outcome.tests == () and outcome.suite_wall_times_ms == ()
    assert outcome.runs_recorded == 3


def _outcome_by_tuples(session, runs: int) -> RunOutcome:
    """The reference: ``run_tests_repeatedly`` as it grew each test's tuples run by run."""
    suite_times, per_test, warmup_failed, recorded = [], {}, False, 0
    for index in range(runs):
        suite = session.run_suite(f"{ORIGINAL_DIR}-build")
        if index == 0:
            warmup_failed = any(not r.passed for r in suite.results)
            continue
        recorded += 1
        suite_times.append(suite.wall_time_ms)
        for run in suite.results:
            prev = per_test.get(run.name, TestRuns(run.name, (), ()))
            per_test[run.name] = TestRuns(run.name, prev.passed + (run.passed,),
                                          prev.wall_times_ms + (run.wall_time_ms,))
    tests = tuple(per_test.values())
    if any(len(test.passed) != recorded for test in tests):
        tests, suite_times = (), []
    return RunOutcome(version="original", build_ok=True, tests=tests, runs_requested=runs,
                      runs_recorded=recorded, suite_wall_times_ms=tuple(suite_times),
                      warmup_failed=warmup_failed)


def _suite(k: int, failed: str = "", missing: str = "") -> SuiteRun:
    results = tuple(TestRun(name, name != failed, base + k)
                    for name, base in (("t", 10.0), ("u", 5.0), ("v", 7.5)) if name != missing)
    return SuiteRun(results, sum(r.wall_time_ms for r in results))


@pytest.mark.parametrize("suites", [
    [_suite(k) for k in range(31)],  # normal runs
    [_suite(0, failed="u")] + [_suite(k) for k in range(1, 8)],  # a failed warm-up
    [_suite(k, missing="v" if k == 4 else "") for k in range(8)],  # v missing from one run
    [_suite(k, failed="t" if k == 3 else "") for k in range(8)],  # a failed recorded run
], ids=["normal", "failed_warmup", "test_missing_from_one_run", "failed_recorded_run"])
def test_run_tests_repeatedly_equals_the_tuple_by_tuple_reference(suites):
    got = run_tests_repeatedly(_ScriptedSuites(*suites), ORIGINAL_DIR, runs=len(suites),
                               version="original")
    assert got == _outcome_by_tuples(_ScriptedSuites(*suites), len(suites))
    assert all(type(t.passed) is tuple and type(t.wall_times_ms) is tuple for t in got.tests)


def test_warmup_failure_disqualifies(fake_runtime, tmp_path):
    import conftest as fixtures

    repo = tmp_path / "warmfail"
    repo.mkdir()
    fixtures.git(repo, "init", "-q", "-b", "main", ".")
    (repo / "a.cpp").write_text(
        "// fake-timing: coldstart base_ms=50 step_ms=0.01 fail_run=1\nint a;\n"
    )
    base = fixtures.commit_all(repo, "base", "2022-01-01T00:00:00 +0000")
    (repo / "a.cpp").write_text("// fake-timing: coldstart base_ms=40 step_ms=0.01\nint b;\n")
    child = fixtures.commit_all(repo, "speed", "2022-06-01T00:00:00 +0000")

    with GitObjects(repo) as objects:
        session = prepare_environment(
            make_commit(child, base), fake_runtime, objects=objects, base_image="gcc:12",
        )
    build_both(session)
    outcome = run_tests_repeatedly(session, ORIGINAL_DIR, runs=5, version="original")
    assert outcome.warmup_failed
    assert not outcome.qualified
    assert all(all(t.passed) for t in outcome.tests)  # recorded runs were green


# ---------------------------------------------------------------------------
# snapshot_image


def qualified_outcome(version="original"):
    return RunOutcome(
        version=version,
        build_ok=True,
        tests=(TestRuns("t", (True, True), (10.0, 11.0)),),
        runs_requested=3,
        runs_recorded=2,
    )


def disqualified_outcome():
    return RunOutcome(
        version="patched",
        build_ok=True,
        tests=(TestRuns("t", (True, False), (10.0, 11.0)),),
        runs_requested=3,
        runs_recorded=2,
    )


def test_snapshot_naming_and_replacement(fake_runtime, fixture_repo):
    entry_id = f"acme__fixture__{fixture_repo.perf_sha}"
    outcomes = [qualified_outcome("original"), qualified_outcome("patched")]
    tags = []
    for sha, parent in ((fixture_repo.perf_sha, fixture_repo.perf_parent_sha),
                        (fixture_repo.tests_sha, fixture_repo.perf_sha)):
        # a snapshot ends its session, so replacing an image takes a new one
        session = prepared_session(fake_runtime, fixture_repo, sha, parent)
        build_both(session)
        # the image is the parent's tree, not what the session wrote into it
        os.unlink(session.host_path(f"{ORIGINAL_DIR}/src/compute.cpp"))
        _write(session.host_path(f"{ORIGINAL_DIR}/marker.txt"), sha)
        tags.append(snapshot_image(session, entry_id, fake_runtime, outcomes))
        session.close()
    tag = image_tag(entry_id)
    assert tags == [tag, tag] and tag == f"perfmine/{entry_id}"
    assert fake_runtime.has_image(tag)
    # replace: exactly one image under that tag, the second session's
    assert os.listdir(os.path.join(fake_runtime.state_dir, "images")) == [
        tag.replace("/", "_")
    ]
    reopened = fake_runtime.open_image(tag)
    assert reopened.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}") == fixture_repo.perf_sha + "\n"
    assert reopened.read_file(f"{ORIGINAL_DIR}/src/compute.cpp") == COMPUTE_FAST
    assert not reopened.path_exists(f"{ORIGINAL_DIR}/marker.txt")
    assert not reopened.path_exists(PATCHED_DIR)
    reopened.close()


def test_a_failed_snapshot_keeps_the_stored_image(fake_runtime, fixture_repo, monkeypatch):
    outcomes = [qualified_outcome("original"), qualified_outcome("patched")]
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    tag = snapshot_image(session, "kept", fake_runtime, outcomes)
    with pytest.raises(ContractViolation):  # the spent session cannot snapshot again
        snapshot_image(session, "kept", fake_runtime, outcomes)
    session.close()
    # a snapshot of another commit whose image file cannot be put in place
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.tests_sha, fixture_repo.perf_sha
    )

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", no_space)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        snapshot_image(session, "kept", fake_runtime, outcomes)
    monkeypatch.undo()
    session.close()
    assert os.listdir(os.path.join(fake_runtime.state_dir, "images")) == ["perfmine_kept"]
    assert fake_runtime.has_image(tag)
    reopened = fake_runtime.open_image(tag)
    assert reopened.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}") == (
        fixture_repo.perf_parent_sha + "\n")
    assert reopened.read_file(f"{ORIGINAL_DIR}/src/compute.cpp") == COMPUTE_SLOW
    reopened.close()


def test_a_snapshotted_session_refuses_every_call_but_close(fake_runtime, fixture_repo):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    build_both(session)
    tag = fake_runtime.snapshot(session, "perfmine/spent")
    # the snapshot wrote the image file, kept the trees as the spares and
    # deleted the rest of the session's root
    with open(fake_runtime._image_path(tag), "rb") as handle:
        image = handle.read()
    assert sorted(os.listdir(session.root)) == ["original", "patched"]
    assert sorted(fake_runtime._spares) == [
        (os.path.join(session.root, "original"), fixture_repo.perf_parent_sha),
        (os.path.join(session.root, "patched"), fixture_repo.perf_sha)]
    spares = files_under(session.root)
    objects = GitObjects(fixture_repo.path)
    calls = {
        "read_file": lambda: session.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}"),
        "path_exists": lambda: session.path_exists(ORIGINAL_DIR),
        "copy_tree": lambda: session.copy_tree(ORIGINAL_DIR, "/work/candidate"),
        "check_out": lambda: session.check_out(objects, {"/work/again": fixture_repo.perf_sha}),
        "configure_and_build": lambda: session.configure_and_build(
            ORIGINAL_DIR, f"{ORIGINAL_DIR}-build", ()
        ),
        "apply_patch": lambda: session.apply_patch(ORIGINAL_DIR, "--- a/x\n+++ b/x\n"),
    }
    with objects:
        for call in calls.values():
            with pytest.raises(ContractViolation, match="snapshotted"):
                call()
    with pytest.raises(ContractViolation):
        fake_runtime.snapshot(session, "perfmine/spent-again")
    # no call changed the spares or the image
    assert files_under(session.root) == spares
    with open(fake_runtime._image_path(tag), "rb") as handle:
        assert handle.read() == image
    assert not fake_runtime.has_image("perfmine/spent-again")
    session.close()
    assert files_under(session.root) == spares
    reopened = fake_runtime.open_image(tag)
    assert reopened.path_exists(f"{ORIGINAL_DIR}/src/compute.cpp")
    assert not reopened.path_exists(f"{ORIGINAL_DIR}/marker.txt")
    reopened.close()


def test_snapshot_disqualified_version_rejected(fake_runtime, fixture_repo):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    with pytest.raises(ContractViolation):
        snapshot_image(session, "x", fake_runtime, [qualified_outcome(), disqualified_outcome()])


def test_snapshot_replay_reproduces_records(mined_store):
    # the image holds the original alone; the stored patch remakes the
    # patched version, which then times exactly as it did when mined
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    mined = next(run for run in entry.runs if run.version == "patched")
    replayed = mined_store.runtime.open_image(entry.image)
    try:
        replayed.copy_tree(ORIGINAL_DIR, PATCHED_DIR)
        diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
        assert replayed.apply_patch(PATCHED_DIR, diff).ok
        attempt = build_with_repair(replayed, PATCHED_DIR, entry.build_plan, repair_table=[])
        assert attempt.build_ok
        second = run_tests_repeatedly(replayed, PATCHED_DIR, runs=mined.runs_requested,
                                      version="patched")
    finally:
        replayed.close()
    assert second.qualified
    assert (second.runs_recorded, second.suite_wall_times_ms) == (mined.runs_recorded,
                                                                  mined.suite_wall_times_ms)
    assert {t.name: t.wall_times_ms for t in second.tests} == {
        t.series.test_name: t.series.post_ms for t in entry.timing}


# ---------------------------------------------------------------------------
# fake runtime internals


def test_scan_fake_timings_first_declaration_wins(tmp_path):
    (tmp_path / "a.cpp").write_text("// fake-timing: alpha base_ms=10 step_ms=0.5\n")
    (tmp_path / "z.cpp").write_text(
        "// fake-timing: alpha base_ms=99 step_ms=0.5\n"
        "// fake-timing: beta base_ms=20 step_ms=0.25 fail_run=3\n"
    )
    decls = scan_fake_timings(tmp_path)
    assert [d.name for d in decls] == ["alpha", "beta"]
    assert decls[0].base_ms == 10.0
    assert decls[1].fail_run == 3


def test_scan_fake_timings_orders_by_path_parts(tmp_path):
    # a plain string sort would put "a-b/x.cpp" first ("-" sorts before "/")
    (tmp_path / "a-b").mkdir()
    (tmp_path / "a-b" / "x.cpp").write_text("// fake-timing: alpha base_ms=20 step_ms=0\n")
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "b.cpp").write_text("// fake-timing: alpha base_ms=10 step_ms=0\n")
    [decl] = scan_fake_timings(tmp_path)
    assert decl.base_ms == 10.0


def test_scan_fake_timings_skips_only_names_inside_the_tree(tmp_path):
    tree = tmp_path / "build" / "src"  # an ancestor named build does not matter
    for skipped in ("build", ".git", "__pycache__", "sub/build"):
        (tree / skipped).mkdir(parents=True)
        (tree / skipped / "gen.cpp").write_text("// fake-timing: hidden base_ms=1 step_ms=0\n")
    (tree / "sub" / "kept.cpp").write_text("// fake-timing: kept base_ms=1 step_ms=0\n")
    assert [d.name for d in scan_fake_timings(tree)] == ["kept"]


def test_fake_suite_runs_what_was_built(fake_runtime, fixture_repo):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    build_both(session)
    build_dir = f"{ORIGINAL_DIR}-build"
    source = session.read_file(f"{ORIGINAL_DIR}/src/compute.cpp")
    _write(session.host_path(f"{ORIGINAL_DIR}/src/compute.cpp"),
           source.replace("base_ms=150", "base_ms=900"))
    [before] = session.run_suite(build_dir).results
    assert before.wall_time_ms == pytest.approx(150.0)
    assert session.list_tests(build_dir) == ["unit_main"]
    session.configure_and_build(ORIGINAL_DIR, build_dir, ())
    [after] = session.run_suite(build_dir).results
    assert after.wall_time_ms == pytest.approx(900.01)  # second invocation of this tree
    session.close()


def test_closing_a_session_deletes_it_but_not_its_snapshot(fake_runtime, fixture_repo):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    build_both(session)
    tag = fake_runtime.snapshot(session, "perfmine/closed")
    session.close()
    # the session's directory holds the spare trees alone, until the runtime closes
    assert sorted(os.listdir(session.root)) == ["original", "patched"]
    reopened = fake_runtime.open_image(tag)
    assert reopened.path_exists(f"{ORIGINAL_DIR}/src/compute.cpp")
    reopened.close()
    assert not os.path.exists(reopened.root)
    fake_runtime.close()
    assert list((fake_runtime.state_dir / "sessions").iterdir()) == []
    assert fake_runtime.has_image(tag)


def test_session_and_image_paths_skip_pathlib_interning(fake_runtime, fixture_repo,
                                                        monkeypatch):
    # pathlib interns every component it parses; names made per commit (build
    # directories, image tags) must bypass it, or a process that mines many
    # commits keeps resizing CPython's interned-string table
    interned = []
    real_intern = sys.intern
    monkeypatch.setattr(sys, "intern", lambda s: interned.append(s) or real_intern(s))
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    build_both(session)
    session.run_suite(f"{ORIGINAL_DIR}-build")
    tag = fake_runtime.snapshot(session, "perfmine/interned")
    session.close()
    reopened = fake_runtime.open_image(tag)
    reopened.close()
    assert not {"original-build", "patched-build", "perfmine_interned"} & set(interned)
    session_names = {os.path.basename(s.root) for s in (session, reopened)}
    assert not session_names & set(interned)


def test_fake_session_apply_patch_conflict(fake_runtime, fixture_repo):
    session = prepared_session(
        fake_runtime, fixture_repo, fixture_repo.perf_sha, fixture_repo.perf_parent_sha
    )
    bad_diff = (
        "--- a/src/nonexistent.cpp\n"
        "+++ b/src/nonexistent.cpp\n"
        "@@ -1,1 +1,1 @@\n"
        "-old line\n"
        "+new line\n"
    )
    result = session.apply_patch(ORIGINAL_DIR, bad_diff)
    assert not result.ok
    assert result.log


def _recording_docker():
    """A docker session whose runner records argv and runs nothing."""
    calls = []

    def runner(argv, input_text=None, timeout=0.0):
        calls.append(list(argv))
        if argv[1] == "run":
            return RunnerResult(0, "cid\n", "")
        return RunnerResult(0, "", "")

    session = DockerCliRuntime(runner=runner).start_session("gcc:13")
    calls.clear()
    return session, calls


@pytest.fixture()
def docker_over_a_directory(tmp_path, monkeypatch):
    """A docker session whose ``docker cp`` copies into a host directory.

    The directory stands in for the container's ``/``. Temporary
    directories are made under ``tmp/``, so a test can see what is left.
    """
    container, staging = tmp_path / "container", tmp_path / "tmp"
    staging.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging))
    calls = []

    def runner(argv, input_text=None, timeout=0.0):
        calls.append(list(argv))
        if argv[1] == "run":
            return RunnerResult(0, "cid\n", "")
        if argv[1] == "cp":
            assert argv[2].endswith("/.") and argv[3] == "cid:/"
            shutil.copytree(argv[2], container, symlinks=True, dirs_exist_ok=True)
        return RunnerResult(0, "", "")

    session = DockerCliRuntime(runner=runner).start_session("gcc:13")
    calls.clear()
    return session, calls, container, staging


def test_docker_check_out_copies_host_trees_in_with_one_cp(fixture_repo,
                                                           docker_over_a_directory):
    import conftest as fixtures

    session, calls, container, staging = docker_over_a_directory
    trees = {ORIGINAL_DIR: fixture_repo.perf_parent_sha, PATCHED_DIR: fixture_repo.perf_sha}
    with GitObjects(fixture_repo.path) as objects:
        session.check_out(objects, trees)
    assert [argv[1] for argv in calls] == ["cp"]  # nothing runs in the container
    for dest, sha in trees.items():
        expected = {SHA_MARKER: ("100644", sha + "\n"),
                    **fixtures.commit_files(fixture_repo.path, sha)}
        assert fixtures.files_under(container / dest.lstrip("/")) == expected
    assert os.listdir(container) == ["work"]  # no index file went in
    assert os.listdir(staging) == []


def test_docker_check_out_failure_copies_nothing_and_leaves_no_staging(
        fixture_repo, docker_over_a_directory):
    session, calls, container, staging = docker_over_a_directory
    bad = "0123456789" * 4
    with pytest.raises(GitError, match=bad):
        with GitObjects(fixture_repo.path) as objects:
            session.check_out(objects, {ORIGINAL_DIR: fixture_repo.perf_parent_sha,
                                        PATCHED_DIR: bad})
    assert calls == []
    assert not container.exists()
    assert os.listdir(staging) == []


def test_docker_snapshot_keeps_only_the_original_tree():
    session, calls = _recording_docker()
    assert session._runtime.snapshot(session, "perfmine/x") == "perfmine/x"
    commands = [argv[1:] for argv in calls]
    assert commands == [
        ["image", "inspect", "--format", "{{.Id}}", "perfmine/x"],
        ["exec", "cid", "timeout", "-s", "KILL", "3600", "find", "/work", "-mindepth", "1",
         "-maxdepth", "1", "!", "-path", ORIGINAL_DIR, "-exec", "rm", "-rf", "{}", "+"],
        ["commit", "cid", "perfmine/x"],
    ]


def _docker_replacing(commit_rc: int):
    """A docker session whose tag already names image ``sha256:old``."""
    calls = []

    def runner(argv, input_text=None, timeout=0.0):
        calls.append(list(argv))
        if argv[1] == "run":
            return RunnerResult(0, "cid\n", "")
        if argv[1:3] == ["image", "inspect"]:
            return RunnerResult(0, "sha256:old\n", "")
        if argv[1] == "commit":
            return RunnerResult(commit_rc, "", "" if commit_rc == 0 else "boom")
        return RunnerResult(0, "", "")

    return DockerCliRuntime(runner=runner).start_session("gcc:13"), calls


def test_docker_snapshot_removes_the_superseded_image_after_the_commit():
    session, calls = _docker_replacing(commit_rc=0)
    snapshot_image(session, "x", session._runtime, [qualified_outcome()])
    verbs = [argv[1] for argv in calls]
    assert verbs.index("commit") < verbs.index("rmi")
    assert calls[-1] == ["docker", "rmi", "sha256:old"]


def test_docker_failed_commit_keeps_the_stored_image():
    session, calls = _docker_replacing(commit_rc=1)
    with pytest.raises(RuntimeUnavailableError, match="boom"):
        snapshot_image(session, "x", session._runtime, [qualified_outcome()])
    assert "rmi" not in [argv[1] for argv in calls]


def test_docker_apply_stops_the_repository_search_at_the_tree():
    session, calls = _recording_docker()
    assert session.apply_patch("/work/candidate", "--- a/x\n+++ b/x\n").ok
    [argv] = calls  # the diff goes in on stdin, with no file written first
    assert argv[:8] == ["docker", "exec", "-i", "cid", "timeout", "-s", "KILL", "3600"]
    assert argv[8:] == ["env", "GIT_CEILING_DIRECTORIES=/work", "git", "-C", "/work/candidate",
                        "apply", "--whitespace=nowarn", "-"]


def test_run_outcome_invariants():
    with pytest.raises(ValueError):
        RunOutcome(version="weird", build_ok=True, tests=(),
                   runs_requested=2, runs_recorded=1)
    with pytest.raises(ValueError):
        RunOutcome(
            version="original", build_ok=True,
            tests=(TestRuns("t", (True,), (0.0,)),),  # nonpositive wall time
            runs_requested=2, runs_recorded=1,
        )
    with pytest.raises(ValueError):
        RunOutcome(
            version="original", build_ok=True,
            tests=(TestRuns("t", (True, True), (1.0, 2.0)),),  # 2 records, 1 recorded run
            runs_requested=2, runs_recorded=1,
        )
