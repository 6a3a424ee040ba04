"""Mining pipeline: gating, the commit funnel, and what ends up stored."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import (
    COMPUTE_FAST,
    build_fixture_repo,
    commit_all,
    commit_files,
    files_under,
    git,
    head_of,
    lose_a_suite_run,
)

from perfmine.backends import StubBackend
from perfmine.classifier import BackendConfig
from perfmine.discovery import HeadTestsState
from perfmine.errors import RuntimeUnavailableError
from perfmine.harvest import GitObjects, HarvestConfig
from perfmine.pipeline import (
    FunnelCounts,
    MiningLimits,
    gate_with_runtime,
    local_descriptor,
    mine_repository,
)
from perfmine.runtime import BuildResult, DockerCliRuntime, FakeRuntime
from perfmine.stats import StatConfig
from perfmine.store import read_entry, read_ground_truth_diff


# ---------------------------------------------------------------------------
# the funnel on the five-commit fixture


def test_funnel_counts(mined_store):
    funnel = mined_store.result.funnel
    assert funnel.scanned == 5
    assert funnel.structurally_accepted == 1
    assert funnel.classified_positive == 1
    assert funnel.built == 1
    assert funnel.stored == 1


def test_funnel_is_monotone(mined_store):
    f = mined_store.result.funnel
    assert f.scanned >= f.structurally_accepted >= f.classified_positive
    assert f.classified_positive >= f.built >= f.stored


def test_skip_reasons_cover_the_other_four(mined_store):
    fixture = mined_store.fixture
    reasons = dict(mined_store.result.skipped)
    assert reasons[fixture.tests_sha] == "filtered: touches_tests"
    assert reasons[fixture.oversized_sha] == "filtered: too_many_files"
    assert reasons[fixture.out_of_window_sha] == "filtered: out_of_window"
    assert reasons[fixture.non_cpp_sha] == "filtered: non_cpp_file"
    assert fixture.perf_sha not in reasons


def test_stored_entry_matches_the_perf_commit(mined_store):
    fixture = mined_store.fixture
    assert mined_store.patch_id == f"local__fixturerepo__{fixture.perf_sha}"
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    assert entry.commit.sha == fixture.perf_sha
    assert entry.commit.parent_sha == fixture.perf_parent_sha
    assert entry.repo_full_name == "local/fixturerepo"
    assert entry.verified == "unreviewed"
    assert entry.image == f"perfmine/{mined_store.patch_id}"
    assert entry.classification.final == "positive"
    assert entry.classification.decided_in_phase == 1


def test_stored_timing_is_significant_and_exact(mined_store):
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    assert entry.has_significant_test
    [evidence] = entry.timing
    assert evidence.series.test_name == "unit_main"
    assert len(evidence.series.pre_ms) == 30  # 31 runs, warm-up discarded
    assert len(evidence.series.post_ms) == 30
    assert evidence.result.significant
    assert evidence.result.method == "exact"
    assert evidence.result.relative_improvement == pytest.approx(1 / 3, abs=0.01)


def test_run_summaries_record_the_warmup_discard(mined_store):
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    versions = {r.version: r for r in entry.runs}
    assert set(versions) == {"original", "patched"}
    for summary in versions.values():
        assert summary.runs_requested == 31
        assert summary.runs_recorded == 30
        assert len(summary.suite_wall_times_ms) == 30


def test_ground_truth_patch_written(mined_store):
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    assert "diff --git a/src/compute.cpp b/src/compute.cpp" in diff
    assert "src/compute.hpp" in diff


def test_logs_mirrored_to_host(mined_store):
    # the build logs alone: every timing the claim rests on is in the manifest
    log_dir = mined_store.store_dir / "logs" / mined_store.patch_id
    assert sorted(os.listdir(log_dir)) == ["build-original.log", "build-patched.log"]
    assert "fake build of /work/original ok" in (log_dir / "build-original.log").read_text()


def test_images_hold_no_git_directory(mined_store):
    images = mined_store.store_dir / "fake-runtime" / "images"
    assert list(images.iterdir())
    assert not list(images.rglob(".git"))


def test_an_image_holds_only_the_original_tree(mined_store):
    # the parent's tree and its marker, exactly; the commit's tree is the
    # answer to the task and lives in patches/, the logs in logs/, and no
    # build directory outlives the session
    fixture = mined_store.fixture
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    image = mined_store.runtime._image_dir(entry.image)
    expected = {".perfmine-sha": ("100644", fixture.perf_parent_sha + "\n"),
                **commit_files(fixture.path, fixture.perf_parent_sha)}
    assert files_under(os.path.join(image, "original")) == expected
    assert os.listdir(image) == ["original"]


def test_image_snapshot_is_reopenable(mined_store):
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    assert mined_store.runtime.has_image(entry.image)
    session = mined_store.runtime.open_image(entry.image)
    try:
        sha = session.read_file("/work/original/.perfmine-sha").strip()
        assert sha == mined_store.fixture.perf_parent_sha
        for absent in ("/work/patched", "/work/logs", "/work/original-build",
                       "/work/candidate"):
            assert not session.path_exists(absent)
    finally:
        session.close()


# ---------------------------------------------------------------------------
# gating


def _gate(repo, path, runtime):
    with GitObjects(path) as objects:
        return gate_with_runtime(repo, runtime, objects=objects)


def test_gate_passes_on_the_fixture(mined_store):
    assert mined_store.repo.head_tests_pass is HeadTestsState.PASS
    assert mined_store.repo.has_root_cmake
    assert mined_store.repo.has_cmake_tests


def test_gate_rejects_repo_without_cmake(tmp_path):
    repo = tmp_path / "nocmake"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "main.cpp").write_text("int main() { return 0; }\n")
    commit_all(repo, "no build system", "2023-01-01T00:00:00 +0000")
    runtime = FakeRuntime(state_dir=tmp_path / "state")
    gated = _gate(local_descriptor(head_of(repo), "x", "nocmake"), repo, runtime)
    assert not gated.passes_gate
    assert not gated.has_root_cmake
    assert gated.head_tests_pass is HeadTestsState.UNTESTED


def test_gate_rejects_repo_without_tests(tmp_path):
    repo = tmp_path / "notests"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "CMakeLists.txt").write_text(
        "cmake_minimum_required(VERSION 3.16)\nproject(notests CXX)\n"
    )
    (repo / "main.cpp").write_text("int main() { return 0; }\n")
    commit_all(repo, "library only", "2023-01-01T00:00:00 +0000")
    runtime = FakeRuntime(state_dir=tmp_path / "state")
    gated = _gate(local_descriptor(head_of(repo), "x", "notests"), repo, runtime)
    assert not gated.passes_gate
    assert gated.has_root_cmake
    assert not gated.has_cmake_tests


@pytest.mark.parametrize("cmake, counts", [("empty", True), ("directory", False)])
def test_gate_counts_a_root_cmake_only_when_the_head_has_that_file(tmp_path, cmake, counts):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    if cmake == "empty":
        (repo / "CMakeLists.txt").write_text("")
    else:
        (repo / "CMakeLists.txt").mkdir()
        (repo / "CMakeLists.txt" / "x.cmake").write_text("project(x)\n")
    (repo / "kernel.cpp").write_text("// fake-timing: kernel base_ms=100 step_ms=0.01\n")
    commit_all(repo, "the build", "2023-01-01T00:00:00 +0000")
    runtime = FakeRuntime(state_dir=tmp_path / "state")
    gated = _gate(local_descriptor(head_of(repo), "x", "repo"), repo, runtime)
    assert (gated.has_root_cmake, gated.passes_gate) == (counts, counts)


def test_gate_with_unreachable_runtime_raises(fixture_repo, tmp_path):
    runtime = FakeRuntime(state_dir=tmp_path / "state", reachable=False)
    repo = local_descriptor(head_of(fixture_repo.path), "local", "fixturerepo")
    with pytest.raises(RuntimeUnavailableError):
        _gate(repo, fixture_repo.path, runtime)


def test_gate_without_docker_executable_raises(fixture_repo):
    def runner(argv, input_text=None, timeout=0.0):
        raise FileNotFoundError(2, "No such file or directory", argv[0])

    runtime = DockerCliRuntime(runner=runner, docker_bin="no-such-docker")
    repo = local_descriptor(head_of(fixture_repo.path), "local", "fixturerepo")
    with pytest.raises(RuntimeUnavailableError, match="no-such-docker"):
        _gate(repo, fixture_repo.path, runtime)


# ---------------------------------------------------------------------------
# alternate outcomes on purpose-built runs


def _mine_with(fixture, out_dir, *, runtime=None, backend=None, runs=31):
    runtime = runtime or FakeRuntime(state_dir=out_dir / "fake-runtime")
    repo = local_descriptor(head_of(fixture.path), "local", "fixturerepo")
    with GitObjects(fixture.path) as objects:
        result = mine_repository(
            repo,
            fixture.path,
            harvest_config=HarvestConfig(),
            backend_config=BackendConfig(),
            stat_config=StatConfig(),
            limits=MiningLimits(runs=runs),
            runtime=runtime,
            backend=backend or StubBackend({fixture.perf_sha: "Yes"}),
            objects=objects,
            out_dir=out_dir,
        )
    return result, runtime


def test_a_stored_phase_two_commit_computes_its_diff_once(fixture_repo, tmp_path,
                                                         monkeypatch):
    import perfmine.pipeline as pipeline

    calls = []
    real = pipeline.commit_diff_text
    monkeypatch.setattr(pipeline, "commit_diff_text",
                        lambda repo, commit: calls.append(commit.sha) or real(repo, commit))
    disagree = {"phase1:0": "Yes", "phase1:1": "No", "phase2": "Yes"}
    result, _ = _mine_with(
        fixture_repo, tmp_path / "out", backend=StubBackend({fixture_repo.perf_sha: disagree})
    )
    assert result.funnel.stored == 1
    entry = read_entry(tmp_path / "out", result.stored_patch_ids[0])
    assert entry.classification.decided_in_phase == 2
    assert calls == [fixture_repo.perf_sha]


def test_mining_leaves_the_operators_clone_alone(tmp_path):
    fixture = build_fixture_repo(tmp_path / "clone")
    git_dir = fixture.path / ".git"
    hook = git_dir / "hooks" / "post-checkout"
    hook.write_text(f"#!/bin/sh\ntouch '{tmp_path}/hook-ran'\n")
    hook.chmod(0o755)
    before = {
        "index": (git_dir / "index").read_bytes(),
        "refs": git(fixture.path, "for-each-ref"),
        "head": git(fixture.path, "rev-parse", "HEAD"),
        "status": git(fixture.path, "status", "--porcelain", "--ignored"),
    }
    runtime = FakeRuntime(state_dir=tmp_path / "out" / "fake-runtime")
    repo = local_descriptor(head_of(fixture.path), "local", "fixturerepo")
    assert _gate(repo, fixture.path, runtime).passes_gate
    result, _ = _mine_with(fixture, tmp_path / "out", runtime=runtime)
    assert result.funnel.stored == 1
    assert {
        "index": (git_dir / "index").read_bytes(),
        "refs": git(fixture.path, "for-each-ref"),
        "head": git(fixture.path, "rev-parse", "HEAD"),
        "status": git(fixture.path, "status", "--porcelain", "--ignored"),
    } == before
    assert not (tmp_path / "hook-ran").exists()


def _reap_exited():
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                return
        except ChildProcessError:
            return


def test_mining_leaves_no_child_process_behind(fixture_repo, tmp_path):
    _reap_exited()  # whatever earlier tests left is not this mine's
    runtime = FakeRuntime(state_dir=tmp_path / "out" / "fake-runtime")
    repo = local_descriptor(head_of(fixture_repo.path), "local", "fixturerepo")
    assert _gate(repo, fixture_repo.path, runtime).passes_gate
    result, _ = _mine_with(fixture_repo, tmp_path / "out", runtime=runtime)
    assert result.funnel.stored == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _InterruptedInPhaseTwo(StubBackend):
    def complete(self, model, prompt, **kwargs):
        if kwargs["context"]["phase"] == 2:
            raise KeyboardInterrupt
        return super().complete(model, prompt, **kwargs)


@pytest.mark.parametrize("ending", ["runtime_unavailable", "interrupted"])
def test_a_mine_that_raises_leaves_no_child_process_behind(fixture_repo, tmp_path, ending,
                                                          recorded_processes):
    _reap_exited()
    disagree = {fixture_repo.perf_sha: {"phase1:0": "Yes", "phase1:1": "No", "phase2": "Yes"}}
    if ending == "interrupted":
        expected, kwargs = KeyboardInterrupt, {"backend": _InterruptedInPhaseTwo(disagree)}
        readers = ["diff-tree"]
    else:
        expected, readers = RuntimeUnavailableError, ["diff-tree", "cat-file"]
        kwargs = {"backend": StubBackend(disagree),
                  "runtime": FakeRuntime(state_dir=tmp_path / "state", reachable=False)}
    with pytest.raises(expected):
        _mine_with(fixture_repo, tmp_path / "out", **kwargs)
    assert [p.args[3] for p in recorded_processes if p.args[3] in ("diff-tree", "cat-file")] \
        == readers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _history_of_edits(path, commits: int):
    path.mkdir()
    git(path, "init", "-q", "-b", "main", ".")
    (path / "CMakeLists.txt").write_text("cmake_minimum_required(VERSION 3.16)\n"
                                         "project(edits CXX)\n")
    for i in range(commits + 1):
        (path / "kernel.cpp").write_text("// fake-timing: kernel base_ms=100 step_ms=0.01\n"
                                         f"int kernel() {{ return {i}; }}\n")
        commit_all(path, f"edit {i}", f"2022-01-{i % 28 + 1:02d}T00:00:00 +0000")
    return path


def test_a_mine_starts_one_git_reader_of_each_kind_for_any_history(tmp_path, capsys,
                                                                  recorded_processes):
    # the two phase-1 screeners disagree on every commit, so each one's diff
    # is read for phase 2, and each is built, so each one's CMakeLists.txt and
    # both its trees too; the gate reads the head's tree through the same reader
    from perfmine import cli

    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps(
        {"default": {"phase1:0": "Yes", "phase1:1": "No", "phase2": "Yes"}}))
    started = []
    for commits in (3, 30):
        repo = _history_of_edits(tmp_path / f"edits{commits}", commits)
        recorded_processes.clear()
        assert cli.main(["mine", "--local-repo", str(repo), "--out", str(tmp_path / f"out{commits}"),
                         "--fake-runtime", "--stub-backends", str(replies), "--runs", "2"]) == 0
        assert f"classified_positive={commits} built={commits}" in capsys.readouterr().out
        started.append(sorted(p.args[3] for p in recorded_processes))
    # the walk's shallow check and its log, and the two readers; the head is
    # resolved, and the gate reads it, through the cat-file reader
    assert started == [["cat-file", "diff-tree", "log", "rev-parse"]] * 2


@pytest.mark.parametrize("worktree", ["deletes_cmake", "adds_cmake"])
def test_the_gate_reads_the_committed_head_not_the_worktree(tmp_path, capsys,
                                                            recorded_processes, worktree):
    from perfmine import cli

    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps(
        {"default": {"phase1:0": "Yes", "phase1:1": "No", "phase2": "Yes"}}))
    repo = _history_of_edits(tmp_path / "repo", 2)
    if worktree == "deletes_cmake":
        (repo / "CMakeLists.txt").unlink()  # uncommitted: the head still has it
    else:
        git(repo, "rm", "-q", "CMakeLists.txt")
        commit_all(repo, "drop the build", "2022-02-01T00:00:00 +0000")
        (repo / "CMakeLists.txt").write_text("project(untracked CXX)\n")  # not in the head
    recorded_processes.clear()
    assert cli.main(["mine", "--local-repo", str(repo), "--out", str(tmp_path / "out"),
                     "--fake-runtime", "--stub-backends", str(replies), "--runs", "2"]) == 0
    out = capsys.readouterr().out
    started = sorted(p.args[3] for p in recorded_processes)
    if worktree == "deletes_cmake":
        assert "skipping" not in out and "built=2 stored=0" in out
        # the walk's shallow check and its log, and the two readers
        assert started == ["cat-file", "diff-tree", "log", "rev-parse"]
    else:
        assert "skipping local/repo: head does not build and pass its tests" in out
        assert "scanned=0" in out
        assert started == ["cat-file"]


def test_negative_classification_stops_the_funnel(fixture_repo, tmp_path):
    result, _ = _mine_with(
        fixture_repo, tmp_path / "out",
        backend=StubBackend({fixture_repo.perf_sha: "No"}),
    )
    assert result.funnel.structurally_accepted == 1
    assert result.funnel.classified_positive == 0
    assert result.funnel.stored == 0
    reasons = dict(result.skipped)
    assert "classified negative" in reasons[fixture_repo.perf_sha]


def test_unparseable_classifier_reply_is_skipped_not_fatal(fixture_repo, tmp_path):
    result, _ = _mine_with(
        fixture_repo, tmp_path / "out",
        backend=StubBackend({fixture_repo.perf_sha: "perhaps, hard to say"}),
    )
    assert result.funnel.classified_positive == 0
    assert result.funnel.stored == 0
    reasons = dict(result.skipped)
    assert "classifier error" in reasons[fixture_repo.perf_sha]


def test_unrepairable_build_failure_counts_as_not_built(fixture_repo, tmp_path):
    runtime = FakeRuntime(
        state_dir=tmp_path / "state",
        build_failures={"/work/original": [BuildResult(False, "ld: mystery failure")]},
    )
    result, _ = _mine_with(fixture_repo, tmp_path / "out", runtime=runtime)
    assert result.funnel.classified_positive == 1
    assert result.funnel.built == 0
    assert result.funnel.stored == 0
    reasons = dict(result.skipped)
    assert "build failed for original" in reasons[fixture_repo.perf_sha]


def test_repaired_build_is_recorded_in_the_plan(fixture_repo, tmp_path):
    out = tmp_path / "out"
    runtime = FakeRuntime(
        state_dir=out / "fake-runtime",
        build_failures={
            "/work/original": [
                BuildResult(False, "fatal error: zlib.h: No such file or directory")
            ]
        },
    )
    result, _ = _mine_with(fixture_repo, out, runtime=runtime)
    assert result.funnel.built == 1
    assert result.funnel.stored == 1
    entry = read_entry(out, result.stored_patch_ids[0])
    assert "zlib1g-dev" in entry.build_plan.install_packages
    assert entry.build_plan.repair_rounds_used == 1


def test_flaky_test_disqualifies_the_version(tmp_path):
    # A variant of the fixture whose fast version fails on its 17th suite run.
    flaky_root = tmp_path / "flaky"
    fixture = build_fixture_repo(flaky_root)
    git(flaky_root, "reset", "--hard", fixture.perf_parent_sha)
    (flaky_root / "src" / "compute.cpp").write_text(
        COMPUTE_FAST.replace(
            "base_ms=100 step_ms=0.01", "base_ms=100 step_ms=0.01 fail_run=17"
        ),
        encoding="utf-8",
    )
    flaky_sha = commit_all(
        flaky_root, "Speed up compute by reusing the buffer", "2023-03-10T10:00:00 +0000"
    )
    result, _ = _mine_with(
        fixture, tmp_path / "out", runs=31, backend=StubBackend({flaky_sha: "Yes"})
    )
    assert result.funnel.built == 1
    assert result.funnel.stored == 0
    reasons = dict(result.skipped)
    assert reasons[flaky_sha] == "patched version not consistently successful"


def test_a_suite_run_that_reports_no_tests_skips_the_commit(fixture_repo, tmp_path,
                                                           monkeypatch):
    lose_a_suite_run(monkeypatch, "/work/patched-build")
    result, _ = _mine_with(fixture_repo, tmp_path / "out")
    assert result.funnel.built == 1
    assert result.funnel.stored == 0
    reasons = dict(result.skipped)
    assert reasons[fixture_repo.perf_sha] == "patched version not consistently successful"


def test_empty_repository_yields_zero_funnel(tmp_path):
    repo = tmp_path / "empty"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "CMakeLists.txt").write_text(
        "cmake_minimum_required(VERSION 3.16)\nproject(empty CXX)\n"
        "enable_testing()\nadd_test(NAME t COMMAND true)\n"
    )
    commit_all(repo, "skeleton", "2023-01-01T00:00:00 +0000")
    with GitObjects(repo) as objects:
        result = mine_repository(
            local_descriptor(head_of(repo), "x", "empty"),
            repo,
            harvest_config=HarvestConfig(),
            backend_config=BackendConfig(),
            stat_config=StatConfig(),
            limits=MiningLimits(runs=5),
            runtime=FakeRuntime(state_dir=tmp_path / "state"),
            backend=StubBackend({"default": "No"}),
            objects=objects,
            out_dir=tmp_path / "out",
        )
    # the only commit is the root commit, which has no parent to compare with
    assert result.funnel == FunnelCounts()


def test_funnel_counts_merge():
    a = FunnelCounts(scanned=5, structurally_accepted=1, classified_positive=1, built=1, stored=1)
    b = FunnelCounts(scanned=3, structurally_accepted=2, classified_positive=0, built=0, stored=0)
    merged = a.merged(b)
    assert merged == FunnelCounts(8, 3, 1, 1, 1)
    assert merged.line() == (
        "funnel: scanned=8 structurally_accepted=3 classified_positive=1 built=1 stored=1"
    )
