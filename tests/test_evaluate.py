"""Candidate patch evaluation against a stored entry's frozen image."""

from __future__ import annotations

import errno
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import lose_a_suite_run

from perfmine.errors import EvaluationError, RuntimeUnavailableError, StoreError
from perfmine.evaluate import (
    EvaluationReport,
    VERDICT_BROKEN,
    VERDICT_FUNCTIONAL_ONLY,
    VERDICT_IMPROVES,
    candidate_digest,
    evaluate,
    files_touched_by,
    report_path,
    verdict_for,
)
from perfmine.runtime import FakeRuntime
from perfmine.store import read_entry, read_ground_truth_diff

CONFLICTING_DIFF = """\
--- a/src/no_such_file.cpp
+++ b/src/no_such_file.cpp
@@ -1,3 +1,3 @@
 int before() {
-    return 1;
+    return 2;
 }
"""


def _failing_candidate_diff(mined_store) -> str:
    """A diff that applies cleanly but makes the test fail on a recorded run."""
    import difflib

    session = mined_store.runtime.open_image(
        read_entry(mined_store.store_dir, mined_store.patch_id).image
    )
    try:
        old = session.read_file("/work/original/src/compute.cpp")
    finally:
        session.close()
    new = old.replace(
        "base_ms=150 step_ms=0.01", "base_ms=150 step_ms=0.01 fail_run=2"
    )
    assert new != old
    lines = difflib.unified_diff(
        old.splitlines(keepends=True),
        new.splitlines(keepends=True),
        fromfile="a/src/compute.cpp",
        tofile="b/src/compute.cpp",
    )
    return "".join(lines)


# ---------------------------------------------------------------------------
# the three verdicts, end to end


def test_ground_truth_diff_improves(mined_store):
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    report = evaluate(
        mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime,
    )
    assert report.verdict == VERDICT_IMPROVES
    assert report.applied_ok and report.build_ok and report.all_tests_pass
    [evidence] = report.timing
    assert evidence.result.significant
    assert evidence.result.relative_improvement == pytest.approx(1 / 3, abs=0.01)
    assert report.files_touched == ("src/compute.cpp", "src/compute.hpp")
    assert set(report.files_touched) == set(report.ground_truth_files)


def test_store_inside_a_git_work_tree_still_applies_the_candidate(fixture_repo, tmp_path):
    # a tree without .git would otherwise let `git apply` find the enclosing
    # repository, apply nothing, and score the unchanged original
    from conftest import git, mine_fixture

    git(tmp_path, "init", "-q", "-b", "main", ".")
    mined = mine_fixture(fixture_repo, tmp_path / "nested" / "store", runs=5)
    diff = read_ground_truth_diff(mined.store_dir, mined.patch_id)
    report = evaluate(mined.patch_id, diff, mined.store_dir, mined.runtime)
    assert report.verdict == VERDICT_IMPROVES


def test_empty_diff_is_functional_only(mined_store):
    report = evaluate(
        mined_store.patch_id, "", mined_store.store_dir, mined_store.runtime,
    )
    assert report.verdict == VERDICT_FUNCTIONAL_ONLY
    assert report.applied_ok and report.build_ok and report.all_tests_pass
    [evidence] = report.timing
    assert not evidence.result.significant
    assert evidence.result.relative_improvement == pytest.approx(0.0, abs=1e-9)
    assert report.files_touched == ()


def test_conflicting_diff_is_broken(mined_store):
    report = evaluate(
        mined_store.patch_id, CONFLICTING_DIFF, mined_store.store_dir,
        mined_store.runtime,
    )
    assert report.verdict == VERDICT_BROKEN
    assert not report.applied_ok
    assert not report.build_ok
    assert report.timing == ()
    assert report.files_touched == ("src/no_such_file.cpp",)


def test_candidate_with_failing_test_is_broken(mined_store):
    diff = _failing_candidate_diff(mined_store)
    report = evaluate(
        mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime,
    )
    assert report.verdict == VERDICT_BROKEN
    assert report.applied_ok and report.build_ok
    assert not report.all_tests_pass


def test_candidate_whose_run_reports_no_tests_is_broken(mined_store, monkeypatch):
    lose_a_suite_run(monkeypatch, "/work/candidate-build")
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    report = evaluate(
        mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime,
    )
    assert report.verdict == VERDICT_BROKEN
    assert report.applied_ok and report.build_ok
    assert not report.all_tests_pass and report.timing == ()


def test_original_whose_run_reports_no_tests_is_refused(mined_store, monkeypatch):
    lose_a_suite_run(monkeypatch, "/work/original-build")
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    with pytest.raises(EvaluationError, match="not consistently successful"):
        evaluate(mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime)


# ---------------------------------------------------------------------------
# measurement discipline


def test_original_and_candidate_share_one_session(mined_store, monkeypatch):
    runtime = mined_store.runtime
    created = []
    new_root = runtime._new_session_root

    def recording_new_root():
        root, name = new_root()
        created.append((root, name))
        return root, name

    monkeypatch.setattr(runtime, "_new_session_root", recording_new_root)
    report = evaluate(
        mined_store.patch_id, "", mined_store.store_dir, runtime,
    )
    [(root, name)] = created
    assert report.session_id.endswith(name)
    assert not os.path.exists(root)  # the closed session's directory became the slot


def test_runs_override_controls_sample_size(mined_store):
    report = evaluate(
        mined_store.patch_id, "", mined_store.store_dir, mined_store.runtime,
        runs=5,
    )
    assert report.runs == 5
    [evidence] = report.timing
    assert len(evidence.series.pre_ms) == 4  # warm-up discarded
    assert len(evidence.series.post_ms) == 4


def test_default_runs_come_from_the_entry(mined_store):
    report = evaluate(
        mined_store.patch_id, "", mined_store.store_dir, mined_store.runtime,
    )
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    assert report.runs == entry.runs[0].runs_requested == 31


def test_report_written_next_to_the_store(mined_store):
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    report = evaluate(mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime)
    target = report_path(mined_store.store_dir, mined_store.patch_id)
    assert target.is_file()
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["verdict"] == VERDICT_IMPROVES
    assert payload["baseline"] == "re_measured_same_session"
    assert payload["candidate_digest"] == candidate_digest(diff)
    assert payload == report.to_dict()


def test_a_report_write_that_fails_leaves_the_last_report_as_it_was(mined_store,
                                                                    monkeypatch):
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    evaluate(mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime, runs=5)
    target = report_path(mined_store.store_dir, mined_store.patch_id)
    before = target.read_bytes()

    def replace(src, dst):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match=os.strerror(errno.EIO)):
        evaluate(mined_store.patch_id, "", mined_store.store_dir, mined_store.runtime, runs=5)
    assert target.read_bytes() == before
    assert not list(target.parent.glob("*.tmp"))


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_patch_id_is_a_store_error(mined_store):
    with pytest.raises(StoreError):
        evaluate("nobody__nothing__0000", "", mined_store.store_dir, mined_store.runtime)


def test_missing_image_is_unavailable(mined_store, tmp_path):
    fresh_runtime = FakeRuntime(state_dir=tmp_path / "empty-state")
    with pytest.raises(RuntimeUnavailableError, match="not loadable"):
        evaluate(mined_store.patch_id, "", mined_store.store_dir, fresh_runtime)


def test_preexisting_candidate_dir_is_rejected(mined_store, monkeypatch):
    # a host image is its original tree alone, but another runtime's image
    # may carry more of /work: open this one with a candidate planted
    runtime = mined_store.runtime
    open_image = runtime.open_image

    def open_with_a_candidate(tag):
        session = open_image(tag)
        os.makedirs(session.host_path("/work/candidate"))
        return session

    monkeypatch.setattr(runtime, "open_image", open_with_a_candidate)
    with pytest.raises(EvaluationError, match="already exists"):
        evaluate(mined_store.patch_id, "", mined_store.store_dir, runtime)


# ---------------------------------------------------------------------------
# pure helpers


@given(st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_verdict_mapping_is_total_and_consistent(applied, built, passed, significant):
    verdict = verdict_for(applied, built, passed, significant)
    if not (applied and built and passed):
        assert verdict == VERDICT_BROKEN
    elif significant:
        assert verdict == VERDICT_IMPROVES
    else:
        assert verdict == VERDICT_FUNCTIONAL_ONLY


def test_report_invariant_rejects_inconsistent_verdict():
    with pytest.raises(ValueError, match="inconsistent"):
        EvaluationReport(
            patch_id="a__b__c",
            candidate_digest="0" * 64,
            applied_ok=False,
            build_ok=False,
            all_tests_pass=False,
            timing=(),
            verdict=VERDICT_IMPROVES,
            runs=5,
            session_id="s",
        )


def test_files_touched_parses_new_and_deleted_files():
    diff = (
        "--- a/kept.cpp\n+++ b/kept.cpp\n@@ -1 +1 @@\n-x\n+y\n"
        "--- /dev/null\n+++ b/added.cpp\n@@ -0,0 +1 @@\n+z\n"
        "--- a/removed.cpp\n+++ /dev/null\n@@ -1 +0,0 @@\n-q\n"
    )
    assert files_touched_by(diff) == ("kept.cpp", "added.cpp")
    # git diff-tree -p ends a header naming a spaced path with a tab, and
    # C-quotes one with a quote or a non-ASCII byte
    spaced_and_quoted = (
        "--- /dev/null\n+++ b/my file.cpp\t\n@@ -0,0 +1 @@\n+1\n"
        '--- /dev/null\n+++ "b/q\\"t.cpp"\n@@ -0,0 +1 @@\n+2\n'
        '--- /dev/null\n+++ "b/\\303\\251.cpp"\n@@ -0,0 +1 @@\n+3\n'
    )
    assert files_touched_by(spaced_and_quoted) == ("my file.cpp", 'q"t.cpp', "é.cpp")


def test_candidate_digest_is_stable_sha256():
    assert candidate_digest("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert candidate_digest("abc") == candidate_digest("abc")
    assert candidate_digest("abc") != candidate_digest("abd")
