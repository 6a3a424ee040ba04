"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line naming its criterion, so running
``pytest tests/test_acceptance.py -v -s`` reads as a checklist. The
tolerances asserted here are the product's contract; loosening them is
a behavior change, not a test fix.

The last criterion exercises a real container engine and is skipped
automatically on machines without one.
"""

from __future__ import annotations

import json
import random
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from conftest import build_fixture_repo, commit_all, git
from test_stats import oracle_exact_p

from perfmine.backends import StubBackend
from perfmine.classifier import BackendConfig, classify_commit
from perfmine.cli import EXIT_BROKEN, EXIT_FUNCTIONAL_ONLY, EXIT_OK, main
from perfmine.harvest import (
    CommitRecord,
    FileChange,
    GitObjects,
    HarvestConfig,
    apply_structural_filter,
    walk_history,
)
from perfmine.orchestrator import run_tests_repeatedly
from perfmine.runtime import DockerCliRuntime, FakeRuntime
from perfmine.stats import (
    METHOD_EXACT,
    StatConfig,
    is_significant,
    mann_whitney_one_sided,
    precision_recall,
    u_statistic,
)
from perfmine.store import read_entry

DIFF_MARKER = "int unmistakable_diff_marker_4711;"


def _passed(line: str) -> None:
    print(f"PASS  {line}")


# ---------------------------------------------------------------------------
# 1. exact test statistic against brute-force enumeration


def test_acceptance_01_exact_p_matches_enumeration_oracle():
    rng = random.Random(0x5EED)
    started = time.perf_counter()
    for _ in range(500):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        values = rng.sample(range(1, 10_000), n + m)
        pre = [float(v) for v in values[:n]]
        post = [float(v) for v in values[n:]]
        result = mann_whitney_one_sided(pre, post)
        assert result.method == METHOD_EXACT
        num, den = oracle_exact_p(n, m, result.u_statistic)
        assert abs(result.p_value - num / den) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s, budget is 10s"
    _passed(
        "criterion 01: exact one-sided p equals rank-enumeration oracle on "
        f"500 random tie-free pairs within 1e-12 ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 2. the significance rule is strict on both thresholds


def test_acceptance_02_significance_rule_boundaries():
    config = StatConfig()
    assert is_significant(0.06, 0.05, config) is False  # p must be strictly below alpha
    assert is_significant(0.06, 0.049, config) is True
    assert is_significant(0.03, 0.001, config) is False  # improvement below 5%
    _passed(
        "criterion 02: significance requires improvement >= 0.05 and p strictly "
        "below 0.05 (boundary triple checked)"
    )


# ---------------------------------------------------------------------------
# 3. pinned exact values for the two reference sample pairs


def test_acceptance_03_reference_exact_values():
    pre, post = [10.0, 12.0, 14.0], [1.0, 2.0, 3.0]
    num, den = oracle_exact_p(3, 3, u_statistic(pre, post))
    assert (num, den) == (1, 20)
    assert abs(mann_whitney_one_sided(pre, post).p_value - 1 / 20) <= 1e-15

    pre, post = [5.0, 6.0, 7.0, 8.0], [1.0, 2.0, 3.0, 4.0]
    num, den = oracle_exact_p(4, 4, u_statistic(pre, post))
    assert (num, den) == (1, 70)
    assert abs(mann_whitney_one_sided(pre, post).p_value - 1 / 70) <= 1e-15
    _passed("criterion 03: reference pairs give p = 1/20 and p = 1/70, oracle-first")


# ---------------------------------------------------------------------------
# 4. two-phase vote protocol: truth table and prompt visibility


def _synthetic_commit() -> CommitRecord:
    return CommitRecord(
        sha="a" * 40,
        parent_sha="b" * 40,
        author_timestamp=datetime(2023, 6, 1, tzinfo=timezone.utc),
        message="Speed up the inner loop",
        changes=(FileChange(path="src/loop.cpp", change_kind="modified"),),
    )


@pytest.mark.parametrize(
    "first,second,expected_final,expected_phase",
    [
        ("Yes", "Yes", "positive", 1),
        ("Yes", "No", "positive", 2),
        ("Yes", "Maybe", "positive", 2),
        ("No", "Yes", "positive", 2),
        ("No", "No", "negative", 1),
        ("No", "Maybe", "positive", 2),
        ("Maybe", "Yes", "positive", 2),
        ("Maybe", "No", "positive", 2),
        ("Maybe", "Maybe", "positive", 2),
    ],
)
def test_acceptance_04_vote_truth_table(first, second, expected_final, expected_phase):
    stub = StubBackend(
        {"default": {"phase1:0": first, "phase1:1": second, "phase2": "Yes"}}
    )
    verdict = classify_commit(
        _synthetic_commit(), lambda c: DIFF_MARKER, BackendConfig(), stub
    )
    assert verdict.final == expected_final
    assert verdict.decided_in_phase == expected_phase

    phase1_calls = [c for c in stub.calls if c.context.get("phase") == 1]
    phase2_calls = [c for c in stub.calls if c.context.get("phase") == 2]
    assert len(phase1_calls) == 2
    for call in phase1_calls:
        assert DIFF_MARKER not in call.prompt  # phase 1 never sees the diff
        assert "Speed up the inner loop" in call.prompt
    if expected_phase == 1:
        assert not phase2_calls
    else:
        assert len(phase2_calls) == 1
        assert DIFF_MARKER in phase2_calls[0].prompt  # phase 2 always does


def test_acceptance_04_truth_table_summary():
    _passed(
        "criterion 04: all 9 vote pairs behave as specified (2 settle in phase 1, "
        "7 escalate), phase-1 prompts exclude the diff, the phase-2 prompt includes it"
    )


# ---------------------------------------------------------------------------
# 5. precision / recall reproduction


def test_acceptance_05_precision_recall_values():
    result = precision_recall(13, 2, 18, 372)
    assert abs(result.precision * 100 - 86.67) <= 0.005
    assert abs(result.recall * 100 - 41.94) <= 0.005
    _passed(
        "criterion 05: precision_recall(13, 2, 18, 372) = "
        f"({result.precision * 100:.4f}%, {result.recall * 100:.4f}%), "
        "within 0.005 points of (86.67%, 41.94%)"
    )


# ---------------------------------------------------------------------------
# 6. structural filter: hand-traced fixture plus tightening monotonicity


_WIDE = HarvestConfig(
    since=datetime(1970, 1, 1, tzinfo=timezone.utc),
    until=datetime(2100, 1, 1, tzinfo=timezone.utc),
)


def test_acceptance_06_structural_filter_fixture_and_monotonicity(fixture_repo):
    commits = list(walk_history(fixture_repo.path, _WIDE))
    assert [c.sha for c in commits] == fixture_repo.all_five

    default = HarvestConfig()
    decisions = {c.sha: apply_structural_filter(c, default) for c in commits}
    assert decisions[fixture_repo.perf_sha].accepted
    expected_reasons = {
        fixture_repo.tests_sha: "touches_tests",
        fixture_repo.oversized_sha: "too_many_files",
        fixture_repo.out_of_window_sha: "out_of_window",
        fixture_repo.non_cpp_sha: "non_cpp_file",
    }
    for sha, reason in expected_reasons.items():
        assert not decisions[sha].accepted
        assert decisions[sha].reason.value == reason

    # tightening the window or the file budget can only shrink the accepted set
    rng = random.Random(0xF17E)
    span_start = datetime(2018, 1, 1, tzinfo=timezone.utc)
    for _ in range(200):
        loose_since = span_start + timedelta(days=rng.randint(0, 1500))
        loose_until = loose_since + timedelta(days=rng.randint(30, 2500))
        loose_max = rng.randint(1, 25)
        tight_since = loose_since + timedelta(days=rng.randint(0, 400))
        tight_until = loose_until - timedelta(days=rng.randint(0, 400))
        if tight_since >= tight_until:
            tight_until = tight_since + timedelta(seconds=1)
            if tight_until > loose_until:
                continue
        loose = HarvestConfig(since=loose_since, until=loose_until, max_files=loose_max)
        tight = HarvestConfig(
            since=tight_since, until=tight_until, max_files=rng.randint(1, loose_max)
        )
        accepted_loose = {c.sha for c in commits if apply_structural_filter(c, loose).accepted}
        accepted_tight = {c.sha for c in commits if apply_structural_filter(c, tight).accepted}
        assert accepted_tight <= accepted_loose
    _passed(
        "criterion 06: fixture filter decisions match the hand trace and 200 "
        "random tightenings never grew the accepted set"
    )


# ---------------------------------------------------------------------------
# 7. end-to-end mine on the fixture, inside the time budget


def test_acceptance_07_end_to_end_fixture_mine(fixture_repo, tmp_path):
    script = tmp_path / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    out_dir = tmp_path / "store"
    started = time.perf_counter()
    code = main(
        [
            "mine",
            "--local-repo", str(fixture_repo.path),
            "--out", str(out_dir),
            "--fake-runtime",
            "--stub-backends", str(script),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert elapsed < 60.0, f"fixture mine took {elapsed:.1f}s, budget is 60s"

    manifests = list((out_dir / "entries").glob("*.json"))
    assert len(manifests) == 1
    patch_id = manifests[0].stem
    entry = read_entry(out_dir, patch_id)  # strict schema validation on load
    assert entry.commit.sha == fixture_repo.perf_sha
    assert entry.has_significant_test is True  # planted timings: 150ms -> 100ms
    _passed(
        "criterion 07: fixture mine stored exactly 1 entry, manifest validates, "
        f"has_significant_test matches the planted timings ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 8. evaluation round-trip with the documented exit codes


@pytest.fixture(scope="module")
def acceptance_store(tmp_path_factory, fixture_repo):
    base = tmp_path_factory.mktemp("acceptance")
    script = base / "stub.json"
    script.write_text(json.dumps({fixture_repo.perf_sha: "Yes"}), encoding="utf-8")
    out_dir = base / "store"
    code = main(
        [
            "mine",
            "--local-repo", str(fixture_repo.path),
            "--out", str(out_dir),
            "--fake-runtime",
            "--stub-backends", str(script),
        ]
    )
    assert code == EXIT_OK
    patch_id = f"local__fixturerepo__{fixture_repo.perf_sha}"
    return base, out_dir, patch_id


def test_acceptance_08_evaluation_round_trip(acceptance_store):
    base, out_dir, patch_id = acceptance_store

    ground_truth = out_dir / "patches" / f"{patch_id}.patch"
    code = main(
        ["evaluate", "--store", str(out_dir), "--patch-id", patch_id,
         "--patch-file", str(ground_truth), "--fake-runtime"]
    )
    assert code == EXIT_OK  # exit 0: improves

    empty = base / "empty.patch"
    empty.write_text("", encoding="utf-8")
    code = main(
        ["evaluate", "--store", str(out_dir), "--patch-id", patch_id,
         "--patch-file", str(empty), "--fake-runtime"]
    )
    assert code == EXIT_FUNCTIONAL_ONLY  # exit 10

    conflicting = base / "conflicting.patch"
    conflicting.write_text(
        "--- a/src/missing.cpp\n+++ b/src/missing.cpp\n"
        "@@ -1 +1 @@\n-int a;\n+int b;\n",
        encoding="utf-8",
    )
    code = main(
        ["evaluate", "--store", str(out_dir), "--patch-id", patch_id,
         "--patch-file", str(conflicting), "--fake-runtime"]
    )
    assert code == EXIT_BROKEN  # exit 20
    _passed(
        "criterion 08: ground-truth diff evaluates to improves (exit 0), empty "
        "diff to functional_only (exit 10), conflicting diff to broken (exit 20)"
    )


# ---------------------------------------------------------------------------
# 9. warm-up discard law


@pytest.mark.parametrize("runs", [2, 5, 31])
def test_acceptance_09_warmup_discard_law(runs, fixture_repo, tmp_path):
    runtime = FakeRuntime(state_dir=tmp_path / "state")
    session = runtime.start_session("gcc:12")
    try:
        with GitObjects(fixture_repo.path) as objects:
            session.check_out(objects, {"/work/original": fixture_repo.perf_sha})
        build = session.configure_and_build("/work/original", "/work/original-build", ())
        assert build.ok
        outcome = run_tests_repeatedly(session, "/work/original", runs=runs, version="original")
    finally:
        session.close()
    assert outcome.runs_requested == runs
    assert outcome.runs_recorded == runs - 1
    assert len(outcome.suite_wall_times_ms) == runs - 1
    for test in outcome.tests:
        assert len(test.wall_times_ms) == runs - 1
    _passed(f"criterion 09: runs={runs} records exactly {runs - 1} samples (warm-up discarded)")


# ---------------------------------------------------------------------------
# 10. optional: one real project through a real container engine


docker_available = DockerCliRuntime().available()


@pytest.mark.skipif(not docker_available, reason="no reachable container engine")
def test_acceptance_10_real_container_runtime(tmp_path):
    from perfmine.orchestrator import (
        BuildPlan,
        ORIGINAL_DIR,
        PATCHED_DIR,
        build_with_repair,
        prepare_environment,
        select_base_image,
    )
    from perfmine.evaluate import compare_timings

    repo_dir = tmp_path / "realrepo"
    slow_sha, fast_sha = _build_real_timing_repo(repo_dir)
    commit = CommitRecord(
        sha=fast_sha,
        parent_sha=slow_sha,
        author_timestamp=datetime(2023, 1, 2, tzinfo=timezone.utc),
        message="Shorten the busy loop",
        changes=(FileChange(path="main.cpp", change_kind="modified"),),
    )
    base_image, _ = select_base_image((repo_dir / "CMakeLists.txt").read_text())
    runtime = DockerCliRuntime()
    with GitObjects(repo_dir) as objects:
        session = prepare_environment(commit, runtime, objects=objects, base_image=base_image)
    try:
        plan = BuildPlan(base_image=base_image, compiler_version="")
        for version_dir in (ORIGINAL_DIR, PATCHED_DIR):
            attempt = build_with_repair(session, version_dir, plan, max_rounds=1)
            plan = attempt.plan
            assert attempt.build_ok, attempt.log[-2000:]
        original = run_tests_repeatedly(session, ORIGINAL_DIR, runs=31, version="original")
        patched = run_tests_repeatedly(session, PATCHED_DIR, runs=31, version="patched")
    finally:
        session.close()
    assert original.qualified and patched.qualified
    [evidence] = compare_timings(original, patched, StatConfig())
    assert evidence.result.relative_improvement == pytest.approx(0.2, abs=0.1)
    assert evidence.result.significant
    _passed(
        "criterion 10: real container run builds both versions, 31 runs each, "
        "and flags the 20% faster patched version significant"
    )


def _build_real_timing_repo(root: Path) -> tuple[str, str]:
    """Two commits: a 60ms test binary, then a 48ms one (20% faster)."""
    main_cpp = (
        "#include <chrono>\n"
        "#include <thread>\n"
        "int main() {\n"
        "    std::this_thread::sleep_for(std::chrono::milliseconds(SLEEP_MS));\n"
        "    return 0;\n"
        "}\n"
    )
    root.mkdir(parents=True)
    git(root, "init", "-q", "-b", "main", ".")
    (root / "CMakeLists.txt").write_text(
        "cmake_minimum_required(VERSION 3.16)\n"
        "project(realrepo CXX)\n"
        "set(CMAKE_CXX_STANDARD 17)\n"
        "add_executable(timed main.cpp)\n"
        "enable_testing()\n"
        "add_test(NAME timed COMMAND timed)\n"
    )
    (root / "main.cpp").write_text(main_cpp.replace("SLEEP_MS", "60"))
    slow_sha = commit_all(root, "Initial busy loop", "2023-01-01T00:00:00 +0000")
    (root / "main.cpp").write_text(main_cpp.replace("SLEEP_MS", "48"))
    fast_sha = commit_all(root, "Shorten the busy loop", "2023-01-02T00:00:00 +0000")
    return slow_sha, fast_sha
