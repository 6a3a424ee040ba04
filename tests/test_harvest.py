from __future__ import annotations

import os
import subprocess
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfmine.errors import GitError, ShallowCloneError
from perfmine.harvest import (
    CommitRecord,
    FileChange,
    FileClass,
    FilterDecision,
    GitObjects,
    HarvestConfig,
    RejectReason,
    apply_structural_filter,
    classify_file,
    commit_diff_text,
    resolve_linked_issue,
    walk_history,
)

from conftest import commit_all, git

UTC = timezone.utc
CFG = HarvestConfig()


def _ts(year, month=6, day=15) -> datetime:
    return datetime(year, month, day, tzinfo=UTC)


def _commit(changes, ts=None, sha="a" * 40, parent="b" * 40, message="msg") -> CommitRecord:
    return CommitRecord(
        sha=sha,
        parent_sha=parent,
        author_timestamp=ts or _ts(2023),
        message=message,
        changes=tuple(changes),
    )


def _mod(path) -> FileChange:
    return FileChange(path=path, change_kind="modified")


# ---------------------------------------------------------------------------
# classify_file


@pytest.mark.parametrize(
    "path,expected",
    [
        ("src/parser.cpp", FileClass.CPP_SOURCE),
        ("tests/parser_test.cpp", FileClass.TEST_FILE),
        ("README.md", FileClass.OTHER),
        ("include/lib.hpp", FileClass.CPP_SOURCE),
        ("src/impl.tpp", FileClass.CPP_SOURCE),
        ("a/b/c/deep.cc", FileClass.CPP_SOURCE),
        ("test/fixture.txt", FileClass.TEST_FILE),  # marker wins over extension
        ("benchmarks/bench.cpp", FileClass.TEST_FILE),
        ("src/gtest_helpers.h", FileClass.TEST_FILE),
        ("src/contest.cpp", FileClass.CPP_SOURCE),  # no word-boundary hit
        ("src/latest/algo.cpp", FileClass.CPP_SOURCE),
        ("unit_tests/helper.cpp", FileClass.TEST_FILE),
        ("src/Test_runner.cpp", FileClass.TEST_FILE),  # case-insensitive
        ("CMakeLists.txt", FileClass.OTHER),
        ("src/module.c", FileClass.OTHER),  # .c is not in the default set
    ],
)
def test_classify_file(path, expected):
    assert classify_file(path) is expected


@given(st.text(min_size=1, max_size=60))
def test_classify_file_total_partition(path):
    labels = [classify_file(path)]
    assert labels[0] in (FileClass.CPP_SOURCE, FileClass.TEST_FILE, FileClass.OTHER)
    # pure: same input, same answer
    assert classify_file(path) is labels[0]


# ---------------------------------------------------------------------------
# apply_structural_filter


def test_filter_accepts_plain_cpp_commit():
    decision = apply_structural_filter(_commit([_mod("a.cpp"), _mod("b.hpp")]), CFG)
    assert decision == FilterDecision(True)


def test_filter_too_many_files():
    changes = [_mod(f"src/f{i}.cpp") for i in range(21)]
    decision = apply_structural_filter(_commit(changes), CFG)
    assert decision.reason is RejectReason.TOO_MANY_FILES


def test_filter_touches_tests():
    decision = apply_structural_filter(_commit([_mod("a.cpp"), _mod("tests/t.cpp")]), CFG)
    assert decision.reason is RejectReason.TOUCHES_TESTS


def test_filter_non_cpp_file():
    decision = apply_structural_filter(_commit([_mod("a.cpp"), _mod("notes.md")]), CFG)
    assert decision.reason is RejectReason.NON_CPP_FILE


def test_filter_out_of_window():
    decision = apply_structural_filter(_commit([_mod("a.cpp")], ts=_ts(2019)), CFG)
    assert decision.reason is RejectReason.OUT_OF_WINDOW


def test_filter_first_violation_wins():
    # window violation reported even though the commit also touches tests
    decision = apply_structural_filter(_commit([_mod("tests/t.cpp")], ts=_ts(2031)), CFG)
    assert decision.reason is RejectReason.OUT_OF_WINDOW
    # file order decides between touches_tests and non_cpp_file
    decision = apply_structural_filter(_commit([_mod("README.md"), _mod("tests/t.cpp")]), CFG)
    assert decision.reason is RejectReason.NON_CPP_FILE


def test_filter_rename_classified_by_new_path():
    change = FileChange(
        path="src/fast.cpp", change_kind="renamed", old_path="tests/slow.cpp", lines_added=1
    )
    assert apply_structural_filter(_commit([change]), CFG).accepted


def test_reason_soundness_recheck():
    commits = [
        _commit([_mod("a.cpp")], ts=_ts(2019)),
        _commit([_mod(f"f{i}.cpp") for i in range(25)]),
        _commit([_mod("tests/t.cpp")]),
        _commit([_mod("README.md")]),
    ]
    for commit in commits:
        decision = apply_structural_filter(commit, CFG)
        assert not decision.accepted
        if decision.reason is RejectReason.OUT_OF_WINDOW:
            assert not CFG.since <= commit.author_timestamp <= CFG.until
        elif decision.reason is RejectReason.TOO_MANY_FILES:
            assert len(commit.changes) > CFG.max_files
        elif decision.reason is RejectReason.TOUCHES_TESTS:
            assert any(classify_file(c.path) is FileClass.TEST_FILE for c in commit.changes)
        elif decision.reason is RejectReason.NON_CPP_FILE:
            assert any(classify_file(c.path) is FileClass.OTHER for c in commit.changes)


@given(
    st.integers(2020, 2025),
    st.integers(2020, 2025),
    st.integers(1, 30),
    st.integers(1, 30),
)
def test_filter_monotonicity(y1, y2, f1, f2):
    """Tightening the window or lowering max_files never flips reject->accept."""
    commit = _commit([_mod(f"src/f{i}.cpp") for i in range(7)], ts=_ts(2022))
    lo_y, hi_y = sorted((y1, y2))
    wide = HarvestConfig(since=_ts(2020, 1, 1), until=_ts(2026, 1, 1), max_files=max(f1, f2))
    narrow = HarvestConfig(since=_ts(lo_y, 1, 1), until=_ts(hi_y, 1, 2), max_files=min(f1, f2))
    if apply_structural_filter(commit, narrow).accepted:
        assert apply_structural_filter(commit, wide).accepted


# ---------------------------------------------------------------------------
# domain type invariants


def test_file_change_invariants():
    with pytest.raises(ValueError):
        FileChange(path="a.cpp", change_kind="renamed")  # rename without old_path
    with pytest.raises(ValueError):
        FileChange(path="a.cpp", change_kind="modified", old_path="b.cpp")
    with pytest.raises(ValueError):
        FileChange(path="./a.cpp", change_kind="modified")
    with pytest.raises(ValueError):
        FileChange(path="a\\b.cpp", change_kind="modified")
    with pytest.raises(ValueError):
        FileChange(path="a.cpp", change_kind="modified", lines_added=-1)


def test_commit_record_invariants():
    with pytest.raises(ValueError):
        _commit([_mod("a.cpp")], sha="XYZ")
    with pytest.raises(ValueError):
        CommitRecord(
            sha="a" * 40,
            parent_sha="b" * 40,
            author_timestamp=datetime(2023, 1, 1),  # naive
            message="m",
        )


def test_harvest_config_validation():
    with pytest.raises(ValueError):
        HarvestConfig(since=_ts(2025), until=_ts(2020))
    with pytest.raises(ValueError):
        HarvestConfig(max_files=0)


# ---------------------------------------------------------------------------
# walk_history on a real repository


def test_walk_yields_in_window_commits_oldest_first(fixture_repo):
    # the walk yields every commit whatever its date; the filter alone applies the window
    records = list(walk_history(fixture_repo.path, CFG))
    shas = [r.sha for r in records]
    assert fixture_repo.root_sha not in shas  # no parent
    assert shas == fixture_repo.all_five
    for r in records:
        assert r.changes
        assert r.parent_sha
    decisions = {r.sha: apply_structural_filter(r, CFG) for r in records}
    assert decisions[fixture_repo.out_of_window_sha].reason is RejectReason.OUT_OF_WINDOW
    assert [sha for sha, d in decisions.items() if d.accepted] == [fixture_repo.perf_sha]


def test_walk_wide_window_includes_all_five(fixture_repo):
    wide = HarvestConfig(since=_ts(2000), until=_ts(2040))
    records = list(walk_history(fixture_repo.path, wide))
    assert [r.sha for r in records] == [
        fixture_repo.perf_sha,
        fixture_repo.tests_sha,
        fixture_repo.oversized_sha,
        fixture_repo.out_of_window_sha,
        fixture_repo.non_cpp_sha,
    ]


def test_walk_parses_diffs(fixture_repo):
    records = {r.sha: r for r in walk_history(fixture_repo.path, CFG)}
    perf = records[fixture_repo.perf_sha]
    assert sorted(c.path for c in perf.changes) == ["src/compute.cpp", "src/compute.hpp"]
    assert all(c.change_kind == "modified" for c in perf.changes)
    assert all(c.lines_added > 0 for c in perf.changes)
    oversized = records[fixture_repo.oversized_sha]
    assert len(oversized.changes) == 21
    assert all(c.change_kind == "added" for c in oversized.changes)


def test_walk_excludes_merges(tmp_path):
    repo = tmp_path / "merge_repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "a.cpp").write_text("int a;\n")
    commit_all(repo, "base", "2022-01-01T00:00:00 +0000")
    git(repo, "checkout", "-q", "-b", "side")
    (repo / "b.cpp").write_text("int b;\n")
    side = commit_all(repo, "side work", "2022-01-02T00:00:00 +0000")
    git(repo, "checkout", "-q", "main")
    (repo / "c.cpp").write_text("int c;\n")
    commit_all(repo, "main work", "2022-01-03T00:00:00 +0000")
    git(
        repo,
        "merge",
        "--no-ff",
        "-m",
        "merge side",
        "side",
        env={
            "GIT_AUTHOR_DATE": "2022-01-04T00:00:00 +0000",
            "GIT_COMMITTER_DATE": "2022-01-04T00:00:00 +0000",
        },
    )
    records = list(walk_history(repo, CFG))
    messages = [r.message for r in records]
    assert "merge side" not in messages
    # first-parent walk also skips the side branch commit
    assert side not in [r.sha for r in records]
    assert messages == ["main work"]


def test_walk_detects_renames(tmp_path):
    repo = tmp_path / "rename_repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "old.cpp").write_text("".join(f"int line{i};\n" for i in range(12)))
    commit_all(repo, "base", "2022-01-01T00:00:00 +0000")
    git(repo, "mv", "old.cpp", "new.cpp")
    text = (repo / "new.cpp").read_text().replace("line3", "renamed3")
    (repo / "new.cpp").write_text(text)
    commit_all(repo, "rename with a tweak", "2022-02-01T00:00:00 +0000")
    (record,) = list(walk_history(repo, CFG))
    (change,) = record.changes
    assert change.change_kind == "renamed"
    assert change.old_path == "old.cpp"
    assert change.path == "new.cpp"


def test_walk_shallow_clone_rejected(tmp_path, fixture_repo):
    shallow = tmp_path / "shallow"
    git(
        fixture_repo.path,
        "clone",
        "-q",
        "--depth",
        "1",
        f"file://{fixture_repo.path}",
        str(shallow),
    )
    with pytest.raises(ShallowCloneError):
        list(walk_history(shallow, CFG))


def _dated(date: str) -> dict[str, str]:
    return {"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}


def test_walk_parses_every_kind_of_change(tmp_path):
    repo = tmp_path / "edge_repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "keep.cpp").write_text("int keep;\n")
    (repo / "gone.cpp").write_text("int gone;\nint gone2;\n")
    (repo / "old.cpp").write_text("".join(f"int line{i};\n" for i in range(12)))
    os.symlink("keep.cpp", repo / "link.h")
    root = commit_all(repo, "root", "2021-01-01T00:00:00 +0000")

    (repo / "added.cpp").write_text("int added;\n")
    (repo / "keep.cpp").write_text("int keep;\nint more;\n")
    (repo / "gone.cpp").unlink()
    git(repo, "mv", "old.cpp", "renamed.cpp")
    text = (repo / "renamed.cpp").read_text().replace("line3", "moved3")
    (repo / "renamed.cpp").write_text(text)
    edits = commit_all(repo, "add, modify, delete, rename", "2021-02-01T00:00:00 +0000")

    (repo / "link.h").unlink()
    (repo / "link.h").write_text("#pragma once\nint link;\n")  # symlink -> file
    (repo / "blob.bin").write_bytes(b"\x00\x01\x02\x03")
    retyped = commit_all(repo, "type change and a binary file", "2021-03-01T00:00:00 +0000")

    (repo / "dir with space").mkdir()
    (repo / "dir with space" / "a b.cpp").write_text("int ab;\n")
    (repo / "naïve_ü.hpp").write_text("int u;\nint v;\nint w;\n")
    odd_message = "odd paths\n\n:000000 100644 not a raw line\n12\t3\tnot a numstat line"
    odd = commit_all(repo, odd_message + "\n", "2021-04-01T00:00:00 +0000")

    git(repo, "commit", "-q", "--allow-empty", "-m", "nothing",
        env=_dated("2021-05-01T00:00:00 +0000"))
    empty = git(repo, "rev-parse", "HEAD").strip()
    git(repo, "checkout", "-q", "-b", "side")
    (repo / "side.cpp").write_text("int side;\n")
    commit_all(repo, "side work", "2021-06-01T00:00:00 +0000")
    git(repo, "checkout", "-q", "main")
    (repo / "keep.cpp").write_text("int keep;\n")
    main = commit_all(repo, "main work", "2021-07-01T00:00:00 +0000")
    git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side",
        env=_dated("2021-08-01T00:00:00 +0000"))

    def change(path, kind, added, deleted, old_path=None):
        return FileChange(path, kind, old_path, added, deleted)

    assert list(walk_history(repo, CFG)) == [
        CommitRecord(edits, root, datetime(2021, 2, 1, tzinfo=UTC),
                     "add, modify, delete, rename", changes=(
                         change("added.cpp", "added", 1, 0),
                         change("gone.cpp", "deleted", 0, 2),
                         change("keep.cpp", "modified", 1, 0),
                         change("renamed.cpp", "renamed", 1, 1, old_path="old.cpp"),
                     )),
        CommitRecord(retyped, edits, datetime(2021, 3, 1, tzinfo=UTC),
                     "type change and a binary file", changes=(
                         change("blob.bin", "added", 0, 0),
                         change("link.h", "modified", 2, 1),
                     )),
        CommitRecord(odd, retyped, datetime(2021, 4, 1, tzinfo=UTC), odd_message, changes=(
            change("dir with space/a b.cpp", "added", 1, 0),
            change("naïve_ü.hpp", "added", 3, 0),
        )),
        CommitRecord(main, empty, datetime(2021, 7, 1, tzinfo=UTC), "main work", changes=(
            change("keep.cpp", "modified", 0, 1),
        )),
    ]


def test_walk_keeps_carriage_returns_in_paths_and_messages(tmp_path):
    repo = tmp_path / "cr_repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    (repo / "base.cpp").write_text("int base;\n")
    root = commit_all(repo, "root", "2021-01-01T00:00:00 +0000")
    (repo / "a\rb.cpp").write_text("int ab;\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "--cleanup=verbatim", "-m", "fix\r\nspeed",
        env=_dated("2021-02-01T00:00:00 +0000"))
    [record] = walk_history(repo, CFG)
    assert record.parent_sha == root
    assert record.message == "fix\r\nspeed"
    assert record.changes == (FileChange("a\rb.cpp", "added", None, 1, 0),)


def test_walk_ignores_the_users_diff_config(fixture_repo, tmp_path, monkeypatch):
    expected = list(walk_history(fixture_repo.path, CFG))
    config = tmp_path / "gitconfig"
    order = tmp_path / "order.txt"
    order.write_text("tests/*\n*.hpp\n")
    config.write_text(
        f"[diff]\n\talgorithm = histogram\n\torderFile = {order}\n\trenames = copies\n"
        "[log]\n\tshowSignature = true\n[color]\n\tui = always\n"
    )
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    assert list(walk_history(fixture_repo.path, CFG)) == expected


def test_walk_of_an_empty_repository_raises(tmp_path):
    repo = tmp_path / "empty_repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    with pytest.raises(GitError):
        list(walk_history(repo, CFG))


def _linear_repo(path, commits: int, files: int = 1):
    path.mkdir()
    git(path, "init", "-q", "-b", "main", ".")
    for i in range(commits + 1):
        for f in range(files):
            (path / f"{'long_name_' * 10}{f}.cpp").write_text(f"int a = {i};\n")
        commit_all(path, f"commit {i}", f"2022-01-{i % 28 + 1:02d}T00:00:00 +0000")
    return path


def test_closing_the_walk_early_kills_and_reaps_git(tmp_path, recorded_processes):
    # about 250 kB of log output: git is still blocked on the pipe after one record
    repo = _linear_repo(tmp_path / "long", 40, files=20)
    walk = walk_history(repo, CFG)
    next(walk)
    git_log = recorded_processes[-1]
    assert git_log.poll() is None
    walk.close()
    assert git_log.returncode is not None
    assert git_log.stdout.closed
    assert all(proc.returncode is not None for proc in recorded_processes)


def test_walk_starts_the_same_few_processes_for_any_history(tmp_path, recorded_processes):
    counts = []
    for commits in (3, 30):
        repo = _linear_repo(tmp_path / f"linear{commits}", commits)
        recorded_processes.clear()
        assert len(list(walk_history(repo, CFG))) == commits
        counts.append(len(recorded_processes))
    assert counts[0] == counts[1] <= 3


def test_commit_diff_text(fixture_repo):
    records = {r.sha: r for r in walk_history(fixture_repo.path, CFG)}
    with GitObjects(fixture_repo.path) as objects:
        diff = commit_diff_text(objects, records[fixture_repo.perf_sha])
    assert "diff --git a/src/compute.cpp" in diff
    assert "hoisted out of the loop" in diff


def _hostile_config(tmp_path, monkeypatch) -> None:
    config = tmp_path / "gitconfig"
    order = tmp_path / "order.txt"
    order.write_text("*.hpp\n")
    config.write_text(
        f"[diff]\n\tnoprefix = true\n\tmnemonicPrefix = true\n\tcontext = 1\n"
        f"\torderFile = {order}\n\talgorithm = histogram\n\trenames = copies\n"
        "[color]\n\tui = always\n[core]\n\tquotePath = false\n"
    )
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))


def test_commit_diff_text_ignores_the_users_diff_config(fixture_repo, tmp_path, monkeypatch):
    record = {r.sha: r for r in walk_history(fixture_repo.path, CFG)}[fixture_repo.perf_sha]
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    porcelain = git(fixture_repo.path, "diff", "-M50%",
                    f"{record.parent_sha}..{record.sha}")
    with GitObjects(fixture_repo.path) as objects:
        assert commit_diff_text(objects, record) == porcelain
    _hostile_config(tmp_path, monkeypatch)
    with GitObjects(fixture_repo.path) as objects:
        diff = commit_diff_text(objects, record)
    assert diff.startswith("diff --git a/src/compute.cpp b/src/compute.cpp\n")
    assert diff == porcelain


def _edge_case_history(path):
    """A root commit, then one commit that makes every kind of change a diff can show."""
    path.mkdir()
    git(path, "init", "-q", "-b", "main", ".")
    body = "".join(f"int f{i}() {{ return {i}; }}\n" for i in range(30))
    files = {
        "moved.cpp": body,
        "gone.cpp": "int gone;\n",
        "tool.sh": "#!/bin/sh\necho hi\n",
        "becomes_file.cpp": None,  # a symlink first
        "becomes_link.cpp": "int real;\n",
        "blob.bin": "\0\1\2binary\0",
        "with space.cpp": "int a;\n",
        "caf\u00e9/\u00fcber.cpp": "// d\u00e9j\u00e0 vu\nint b;\n",
        "a\rb.cpp": "int c;\n",
        "crlf.cpp": "int d;\r\nint e;\r\n",
        "no_newline.cpp": "int f;",
        "tilde.cpp": "~\n~end\nint g;\n",
    }
    for name, text in files.items():
        (path / name).parent.mkdir(exist_ok=True)
        if text is None:
            os.symlink("moved.cpp", path / name)
        else:
            (path / name).write_bytes(text.encode())
    commit_all(path, "root", "2022-01-01T00:00:00 +0000")
    os.rename(path / "moved.cpp", path / "renamed.cpp")
    (path / "renamed.cpp").write_text(body.replace("return 7;", "return 70;"))
    os.unlink(path / "gone.cpp")
    os.chmod(path / "tool.sh", 0o755)
    os.unlink(path / "becomes_file.cpp")
    (path / "becomes_file.cpp").write_text("int now_a_file;\n")
    os.unlink(path / "becomes_link.cpp")
    os.symlink("renamed.cpp", path / "becomes_link.cpp")
    (path / "blob.bin").write_bytes(b"\0\3\4binary\0")
    (path / "with space.cpp").write_text("int a2;\n")
    (path / "caf\u00e9" / "\u00fcber.cpp").write_bytes("// d\u00e9j\u00e0 vu\nint b2;\n".encode())
    (path / "a\rb.cpp").write_text("int c2;\n")
    (path / "crlf.cpp").write_bytes(b"int d;\r\nint e2;\r\n")
    (path / "no_newline.cpp").write_text("int f2;")
    (path / "tilde.cpp").write_text("~\n~end\nint g2;\n~end\n")
    commit_all(path, "every kind of change", "2022-01-02T00:00:00 +0000")
    return path


@pytest.mark.parametrize("config", ["default", "hostile"])
def test_the_readers_diffs_equal_one_shot_diff_tree(fixture_repo, tmp_path, monkeypatch,
                                                    config):
    edge = _edge_case_history(tmp_path / "edge")
    if config == "hostile":
        _hostile_config(tmp_path, monkeypatch)
    seen = 0
    for repo in (fixture_repo.path, edge):
        with GitObjects(repo) as objects:
            for record in walk_history(repo, CFG):
                one_shot = subprocess.run(
                    ["git", "-C", str(repo), "diff-tree", "-p", "-M50%",
                     record.parent_sha, record.sha],
                    capture_output=True, check=True,
                ).stdout
                assert commit_diff_text(objects, record).encode() == one_shot, record.message
                seen += 1
    assert seen == 6


def test_the_edge_case_history_shows_every_kind_of_change(tmp_path):
    edge = _edge_case_history(tmp_path / "edge")
    [record] = walk_history(edge, CFG)
    with GitObjects(edge) as objects:
        diff = commit_diff_text(objects, record)
        # a commit whose diff is empty still has its end found
        assert objects.diff(record.sha, record.sha) == ""
    for expected in ("rename from moved.cpp\n", "deleted file mode 100644\n",
                     "old mode 100644\nnew mode 100755\n", "new file mode 120000\n",
                     "Binary files a/blob.bin and b/blob.bin differ\n",
                     '"a/caf\\303\\251/\\303\\274ber.cpp"', '"a/a\\rb.cpp"',
                     "-int e;\r\n+int e2;\r\n", "\\ No newline at end of file\n",
                     "\n ~end\n", "\n+~end\n", "a/with space.cpp"):
        assert expected in diff


def test_a_commit_missing_from_the_clone_is_an_error(fixture_repo):
    record = {r.sha: r for r in walk_history(fixture_repo.path, CFG)}[fixture_repo.perf_sha]
    with GitObjects(fixture_repo.path) as objects:
        with pytest.raises(GitError, match="no commit"):
            objects.diff("0" * 40, record.parent_sha)
        with pytest.raises(GitError, match="f" * 40):
            objects.diff(record.sha, "f" * 40)
        assert "hoisted out of the loop" in commit_diff_text(objects, record)


def test_a_missing_or_non_blob_object_reads_as_none(fixture_repo):
    with GitObjects(fixture_repo.path) as objects:
        cmake = objects.blob(f"{fixture_repo.perf_sha}:CMakeLists.txt")
        assert cmake == git(fixture_repo.path, "show",
                            f"{fixture_repo.perf_sha}:CMakeLists.txt")
        assert objects.blob(f"{fixture_repo.perf_sha}:no/such/CMakeLists.txt") is None
        assert objects.blob(f"{fixture_repo.perf_sha}:src") is None  # a tree
        assert objects.blob(f"{'0' * 40}:CMakeLists.txt") is None
        assert objects.blob(f"{fixture_repo.perf_sha}:CMakeLists.txt") == cmake


def test_the_reader_resolves_a_name_to_the_id_of_its_object(fixture_repo):
    with GitObjects(fixture_repo.path) as objects:
        assert objects.resolve("HEAD") == git(fixture_repo.path, "rev-parse", "HEAD").strip()
        assert objects.resolve(f"{fixture_repo.perf_sha}^") == fixture_repo.perf_parent_sha
        with pytest.raises(GitError, match="no object no-such-branch"):
            objects.resolve("no-such-branch")


def test_the_reader_starts_one_process_of_each_kind_and_reaps_both(fixture_repo,
                                                                   recorded_processes):
    records = list(walk_history(fixture_repo.path, CFG))
    recorded_processes.clear()
    with GitObjects(fixture_repo.path) as objects:
        for record in records:
            commit_diff_text(objects, record)
            objects.blob(f"{record.sha}:CMakeLists.txt")
        assert [p.args[3] for p in recorded_processes] == ["diff-tree", "cat-file"]
    assert all(p.returncode is not None and p.stdout.closed for p in recorded_processes)


# ---------------------------------------------------------------------------
# linked issues


def test_resolve_linked_issue_number_reference():
    commit = _commit([_mod("a.cpp")], message="Speed up parse\n\nFixes #42")
    calls = []

    def fetch(owner, name, number):
        calls.append((owner, name, number))
        return "parsing is O(n^2) on large inputs"

    updated = resolve_linked_issue(commit, "acme", "fastlib", fetch)
    assert calls == [("acme", "fastlib", 42)]
    assert updated.linked_issue_text == "parsing is O(n^2) on large inputs"
    assert commit.linked_issue_text is None  # original untouched


def test_resolve_linked_issue_url_reference():
    commit = _commit(
        [_mod("a.cpp")],
        message="See https://github.com/other/repo/issues/9 for context",
    )
    updated = resolve_linked_issue(
        commit, "acme", "fastlib", lambda o, n, i: f"{o}/{n}#{i}"
    )
    assert updated.linked_issue_text == "other/repo#9"


def test_resolve_linked_issue_absent_or_failing():
    plain = _commit([_mod("a.cpp")], message="no reference here")
    assert resolve_linked_issue(plain, "o", "n", lambda *a: "x").linked_issue_text is None

    referencing = _commit([_mod("a.cpp")], message="fixes #3")

    def boom(*a):
        raise RuntimeError("api down")

    assert resolve_linked_issue(referencing, "o", "n", boom).linked_issue_text is None
    assert resolve_linked_issue(referencing, "o", "n", None).linked_issue_text is None
