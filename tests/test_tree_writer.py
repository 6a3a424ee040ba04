"""Trees written from a clone's objects as hard links into one blob store."""

from __future__ import annotations

import errno
import os
import re
import stat
import subprocess
from datetime import datetime, timezone

import pytest

import conftest as fixtures
from test_linked_images import _writes_in_place

from perfmine.backends import StubBackend
from perfmine.classifier import BackendConfig
from perfmine.errors import ContractViolation, GitError
from perfmine.harvest import CommitRecord, GitObjects, HarvestConfig
from perfmine.orchestrator import ORIGINAL_DIR, PATCHED_DIR, prepare_environment
from perfmine.pipeline import MiningLimits, gate_with_runtime, local_descriptor, mine_repository
from perfmine.runtime import SHA_MARKER, FakeRuntime
from perfmine.stats import StatConfig
from perfmine.store import read_entry, read_ground_truth_diff


@pytest.fixture()
def fake_runtime(tmp_path):
    return FakeRuntime(tmp_path / "state")


@pytest.fixture()
def no_git_config(monkeypatch):
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")


def _commit(repo, sha):
    parent = fixtures.git(repo, "rev-parse", f"{sha}^").strip()
    return CommitRecord(sha=sha, parent_sha=parent,
                        author_timestamp=datetime(2023, 1, 1, tzinfo=timezone.utc), message="")


def _snapshot(top: str) -> dict[str, tuple]:
    """Every entry under ``top`` but the marker: relative path -> ("dir",),
    ("120000", link target) or (git file mode, bytes)."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(top):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, top)
            mode = os.lstat(path).st_mode
            if stat.S_ISLNK(mode):
                found[rel] = ("120000", os.readlink(path))
            elif stat.S_ISDIR(mode):
                found[rel] = ("dir",)
            elif rel != SHA_MARKER:
                with open(path, "rb") as handle:
                    found[rel] = ("100755" if mode & 0o100 else "100644", handle.read())
    return found


def _committed(repo, sha) -> dict[str, tuple]:
    """The entries of commit ``sha`` in ``_snapshot``'s form, read as raw objects."""
    found = {}
    listing = subprocess.run(["git", "-C", str(repo), "ls-tree", "-r", "-t", "-z", sha],
                             capture_output=True, check=True).stdout
    for record in listing.split(b"\0")[:-1]:
        meta, path = record.split(b"\t", 1)
        mode, kind, oid = meta.decode().split()
        rel = os.fsdecode(path)
        if kind in ("tree", "commit"):  # a gitlink is checked out as an empty directory
            found[rel] = ("dir",)
        else:
            body = subprocess.run(["git", "-C", str(repo), "cat-file", "blob", oid],
                                  capture_output=True, check=True).stdout
            found[rel] = (mode, os.fsdecode(body) if mode == "120000" else body)
    return found


def _history_of_every_entry_kind(path):
    """Two commits whose trees hold every kind of entry a checkout writes."""
    path.mkdir()
    fixtures.git(path, "init", "-q", "-b", "main", ".")
    files = {
        "tool.sh": b"#!/bin/sh\necho hi\n",
        "becomes_link.cpp": b"int real;\n",
        "empty.txt": b"",
        "deep/er/still/nested.cpp": b"int nested;\n",
        "twice/one.cpp": b"int same;\n",
        "twice/two.cpp": b"int same;\n",
        "modes/plain": b"#!/bin/sh\nexit 0\n",
        "modes/exec": b"#!/bin/sh\nexit 0\n",
        "with space.cpp": b"int a;\n",
        "café/über.cpp": "// déjà vu\n".encode(),
        "a\rb.cpp": b"int c;\n",
        "crlf.cpp": b"int d;\r\n",
    }
    for name, body in files.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_bytes(body)
    os.chmod(path / "tool.sh", 0o755)
    os.chmod(path / "modes" / "exec", 0o755)
    os.symlink("tool.sh", path / "link")
    fixtures.git(path, "add", "-A")
    # a submodule entry, with no submodule behind it but its empty directory
    fixtures.git(path, "update-index", "--add", "--cacheinfo", f"160000,{'1' * 40},vendor/sub")
    (path / "vendor" / "sub").mkdir(parents=True)
    fixtures.git(path, "commit", "-q", "-m", "first",
                 env={"GIT_AUTHOR_DATE": "2022-01-01T00:00:00 +0000",
                      "GIT_COMMITTER_DATE": "2022-01-01T00:00:00 +0000"})
    first = fixtures.git(path, "rev-parse", "HEAD").strip()
    os.unlink(path / "becomes_link.cpp")
    os.symlink("deep/er/still/nested.cpp", path / "becomes_link.cpp")
    second = fixtures.commit_all(path, "second", "2022-01-02T00:00:00 +0000")
    return first, second


def test_trees_equal_what_git_checkout_writes(fake_runtime, tmp_path, no_git_config):
    repo = tmp_path / "edge"
    first, second = _history_of_every_entry_kind(repo)
    trees = {"/work/first": first, "/work/second": second}
    session = fake_runtime.start_session("gcc:12")
    with GitObjects(repo) as objects:
        session.check_out(objects, trees)
    for dest, sha in trees.items():
        reference = tmp_path / f"reference-{sha}"
        reference.mkdir()
        subprocess.run(
            ["git", "-C", str(repo), f"--work-tree={reference}", "checkout", "--quiet", sha,
             "--", ":/"],
            check=True, env={**os.environ, "GIT_INDEX_FILE": str(tmp_path / f"{sha}.index")},
        )
        written = _snapshot(session.host_path(dest))
        assert written == _snapshot(str(reference)), dest
        assert written["vendor/sub"] == ("dir",) and written["empty.txt"] == ("100644", b"")
        assert written["modes/exec"][0] == "100755" and written["modes/plain"][0] == "100644"
        assert written == _committed(repo, sha)
    first_tree = session.host_path("/work/first")
    assert _snapshot(session.host_path("/work/second"))["becomes_link.cpp"][0] == "120000"
    # one store file per blob id and exec bit
    inode = {rel: os.stat(os.path.join(first_tree, rel)).st_ino
             for rel in ("twice/one.cpp", "twice/two.cpp", "modes/plain", "modes/exec")}
    assert inode["twice/one.cpp"] == inode["twice/two.cpp"]
    assert inode["modes/plain"] != inode["modes/exec"]
    session.close()
    fake_runtime.close()
    assert os.listdir(fake_runtime.blobs_dir) == []


def test_trees_ignore_the_operators_line_ending_settings(tmp_path, monkeypatch):
    config = tmp_path / "gitconfig"
    config.write_text("[core]\n\tautocrlf = true\n")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    repo = tmp_path / "crlf"
    (repo / "src").mkdir(parents=True)
    fixtures.git(repo, "init", "-q", "-b", "main", ".")
    (repo / ".gitattributes").write_text("*.cpp text eol=crlf\n")
    (repo / "src" / "a.cpp").write_text("// fake-timing: t base_ms=150 step_ms=0.01\nint a;\n")
    fixtures.commit_all(repo, "base", "2023-01-01T00:00:00 +0000")
    (repo / "src" / "a.cpp").write_text("// fake-timing: t base_ms=100 step_ms=0.01\nint a;\n")
    sha = fixtures.commit_all(repo, "Speed up a", "2023-02-01T00:00:00 +0000")
    commit = _commit(repo, sha)

    runtime = FakeRuntime(tmp_path / "state")
    with GitObjects(repo) as objects:
        session = prepare_environment(commit, runtime, objects=objects)
    try:
        for tree, version in ((ORIGINAL_DIR, commit.parent_sha), (PATCHED_DIR, sha)):
            written = _snapshot(session.host_path(tree))
            assert written == _committed(repo, version)
            assert written["src/a.cpp"][1].endswith(b"int a;\n")
    finally:
        session.close()

    out = tmp_path / "out"
    with GitObjects(repo) as objects:
        result = mine_repository(
            local_descriptor(fixtures.head_of(repo), "local", "crlf"), repo,
            harvest_config=HarvestConfig(), backend_config=BackendConfig(),
            stat_config=StatConfig(), limits=MiningLimits(runs=5), runtime=runtime,
            backend=StubBackend({"default": "Yes"}), objects=objects, out_dir=out,
        )
    [patch_id] = result.stored_patch_ids
    patch = read_ground_truth_diff(out, patch_id)
    reopened = runtime.open_image(read_entry(out, patch_id).image)
    try:
        tree = reopened.host_path(ORIGINAL_DIR)
        check = reopened.exec(["git", "-C", tree, "apply", "--check", "-"], patch,
                              env={"GIT_CEILING_DIRECTORIES": os.path.dirname(tree)})
        assert check.returncode == 0, check.stderr
    finally:
        reopened.close()


_RETURN_ONE = "int f() {\n    return 1;\n}\n"
_REINDENTED = """\
--- a/a.cpp
+++ b/a.cpp
@@ -1,3 +1,3 @@
 int f() {
-  return 1;
+  return 2;
 }
"""


@pytest.mark.parametrize("config", ["[apply]\n\tignoreWhitespace = change\n",
                                    "[core]\n\tautocrlf = true\n"],
                         ids=["ignore-whitespace", "autocrlf"])
def test_a_patch_applies_as_with_no_git_config(fake_runtime, tmp_path, monkeypatch, config):
    # the operator's ~/.gitconfig would apply a candidate whose context differs
    # from the tree only in indentation, or write the patched file with CRLF
    home = tmp_path / "home"
    home.mkdir()
    (home / ".gitconfig").write_text(config)
    monkeypatch.setenv("HOME", str(home))
    for name in ("GIT_CONFIG_GLOBAL", "GIT_CONFIG_NOSYSTEM", "XDG_CONFIG_HOME"):
        monkeypatch.delenv(name, raising=False)
    session = fake_runtime.start_session("gcc:12")
    try:
        path = session.host_path("/work/tree/a.cpp")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_RETURN_ONE)
        assert not session.apply_patch("/work/tree", _REINDENTED).ok
        assert session.apply_patch("/work/tree", _REINDENTED.replace("  return", "    return")).ok
        with open(path, "rb") as handle:
            assert handle.read() == _RETURN_ONE.replace("1", "2").encode()
    finally:
        session.close()


def _hash_object(repo, kind: str, body: bytes) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "hash-object", "-t", kind, "--literally", "-w", "--stdin"],
        input=body, capture_output=True, check=True,
    ).stdout.decode().strip()


def _tree(repo, entries) -> str:
    body = b"".join(f"{mode} ".encode() + name + b"\0" + bytes.fromhex(oid)
                    for mode, name, oid in entries)
    return _hash_object(repo, "tree", body)


@pytest.mark.parametrize("name", ["", ".", "..", ".git", ".GIT", ".Git", "a/b"])
@pytest.mark.parametrize("nested", [False, True])
def test_a_hostile_tree_entry_is_refused_by_name(fake_runtime, tmp_path, name, nested):
    repo = tmp_path / "hostile"
    repo.mkdir()
    fixtures.git(repo, "init", "-q", "-b", "main", ".")
    blob = _hash_object(repo, "blob", b"escaped\n")
    hostile = [("100644", b"fine.txt", blob), ("100644", name.encode(), blob)]
    root = _tree(repo, [("40000", b"sub", _tree(repo, hostile))] if nested else hostile)
    sha = fixtures.git(repo, "commit-tree", root, "-m", "hostile").strip()
    path = f"sub/{name}" if nested else name

    state = fake_runtime.state_dir
    for spare in (False, True):  # the second check-out syncs the tree the first one left
        session = fake_runtime.start_session("gcc:12")
        with GitObjects(repo) as objects, pytest.raises(GitError, match=re.escape(repr(path))):
            session.check_out(objects, {"/work/tree": sha})
        assert not session.path_exists(f"/work/tree/{SHA_MARKER}")
        if spare:  # the session took it
            assert fake_runtime._spares == []
        written = [os.path.relpath(os.path.join(d, f), state)
                   for d, _, files in os.walk(state) for f in files]
        assert all(p.startswith(os.path.join("sessions", os.path.basename(session.root),
                                             "tree", "")) or p.startswith("blobs" + os.sep)
                   for p in written), written
        assert not (tmp_path / "escaped").exists() and not (repo / ".git" / name).is_file()
        session.close()
    fake_runtime.close()
    assert os.listdir(fake_runtime.blobs_dir) == []


def _kept_by_store(runtime) -> set[str]:
    """The names in the blob store, checked against what the images name."""
    fixtures.store_keeps_what_images_name(runtime.state_dir)
    return set(os.listdir(runtime.blobs_dir))


def _image_files(runtime, tag: str) -> set[str]:
    """The store files image ``tag`` names: its tree's blobs and its marker."""
    return fixtures.image_names(runtime._image_path(tag))


def _history_with_one_commit_stored_and_one_not(path):
    (path / "src").mkdir(parents=True)
    fixtures.git(path, "init", "-q", "-b", "main", ".")
    (path / "src" / "a.cpp").write_text("// fake-timing: t base_ms=150 step_ms=0.01\nint a;\n")
    (path / "src" / "b.cpp").write_text("int b;\n")
    (path / "CMakeLists.txt").write_text("project(x CXX)\n")
    fixtures.commit_all(path, "base", "2023-01-01T00:00:00 +0000")
    (path / "src" / "a.cpp").write_text("// fake-timing: t base_ms=100 step_ms=0.01\nint a;\n")
    fixtures.commit_all(path, "Speed up a", "2023-02-01T00:00:00 +0000")
    (path / "src" / "b.cpp").write_text("int b2;\n")
    fixtures.commit_all(path, "Tidy b", "2023-03-01T00:00:00 +0000")
    return path


def test_the_blob_store_keeps_only_what_an_image_links(tmp_path, recorded_processes):
    repo = _history_with_one_commit_stored_and_one_not(tmp_path / "repo")
    runtime = FakeRuntime(tmp_path / "state")
    with GitObjects(repo) as objects:
        gated = gate_with_runtime(local_descriptor(fixtures.head_of(repo), "local", "repo"),
                                  runtime, objects=objects)
        assert gated.passes_gate
        # the head's store files stay for the mine, whose trees share most of them
        head = fixtures.git(repo, "rev-parse", "HEAD").strip()
        assert sorted(os.listdir(runtime.blobs_dir)) == sorted(
            [f"{head}.marker"] + fixtures.git(repo, "ls-tree", "-r", "--format=%(objectname)",
                                              head).split())
        result = mine_repository(
            gated, repo, harvest_config=HarvestConfig(), backend_config=BackendConfig(),
            stat_config=StatConfig(), limits=MiningLimits(runs=5), runtime=runtime,
            backend=StubBackend({"default": "Yes"}), objects=objects, out_dir=tmp_path / "out",
        )
    assert (result.funnel.built, result.funnel.stored) == (2, 1)
    assert "checkout" not in {arg for p in recorded_processes for arg in p.args}
    tag = read_entry(tmp_path / "out", result.stored_patch_ids[0]).image
    runtime.close()
    assert os.listdir(os.path.join(runtime.state_dir, "sessions")) == []
    assert _kept_by_store(runtime) == _image_files(runtime, tag)
    parent = read_entry(tmp_path / "out", result.stored_patch_ids[0]).commit.parent_sha
    assert _image_files(runtime, tag) == {f"{parent}.marker"} | set(fixtures.git(
        repo, "ls-tree", "-r", "--format=%(objectname)", parent).split())


def test_replacing_an_image_drops_the_blobs_only_it_linked(fake_runtime, fixture_repo):
    for sha in (fixture_repo.perf_sha, fixture_repo.tests_sha):
        with GitObjects(fixture_repo.path) as objects:
            session = prepare_environment(_commit(fixture_repo.path, sha), fake_runtime,
                                          objects=objects)
        tag = fake_runtime.snapshot(session, "perfmine/replaced")
        session.close()
    replacement = fake_runtime.open_image(tag)
    assert "hoisted out of the loop" in replacement.read_file(f"{ORIGINAL_DIR}/src/compute.cpp")
    replacement.close()
    fake_runtime.close()
    assert _kept_by_store(fake_runtime) == _image_files(fake_runtime, tag)


@pytest.mark.parametrize("failure", ["rename", "read"])
def test_a_failed_blob_write_leaves_no_blob_behind(fake_runtime, fixture_repo, monkeypatch,
                                                   failure):
    if failure == "rename":
        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", fail)
        expected = OSError
    else:
        real = GitObjects.read

        def fail(self, name):
            kind, data = real(self, name)
            if kind == "blob":
                raise GitError("output ended early")
            return kind, data

        monkeypatch.setattr(GitObjects, "read", fail)
        expected = GitError
    commit = _commit(fixture_repo.path, fixture_repo.perf_sha)
    with GitObjects(fixture_repo.path) as objects:
        with pytest.raises(expected):
            prepare_environment(commit, fake_runtime, objects=objects)
        # the store's directory is made with its first file, so may not exist
        blobs = fake_runtime.blobs_dir
        assert not os.path.exists(blobs) or os.listdir(blobs) == []
        assert not any(fixtures.files_under(os.path.join(fake_runtime.state_dir, "sessions")))
        monkeypatch.undo()
        session = prepare_environment(commit, fake_runtime, objects=objects)
    assert fixtures.files_under(session.host_path(PATCHED_DIR)) == {
        SHA_MARKER: ("100644", commit.sha + "\n"),
        **fixtures.commit_files(fixture_repo.path, commit.sha)}
    session.close()


def test_a_mining_sessions_source_files_are_read_only(fake_runtime, fixture_repo):
    commit = _commit(fixture_repo.path, fixture_repo.perf_sha)
    with GitObjects(fixture_repo.path) as objects:
        session = prepare_environment(commit, fake_runtime, objects=objects)
    try:
        for tree in (ORIGINAL_DIR, PATCHED_DIR):
            path = session.host_path(f"{tree}/src/compute.cpp")
            assert not os.stat(path).st_mode & 0o222
            assert not _writes_in_place(path)
    finally:
        session.close()


def test_a_snapshot_of_a_checked_out_tree_changes_no_mode(fake_runtime, fixture_repo,
                                                           monkeypatch):
    # the marker is a read-only store file like every other file of the tree
    commit = _commit(fixture_repo.path, fixture_repo.perf_sha)
    with GitObjects(fixture_repo.path) as objects:
        session = prepare_environment(commit, fake_runtime, objects=objects)
    changed = []
    real = os.chmod
    monkeypatch.setattr(os, "chmod", lambda path, mode, **kw: changed.append(
        os.path.basename(path)) or real(path, mode, **kw))
    tag = fake_runtime.snapshot(session, "perfmine/marked")
    session.close()
    assert changed == []
    assert f"{commit.parent_sha}.marker" in _image_files(fake_runtime, tag)
    marker = os.path.join(fake_runtime.blobs_dir, f"{commit.parent_sha}.marker")
    assert not os.stat(marker).st_mode & 0o222
    assert not _writes_in_place(marker)


def _two_commits_for_a_spare(path):
    """Commit A, then B, which edits, adds and deletes a file."""
    path.mkdir()
    fixtures.git(path, "init", "-q", "-b", "main", ".")
    files = {"src/a.cpp": "int a;\n", "src/b.cpp": "int b;\n", "include/a.hpp": "int a();\n",
             "lib/c.cpp": "int c;\n", "README": "readme\n"}
    for name, body in files.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(body)
    first = fixtures.commit_all(path, "A", "2022-01-01T00:00:00 +0000")
    (path / "src" / "b.cpp").write_text("int b2;\n")
    (path / "lib" / "new.cpp").write_text("int n;\n")
    (path / "README").unlink()
    second = fixtures.commit_all(path, "B", "2022-01-02T00:00:00 +0000")
    return first, second


def test_a_check_out_syncs_a_spare_tree_with_planted_junk_to_exactly_its_commit(
        fake_runtime, tmp_path, no_git_config):
    repo = tmp_path / "spare"
    first, second = _two_commits_for_a_spare(repo)
    outside = tmp_path / "outside"
    (outside / "src").mkdir(parents=True)
    (outside / "src" / "a.cpp").write_text("not a tree file\n")
    (outside / "a.cpp").write_text("not a tree file\n")
    before_outside = _snapshot(str(outside))

    with GitObjects(repo) as objects:
        session = fake_runtime.start_session("gcc:12")
        session.check_out(objects, {"/work/tree": first})
        tree = session.host_path("/work/tree")
        with open(os.path.join(tree, "extra.txt"), "w") as handle:  # an extra file
            handle.write("extra\n")
        os.makedirs(os.path.join(tree, "junk", "deeper"))  # an extra directory
        with open(os.path.join(tree, "junk", "deeper", "x.txt"), "w") as handle:
            handle.write("x\n")
        os.unlink(os.path.join(tree, "lib", "c.cpp"))  # a writable copy with other bytes
        with open(os.path.join(tree, "lib", "c.cpp"), "w") as handle:
            handle.write("int changed;\n")
        for name in os.listdir(os.path.join(tree, "include")):  # a directory become a file
            os.unlink(os.path.join(tree, "include", name))
        os.rmdir(os.path.join(tree, "include"))
        with open(os.path.join(tree, "include"), "w") as handle:
            handle.write("a file\n")
        for name in os.listdir(os.path.join(tree, "src")):  # src a symlink out of the tree
            os.unlink(os.path.join(tree, "src", name))
        os.rmdir(os.path.join(tree, "src"))
        os.symlink(outside, os.path.join(tree, "src"))
        planted = os.stat(tree).st_ino
        session.close()

        session = fake_runtime.start_session("gcc:12")
        session.check_out(objects, {"/work/tree": second})
    tree = session.host_path("/work/tree")
    assert os.stat(tree).st_ino == planted  # the spare itself, synced in place
    assert _snapshot(tree) == _committed(repo, second)
    assert session.read_file(f"/work/tree/{SHA_MARKER}") == second + "\n"
    assert not os.stat(os.path.join(tree, SHA_MARKER)).st_mode & 0o222
    blobs = {os.stat(os.path.join(fake_runtime.blobs_dir, name)).st_ino
             for name in os.listdir(fake_runtime.blobs_dir)}
    assert all(os.stat(os.path.join(d, f)).st_ino in blobs
               for d, _, files in os.walk(tree) for f in files)
    assert _snapshot(str(outside)) == before_outside
    state = fake_runtime.state_dir
    written = {os.path.relpath(os.path.join(d, f), state)
               for d, _, files in os.walk(state) for f in files}
    assert all(p.startswith((os.path.join("sessions", os.path.basename(session.root), "tree", ""),
                             "blobs" + os.sep)) for p in written), written
    session.close()
    fake_runtime.close()
    assert os.listdir(os.path.join(state, "sessions")) == []
    assert os.listdir(fake_runtime.blobs_dir) == []


@pytest.mark.parametrize("planted", ["symlink", "file"])
def test_a_check_out_replaces_a_symlink_or_file_at_its_destination(fake_runtime, tmp_path,
                                                                   planted):
    repo = tmp_path / "dest"
    first, _ = _two_commits_for_a_spare(repo)
    outside = tmp_path / "outside"
    (outside / "src").mkdir(parents=True)
    (outside / "src" / "a.cpp").write_text("not a tree file\n")
    before = _snapshot(str(outside))
    session = fake_runtime.start_session("gcc:12")
    tree = session.host_path(ORIGINAL_DIR)
    if planted == "symlink":
        os.symlink(outside, tree)
    else:
        with open(tree, "w", encoding="utf-8") as handle:
            handle.write("not a tree\n")
    with GitObjects(repo) as objects:
        session.check_out(objects, {ORIGINAL_DIR: first})
    assert _snapshot(str(outside)) == before
    assert not os.path.lexists(outside / SHA_MARKER)
    assert stat.S_ISDIR(os.lstat(tree).st_mode)
    assert _snapshot(tree) == _committed(repo, first)
    assert session.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}") == first + "\n"
    session.close()


def test_a_spare_of_the_same_commit_keeps_its_marker_unless_the_write_fails(fake_runtime,
                                                                          tmp_path):
    repo = tmp_path / "marker"
    first, second = _two_commits_for_a_spare(repo)
    with GitObjects(repo) as objects:
        session = fake_runtime.start_session("gcc:12")
        session.check_out(objects, {"/work/tree": first})
        marker = os.stat(session.host_path(f"/work/tree/{SHA_MARKER}")).st_ino
        session.close()

        session = fake_runtime.start_session("gcc:12")
        session.check_out(objects, {"/work/tree": first})
        assert os.stat(session.host_path(f"/work/tree/{SHA_MARKER}")).st_ino == marker
        assert _snapshot(session.host_path("/work/tree")) == _committed(repo, first)
        session.close()

        # a write that fails removes the kept marker too
        session = fake_runtime.start_session("gcc:12")
        with pytest.raises(GitError, match="0123456789"):
            session.check_out(objects, {"/work/tree": first, "/work/bad": "0123456789" * 4})
        assert not session.path_exists(f"/work/tree/{SHA_MARKER}")
        session.close()

        session = fake_runtime.start_session("gcc:12")
        session.check_out(objects, {"/work/tree": second})
        assert session.read_file(f"/work/tree/{SHA_MARKER}") == second + "\n"
        assert _snapshot(session.host_path("/work/tree")) == _committed(repo, second)
        session.close()


def test_a_closed_sessions_directory_holds_its_spares_then_serves_a_later_session(
        fake_runtime, tmp_path):
    repo = tmp_path / "reuse"
    first, second = _two_commits_for_a_spare(repo)
    with GitObjects(repo) as objects:
        held = fake_runtime.start_session("gcc:12")
        held.check_out(objects, {"/work/original": first, "/work/patched": second})
        os.makedirs(held.host_path("/work/build"))
        held.close()
        # the trees stay as spares, the rest of the directory goes, and the
        # closed session refuses every call
        assert sorted(os.listdir(held.root)) == ["original", "patched"]
        with pytest.raises(ContractViolation, match="was closed"):
            held.path_exists("/work/original")

        taker = fake_runtime.start_session("gcc:12")
        assert taker.root != held.root and os.listdir(taker.root) == []
        taker.check_out(objects, {"/work/original": second, "/work/patched": first})
        assert os.listdir(held.root) == []  # both spares taken
        taker.close()

        reused = fake_runtime.start_session("gcc:12")
        assert reused.root == held.root and os.listdir(reused.root) == []
        assert reused.session_id not in (held.session_id, taker.session_id)
        reused.close()
    fake_runtime.close()
    assert os.listdir(os.path.join(fake_runtime.state_dir, "sessions")) == []
