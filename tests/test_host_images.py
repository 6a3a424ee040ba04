"""Host images: one file of a commit's tree objects, and the blob store they name."""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import pytest

import conftest as fixtures
from test_file_budget import _history
from test_tree_writer import _committed, _history_of_every_entry_kind, _snapshot

from perfmine import cli, pipeline
from perfmine.errors import StoreError
from perfmine.harvest import CommitRecord, GitObjects
from perfmine.orchestrator import ORIGINAL_DIR, PATCHED_DIR, prepare_environment
from perfmine.runtime import SHA_MARKER, FakeRuntime
from perfmine.trees import TreeObjects, object_id


@pytest.fixture()
def fake_runtime(tmp_path):
    return FakeRuntime(tmp_path / "state")


def _snapshot_of(runtime, repo, original: str, patched: str, tag: str) -> str:
    session = runtime.start_session("gcc:12")
    with GitObjects(repo) as objects:
        session.check_out(objects, {ORIGINAL_DIR: original, PATCHED_DIR: patched})
    runtime.snapshot(session, tag)
    session.close()
    return tag


def _fixture_image(runtime, fixture_repo, sha: str, tag: str = "perfmine/image") -> str:
    parent = fixtures.git(fixture_repo.path, "rev-parse", f"{sha}^").strip()
    return _snapshot_of(runtime, fixture_repo.path, parent, sha, tag)


def _sessions(runtime) -> list[str]:
    return os.listdir(os.path.join(runtime.state_dir, "sessions"))


@pytest.mark.parametrize("stored", ["first", "second"])
def test_a_stored_image_reopens_to_exactly_the_parent_tree(fake_runtime, tmp_path, stored):
    # exec bits, a symlink, a file become a symlink, a gitlink, non-ASCII and
    # \r in paths, an empty file
    repo = tmp_path / "edge"
    first, second = _history_of_every_entry_kind(repo)
    original, patched = (first, second) if stored == "first" else (second, first)
    tag = _snapshot_of(fake_runtime, repo, original, patched, "perfmine/edge")
    fake_runtime.close()  # the spares go; what the image names stays
    assert os.path.isfile(fake_runtime._image_path(tag))
    reopened = fake_runtime.open_image(tag)
    try:
        tree = reopened.host_path(ORIGINAL_DIR)
        assert _snapshot(tree) == _committed(repo, original)
        assert reopened.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}") == original + "\n"
        assert os.listdir(reopened.host_path("/work")) == ["original"]
    finally:
        reopened.close()
    assert _sessions(fake_runtime) == []


def _bad_hash(data: bytes) -> bytes:
    return data.replace(b"compute.cpp", b"compute.cxx", 1)


def _truncated(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _hostile(data: bytes) -> bytes:
    # a well-formed image whose root tree has an entry named ..
    blob = data.split(b"\n", 1)[0][:40].decode()  # any id: the name is refused first
    tree = b"100644 ..\0" + bytes.fromhex(blob)
    root = object_id("tree", tree, 40)
    return TreeObjects("1" * 40, root, {root: ("tree", tree)}).encode()


@pytest.mark.parametrize("fault, message", [
    (_bad_hash, " does not hash to its id"),
    (_truncated, " is cut short"),
    (_hostile, "holds a tree entry named '..'"),
])
def test_a_faulty_image_is_refused_with_one_line_and_leaves_no_session(
        fake_runtime, fixture_repo, fault, message):
    tag = _fixture_image(fake_runtime, fixture_repo, fixture_repo.perf_sha)
    before = _sessions(fake_runtime)  # the snapshotted session's spare trees
    image = fake_runtime._image_path(tag)
    with open(image, "rb") as handle:
        data = fault(handle.read())
    os.chmod(image, 0o644)
    with open(image, "wb") as handle:
        handle.write(data)
    with pytest.raises(StoreError) as refused:
        fake_runtime.open_image(tag)
    assert str(refused.value).startswith(f"image {tag} is unusable: ")
    assert message in str(refused.value) and "\n" not in str(refused.value)
    assert _sessions(fake_runtime) == before


def test_a_missing_blob_is_refused_with_one_line(fake_runtime, fixture_repo):
    tag = _fixture_image(fake_runtime, fixture_repo, fixture_repo.perf_sha)
    blob = fixtures.git(fixture_repo.path, "rev-parse",
                        f"{fixture_repo.perf_parent_sha}:src/compute.cpp").strip()
    fake_runtime.close()
    os.unlink(os.path.join(fake_runtime.blobs_dir, blob))
    with pytest.raises(StoreError, match=f"object {blob} is in neither the tree objects of "):
        fake_runtime.open_image(tag)
    assert _sessions(fake_runtime) == []


@pytest.mark.parametrize("before", ["image file", "old layout"])
def test_a_second_snapshot_replaces_the_image_file(fake_runtime, fixture_repo, before):
    tag = "perfmine/replaced"
    image = fake_runtime._image_path(tag)
    if before == "image file":
        _fixture_image(fake_runtime, fixture_repo, fixture_repo.perf_sha, tag)
    else:  # a store mined before an image was one file
        os.makedirs(os.path.join(image, "original", "src"))
        with open(os.path.join(image, "original", SHA_MARKER), "w") as handle:
            handle.write(fixture_repo.perf_parent_sha + "\n")
        os.chmod(os.path.join(image, "original", SHA_MARKER), 0o444)
        assert not fake_runtime.has_image(tag)
    _fixture_image(fake_runtime, fixture_repo, fixture_repo.tests_sha, tag)
    assert os.listdir(os.path.dirname(image)) == ["perfmine_replaced"]
    assert os.path.isfile(image) and not os.stat(image).st_mode & 0o222
    reopened = fake_runtime.open_image(tag)
    try:
        assert reopened.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}") == fixture_repo.perf_sha + "\n"
        assert reopened.read_file(f"{ORIGINAL_DIR}/src/compute.cpp") == fixtures.COMPUTE_FAST
    finally:
        reopened.close()


def _mine(repo, out, name: str, replies) -> str:
    code = cli.main(["mine", "--local-repo", str(repo), "--name", name, "--out", str(out),
                     "--fake-runtime", "--stub-backends", str(replies), "--runs", "5"])
    assert code == 0
    return os.path.join(out, "fake-runtime")


def test_the_blob_store_keeps_what_images_name_over_two_mines(fixture_repo, tmp_path, capsys):
    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps({"default": "Yes"}))
    out = tmp_path / "out"
    state = _mine(fixture_repo.path, out, "first", replies)
    first = fixtures.store_keeps_what_images_name(state)
    assert set(os.listdir(os.path.join(state, "blobs"))) == first
    assert f"{fixture_repo.perf_parent_sha}.marker" in first

    # another history into the same store: its sweep keeps the first mine's files
    state = _mine(_history(tmp_path / "other", 4), out, "second", replies)
    both = fixtures.store_keeps_what_images_name(state)
    assert first < both
    assert set(os.listdir(os.path.join(state, "blobs"))) == both
    runtime = FakeRuntime(state)
    reopened = runtime.open_image(f"perfmine/local__first__{fixture_repo.perf_sha}")
    try:
        assert reopened.read_file(f"{ORIGINAL_DIR}/src/compute.cpp") == fixtures.COMPUTE_SLOW
    finally:
        reopened.close()
    capsys.readouterr()


def test_a_runtime_sweeps_only_the_store_files_it_wrote(fake_runtime, fixture_repo):
    os.makedirs(fake_runtime.blobs_dir)
    planted = os.path.join(fake_runtime.blobs_dir, "f" * 40)  # linked by nothing
    with open(planted, "w") as handle:
        handle.write("from an earlier runtime\n")
    commit = CommitRecord(sha=fixture_repo.perf_sha, parent_sha=fixture_repo.perf_parent_sha,
                          author_timestamp=datetime(2023, 1, 1, tzinfo=timezone.utc), message="")
    with GitObjects(fixture_repo.path) as objects:
        prepare_environment(commit, fake_runtime, objects=objects).close()
    assert fake_runtime._trees.created
    fake_runtime.close()
    assert os.listdir(fake_runtime.blobs_dir) == [os.path.basename(planted)]


def test_after_the_first_built_commit_no_check_out_writes_a_whole_tree(
        tmp_path, monkeypatch, capsys):
    # a linear history of stored and dropped commits: each check-out syncs
    # the two trees the last session left, so it makes no directory
    repo = _history(tmp_path / "linear", 6)
    events: list[str] = []
    real_mkdir, real_prepare = os.mkdir, pipeline.prepare_environment

    def mkdir(path, *args, **kwargs):
        events.append(os.fspath(path))
        return real_mkdir(path, *args, **kwargs)

    def prepare(*args, **kwargs):
        events.append("prepare")
        return real_prepare(*args, **kwargs)

    monkeypatch.setattr(os, "mkdir", mkdir)
    monkeypatch.setattr(pipeline, "prepare_environment", prepare)
    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps({"default": "Yes"}))
    state = _mine(repo, tmp_path / "out", "linear", replies)
    assert "built=6 stored=3" in capsys.readouterr().out
    sessions = os.path.join(state, "sessions", "")
    in_trees = [i for i, event in enumerate(events)
                if event.startswith(sessions) and event[len(sessions):].count(os.sep) >= 2]
    prepares = [i for i, event in enumerate(events) if event == "prepare"]
    assert len(prepares) == 6
    assert in_trees and max(in_trees) < prepares[1]


def test_an_opened_image_snapshots_to_the_same_file_and_leaves_no_spare(
        fake_runtime, fixture_repo):
    tag = _fixture_image(fake_runtime, fixture_repo, fixture_repo.perf_sha)
    spares, before = list(fake_runtime._spares), _sessions(fake_runtime)
    reopened = fake_runtime.open_image(tag)
    fake_runtime.snapshot(reopened, "perfmine/again")
    reopened.close()
    with open(fake_runtime._image_path(tag), "rb") as first, \
            open(fake_runtime._image_path("perfmine/again"), "rb") as second:
        assert first.read() == second.read()
    assert _sessions(fake_runtime) == before
    assert fake_runtime._spares == spares  # an image's tree is never kept as a spare
