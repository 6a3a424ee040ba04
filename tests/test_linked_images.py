"""Read-only images, and host sessions that hard-link their files."""

from __future__ import annotations

import difflib
import errno
import hashlib
import os
import stat

import pytest

from conftest import commit_all, git, image_names

from perfmine.evaluate import (
    CANDIDATE_DIR,
    VERDICT_BROKEN,
    VERDICT_FUNCTIONAL_ONLY,
    VERDICT_IMPROVES,
    evaluate,
)
from perfmine.errors import RuntimeUnavailableError
from perfmine.harvest import GitObjects
from perfmine.runtime import ORIGINAL_DIR, FakeRuntime, LocalProcessRuntime
from perfmine.store import read_entry, read_ground_truth_diff

NOBODY = 65534  # the unprivileged uid and gid an in-place write is tried under


@pytest.fixture()
def fake_runtime(tmp_path):
    return FakeRuntime(tmp_path / "state")


def _commit_of(where, files: dict[str, str], executable=(), links=None):
    """A new repository under ``where`` whose one commit holds ``files``, the
    ones named in ``executable`` with their exec bit, and ``links``
    (path -> target) as symlinks; returns it and the commit."""
    repo = where / f"repo-{len(list(where.glob('repo-*')))}"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", ".")
    for rel, text in files.items():
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_text(text, encoding="utf-8")
        os.chmod(repo / rel, 0o755 if rel in executable else 0o644)
    for rel, target in (links or {}).items():
        os.symlink(target, repo / rel)
    return repo, commit_all(repo, "tree", "2023-01-01T00:00:00 +0000")


def _image_of(runtime, where, files: dict[str, str], tag: str = "perfmine/linked") -> str:
    """Snapshot a session whose original tree is a commit holding ``files``."""
    repo, sha = _commit_of(where, files)
    session = runtime.start_session("gcc:12")
    with GitObjects(repo) as objects:
        session.check_out(objects, {ORIGINAL_DIR: sha})
    runtime.snapshot(session, tag)
    session.close()
    return tag


def _store_state(runtime, tag: str) -> tuple[bytes, dict[str, tuple[int, str]]]:
    """The bytes of image ``tag`` and ``_image_state`` of the blob store."""
    with open(runtime._image_path(tag), "rb") as handle:
        return handle.read(), _image_state(runtime.blobs_dir)


def _blob_path(mined_store, rel: str) -> str:
    """The store file of the parent's ``rel`` in the mined store."""
    fixture = mined_store.fixture
    blob = git(fixture.path, "rev-parse", f"{fixture.perf_parent_sha}:{rel}").strip()
    return os.path.join(mined_store.runtime.blobs_dir, blob)


def _image_state(top: str) -> dict[str, tuple[int, str]]:
    """Every entry under ``top``: relative path -> (mode, sha256 of its bytes
    or of its link target)."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(top):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            mode = os.lstat(path).st_mode
            body = b""
            if stat.S_ISLNK(mode):
                body = os.readlink(path).encode()
            elif stat.S_ISREG(mode):
                with open(path, "rb") as handle:
                    body = handle.read()
            state[os.path.relpath(path, top)] = (mode, hashlib.sha256(body).hexdigest())
    return state


def _regular_modes(state: dict[str, tuple[int, str]]) -> dict[str, int]:
    return {path: mode for path, (mode, _) in state.items() if stat.S_ISREG(mode)}


def _writes_in_place(path: str) -> bool:
    """Whether the owner of ``path``, without privileges, can open it for
    writing in place.

    root passes every mode check, so under root a forked child takes the
    file over and drops to an unprivileged uid before it tries. It opens
    the file from its directory, because a test's temporary directories
    let no other user pass through them.
    """
    if os.geteuid() != 0:
        try:
            with open(path, "r+"):
                return True
        except PermissionError:
            return False
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            os.chdir(os.path.dirname(path))
            name = os.path.basename(path)
            os.chown(name, NOBODY, NOBODY)
            os.setgroups([])
            os.setgid(NOBODY)
            os.setuid(NOBODY)
            os.stat(name)  # fails with code 3 if the file cannot be reached at all
            try:
                with open(name, "r+"):
                    code = 1
            except PermissionError:
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    assert code in (0, 1), f"the unprivileged child could not try the write (exit {code})"
    return code == 1


# ---------------------------------------------------------------------------
# snapshots


def test_every_file_of_a_stored_image_is_read_only(mined_store):
    # the image file, and every store file it names
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    image = mined_store.runtime._image_path(entry.image)
    assert not os.stat(image).st_mode & 0o222
    modes = _regular_modes(_image_state(mined_store.runtime.blobs_dir))
    named = image_names(image)
    assert os.path.basename(_blob_path(mined_store, "src/compute.cpp")) in named
    assert named <= set(modes)
    assert {name for name in named if modes[name] & 0o222} == set()


def test_a_snapshot_keeps_exec_bits_and_follows_no_symlink(fake_runtime, tmp_path):
    outside = tmp_path / "host-file.txt"
    outside.write_text("not part of any tree\n", encoding="utf-8")
    outside.chmod(0o664)
    repo, sha = _commit_of(tmp_path, {"src/a.cpp": "int a;\n", "run.sh": "#!/bin/sh\n"},
                           executable={"run.sh"}, links={"outside": str(outside)})
    session = fake_runtime.start_session("gcc:12")
    with GitObjects(repo) as objects:
        session.check_out(objects, {ORIGINAL_DIR: sha})
    # what the session writes into its tree is not the image's
    edited = session.host_path(f"{ORIGINAL_DIR}/src/a.cpp")
    os.unlink(edited)
    with open(edited, "w", encoding="utf-8") as handle:
        handle.write("int edited;\n")
    os.chmod(edited, 0o664)
    tag = fake_runtime.snapshot(session, "perfmine/symlinked")
    session.close()
    reopened = fake_runtime.open_image(tag)
    try:
        work = reopened.host_path(ORIGINAL_DIR)
        assert stat.S_IMODE(os.stat(os.path.join(work, "run.sh")).st_mode) == 0o555
        assert stat.S_IMODE(os.stat(os.path.join(work, "src", "a.cpp")).st_mode) == 0o444
        assert reopened.read_file(f"{ORIGINAL_DIR}/src/a.cpp") == "int a;\n"
        assert os.readlink(os.path.join(work, "outside")) == str(outside)
    finally:
        reopened.close()
    assert stat.S_IMODE(outside.stat().st_mode) == 0o664


def test_re_snapshotting_a_tag_replaces_its_read_only_image(fake_runtime, tmp_path):
    tag = _image_of(fake_runtime, tmp_path, {"src/a.cpp": "first\n"})
    image = fake_runtime._image_path(tag)
    assert not _writes_in_place(image)
    _image_of(fake_runtime, tmp_path, {"src/b.cpp": "second\n"})
    assert os.listdir(os.path.join(fake_runtime.state_dir, "images")) == ["perfmine_linked"]
    assert not _writes_in_place(image)
    reopened = fake_runtime.open_image(tag)
    try:
        assert os.listdir(reopened.host_path(f"{ORIGINAL_DIR}/src")) == ["b.cpp"]
    finally:
        reopened.close()


# ---------------------------------------------------------------------------
# sessions opened from an image


def test_a_session_and_its_copy_share_the_image_files(mined_store):
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    image_file = _blob_path(mined_store, "src/compute.cpp")
    session = mined_store.runtime.open_image(entry.image)
    try:
        session.copy_tree(ORIGINAL_DIR, CANDIDATE_DIR)
        inodes = {os.stat(path).st_ino for path in (
            image_file,
            session.host_path(f"{ORIGINAL_DIR}/src/compute.cpp"),
            session.host_path(f"{CANDIDATE_DIR}/src/compute.cpp"),
        )}
        assert len(inodes) == 1
        # the directories are the session's own, so new files can be made
        assert os.stat(session.host_path(CANDIDATE_DIR)).st_mode & 0o200
    finally:
        session.close()
    assert os.path.isfile(image_file)


def test_an_in_place_write_to_a_linked_file_is_refused(fake_runtime, tmp_path):
    tag = _image_of(fake_runtime, tmp_path, {"src/a.cpp": "int a;\n"})
    image, before = _store_state(fake_runtime, tag)
    session = fake_runtime.open_image(tag)
    try:
        session.copy_tree(ORIGINAL_DIR, CANDIDATE_DIR)
        for tree in (ORIGINAL_DIR, CANDIDATE_DIR):
            assert not _writes_in_place(session.host_path(f"{tree}/src/a.cpp"))
    finally:
        session.close()
    assert _store_state(fake_runtime, tag)[0] == image
    after = _image_state(fake_runtime.blobs_dir)
    assert {path: digest for path, (_, digest) in after.items()} == {
        path: digest for path, (_, digest) in before.items()}


def _diff(path: str, old: str, new: str) -> str:
    return "".join(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        fromfile=f"a/{path}", tofile=f"b/{path}",
    ))


def test_evaluating_every_candidate_kind_leaves_the_image_as_it_was(mined_store):
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    before = _store_state(mined_store.runtime, entry.image)
    assert {p for p, mode in _regular_modes(before[1]).items() if mode & 0o222} == set()
    path = "src/compute.cpp"
    with open(_blob_path(mined_store, path), encoding="utf-8") as handle:
        source = handle.read()
    decl = "base_ms=150 step_ms=0.01"
    assert decl in source
    candidates = {
        "ground_truth": (read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id),
                         VERDICT_IMPROVES),
        "other_speedup": (_diff(path, source, source.replace(decl, "base_ms=90 step_ms=0.01")),
                          VERDICT_IMPROVES),
        "empty": ("", VERDICT_FUNCTIONAL_ONLY),
        "slowdown": (_diff(path, source, source.replace(decl, "base_ms=200 step_ms=0.01")),
                     VERDICT_FUNCTIONAL_ONLY),
        "fails_recorded_run": (_diff(path, source, source.replace(decl, decl + " fail_run=3")),
                               VERDICT_BROKEN),
        # written against a version of the file that never existed
        "does_not_apply": (_diff(path, source.replace("150", "1150"), source), VERDICT_BROKEN),
    }
    for kind, (diff, verdict) in candidates.items():
        report = evaluate(mined_store.patch_id, diff, mined_store.store_dir,
                          mined_store.runtime, runs=8)
        assert report.verdict == verdict, kind
        assert _store_state(mined_store.runtime, entry.image) == before, kind


@pytest.mark.parametrize("code", [errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP])
def test_where_a_file_cannot_be_linked_it_is_copied(mined_store, monkeypatch, code):
    refused = []

    def link(src, dst, *args, **kwargs):
        refused.append(src)
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "link", link)
    entry = read_entry(mined_store.store_dir, mined_store.patch_id)
    image_file = _blob_path(mined_store, "src/compute.cpp")
    session = mined_store.runtime.open_image(entry.image)
    try:
        copy = session.host_path(f"{ORIGINAL_DIR}/src/compute.cpp")
        assert image_file in refused
        assert os.stat(copy).st_ino != os.stat(image_file).st_ino
    finally:
        session.close()
    diff = read_ground_truth_diff(mined_store.store_dir, mined_store.patch_id)
    report = evaluate(mined_store.patch_id, diff, mined_store.store_dir, mined_store.runtime,
                      runs=8)
    assert report.verdict == VERDICT_IMPROVES


def test_any_other_link_failure_is_raised(fake_runtime, tmp_path, monkeypatch):
    tag = _image_of(fake_runtime, tmp_path, {"src/a.cpp": "int a;\n"})

    def link(src, dst, *args, **kwargs):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "link", link)
    with pytest.raises(OSError, match=os.strerror(errno.EIO)):
        fake_runtime.open_image(tag)


@pytest.mark.parametrize("runtime_class", [FakeRuntime, LocalProcessRuntime])
@pytest.mark.parametrize("failure", ["no_such_tag", "link_fails"])
def test_an_image_that_fails_to_open_leaves_no_session_behind(tmp_path, monkeypatch,
                                                              runtime_class, failure):
    runtime = runtime_class(tmp_path / "state")
    tag = _image_of(runtime, tmp_path, {"src/a.cpp": "int a;\n", "src/b.cpp": "int b;\n"})
    if failure == "no_such_tag":
        tag, expected = "perfmine/none", RuntimeUnavailableError
    else:
        def link(src, dst, *args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "link", link)
        expected = OSError
    before = os.listdir(tmp_path / "state" / "sessions")  # the image's spare trees
    with pytest.raises(expected):
        runtime.open_image(tag)
    assert os.listdir(tmp_path / "state" / "sessions") == before
