"""The slot: the two trees that an evaluation leaves in ``sessions/spare`` for the next.

A session opened from an image keeps ``/work/original`` and
``/work/candidate`` when it closes and renames its directory to the slot.
The next runtime that needs trees and holds no spares claims the slot
with one rename, keeps the real directories in it as spares, and syncs
them in place. Whatever the slot holds, the trees must come out as a
fresh open writes them, and no write may go through a symlink.
"""

from __future__ import annotations

import os
import shutil
import stat

import pytest

from test_host_images import _snapshot_of
from test_tree_writer import _history_of_every_entry_kind, _snapshot

from perfmine.evaluate import CANDIDATE_DIR, evaluate
from perfmine.runtime import ORIGINAL_DIR, SHA_MARKER, SLOT, FakeRuntime

TAG = "perfmine/slot"

# what the first evaluation's candidate leaves: a file changed, one deleted,
# one added in a new directory
_PATCH = """\
--- a/twice/one.cpp
+++ b/twice/one.cpp
@@ -1 +1 @@
-int same;
+int changed;
--- a/empty.txt
+++ /dev/null
--- /dev/null
+++ b/added/new.cpp
@@ -0,0 +1 @@
+int added;
"""


def _tree_state(top: str) -> dict[str, tuple]:
    """Every entry under ``top``, marker included: relative path -> ("dir",),
    ("link", target) or ("file", mode bits, inode), so a file is the same
    only when it is the same store file."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(top):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):
                found[os.path.relpath(path, top)] = ("link", os.readlink(path))
            elif stat.S_ISDIR(st.st_mode):
                found[os.path.relpath(path, top)] = ("dir",)
            else:
                found[os.path.relpath(path, top)] = ("file", stat.S_IMODE(st.st_mode), st.st_ino)
    return found


def _evaluation(state) -> dict[str, dict[str, tuple]]:
    """The two trees of an evaluation in a new runtime (a new process), as
    ``copy_tree`` leaves them; then the candidate is patched and the
    runtime closed, as the command does."""
    runtime = FakeRuntime(state)
    session = runtime.open_image(TAG)
    try:
        session.copy_tree(ORIGINAL_DIR, CANDIDATE_DIR)
        trees = {tree: _tree_state(session.host_path(tree))
                 for tree in (ORIGINAL_DIR, CANDIDATE_DIR)}
        assert session.apply_patch(CANDIDATE_DIR, _PATCH).ok
    finally:
        session.close()
        runtime.close()
    return trees


@pytest.fixture()
def image(tmp_path):
    """A state directory holding an image of every kind of entry, and the
    trees a fresh open of it gives; the evaluation left its trees in the slot."""
    repo = tmp_path / "edge"
    first, second = _history_of_every_entry_kind(repo)
    state = tmp_path / "state"
    runtime = FakeRuntime(state)
    _snapshot_of(runtime, repo, first, second, TAG)
    runtime.close()
    assert os.listdir(state / "sessions") == []
    fresh = _evaluation(state)
    assert os.listdir(state / "sessions") == [SLOT]
    return state, fresh


def _outside(tmp_path) -> str:
    """A directory that no write through the slot may reach."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "kept.cpp").write_text("int kept;\n", encoding="utf-8")
    (outside / "deep").mkdir()
    (outside / "deep" / "er").mkdir()
    return str(outside)


def _replace_with_file(path: str, text: str = "not a tree\n") -> None:
    shutil.rmtree(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _extra_files(slot, outside):
    for extra in ("original/extra.cpp", "original/deep/extra.cpp", "candidate/new/dir/x.cpp"):
        os.makedirs(os.path.dirname(os.path.join(slot, extra)), exist_ok=True)
        with open(os.path.join(slot, extra), "w", encoding="utf-8") as handle:
            handle.write("int extra;\n")
    os.mkdir(os.path.join(slot, "junk"))  # a directory the next evaluation does not need


def _replaced_files(slot, outside):
    target = os.path.join(slot, "original", "twice", "one.cpp")
    os.unlink(target)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write("int replaced;\n")
    os.unlink(os.path.join(slot, "original", "link"))
    os.symlink("elsewhere", os.path.join(slot, "original", "link"))


def _symlink_as_slot(slot, outside):
    # a sync through it would delete the extra file
    os.rename(slot, os.path.join(outside, "slot"))
    os.symlink(os.path.join(outside, "slot"), slot)
    _extra_files(os.path.join(outside, "slot"), outside)


def _symlink_as_tree(slot, outside):
    os.rename(os.path.join(slot, "original"), os.path.join(outside, "original"))
    os.symlink(os.path.join(outside, "original"), os.path.join(slot, "original"))
    with open(os.path.join(outside, "original", "extra.cpp"), "w", encoding="utf-8") as handle:
        handle.write("int extra;\n")


def _symlinks_as_subdirectories(slot, outside):
    # one tree is synced by the open, the other by the copy; a sync through
    # either link would write deep/er/still/nested.cpp outside
    for tree in ("original", "candidate"):
        shutil.rmtree(os.path.join(slot, tree, "deep"))
        os.symlink(os.path.join(outside, "deep"), os.path.join(slot, tree, "deep"))


def _file_where_a_directory_was(slot, outside):
    _replace_with_file(os.path.join(slot, "original", "deep"))
    _replace_with_file(os.path.join(slot, "candidate"))


def _slot_is_a_file(slot, outside):
    _replace_with_file(slot)


def _missing_markers(slot, outside):
    for tree in ("original", "candidate"):
        os.unlink(os.path.join(slot, tree, SHA_MARKER))


def _markers_name_another_commit(slot, outside):
    for tree in ("original", "candidate"):
        marker = os.path.join(slot, tree, SHA_MARKER)
        os.unlink(marker)
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("2" * 40 + "\n")


def _git_apply_leftovers(slot, outside):
    # the patched candidate is there in every case; add what a rejected hunk leaves
    for leftover in ("twice/one.cpp.orig", "twice/one.cpp.rej", "added/new.cpp.rej"):
        with open(os.path.join(slot, "candidate", leftover), "w", encoding="utf-8") as handle:
            handle.write("@@ leftover\n")


@pytest.mark.parametrize("tamper", [
    _extra_files, _replaced_files, _symlink_as_slot, _symlink_as_tree,
    _symlinks_as_subdirectories, _file_where_a_directory_was, _slot_is_a_file, _missing_markers,
    _markers_name_another_commit, _git_apply_leftovers,
], ids=lambda tamper: tamper.__name__.strip("_"))
def test_a_tampered_slot_gives_the_trees_of_a_fresh_open(image, tmp_path, tamper):
    state, fresh = image
    outside = _outside(tmp_path)
    slot = os.path.join(state, "sessions", SLOT)
    tamper(slot, outside)
    before = _snapshot(outside)
    assert _evaluation(state) == fresh
    assert _snapshot(outside) == before  # nothing was written through a symlink
    assert os.listdir(os.path.join(state, "sessions")) == [SLOT]
    assert sorted(os.listdir(slot)) == ["candidate", "original"]
    for tree in (slot, os.path.join(slot, "original"), os.path.join(slot, "candidate")):
        assert stat.S_ISDIR(os.lstat(tree).st_mode)


def test_the_slot_is_taken_whole_and_two_closes_leave_one_slot(image):
    state, fresh = image
    slot = os.path.join(state, "sessions", SLOT)
    first, second = FakeRuntime(state), FakeRuntime(state)
    a = first.open_image(TAG)
    assert not os.path.lexists(slot)  # one rename took it: no other runtime can
    b = second.open_image(TAG)
    assert not set(os.listdir(os.path.join(state, "sessions"))) & {SLOT}
    for session in (a, b):
        session.copy_tree(ORIGINAL_DIR, CANDIDATE_DIR)
        assert {tree: _tree_state(session.host_path(tree))
                for tree in (ORIGINAL_DIR, CANDIDATE_DIR)} == fresh
    a.close()
    b.close()  # the slot is taken: its directory is deleted
    for runtime in (first, second):
        runtime.close()
    assert os.listdir(os.path.join(state, "sessions")) == [SLOT]
    assert sorted(os.listdir(slot)) == ["candidate", "original"]


def test_a_slot_taken_before_the_rename_leaves_a_fresh_tree(image, monkeypatch):
    state, fresh = image
    slot = os.path.join(state, "sessions", SLOT)
    elsewhere = os.path.join(state, "sessions", "taken-by-another-process")
    real_rename = os.rename

    def rename(src, dst, *args, **kwargs):
        if src == slot and not os.path.lexists(elsewhere):
            real_rename(slot, elsewhere)  # another process wins the race
        return real_rename(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "rename", rename)
    taken = _tree_state(slot)
    assert _evaluation(state) == fresh
    assert _tree_state(elsewhere) == taken  # what the other process took is untouched
    assert sorted(os.listdir(os.path.join(state, "sessions"))) == sorted(
        [SLOT, "taken-by-another-process"])


def test_a_slot_whose_marker_names_another_commit_is_synced_not_refused(mined_store):
    store, runtime = mined_store.store_dir, mined_store.runtime
    first = evaluate(mined_store.patch_id, "", store, runtime).to_dict()
    marker = os.path.join(runtime._slot, "original", SHA_MARKER)
    os.unlink(marker)
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(mined_store.fixture.perf_sha + "\n")  # the commit, not its parent
    again = evaluate(mined_store.patch_id, "", store, runtime).to_dict()
    assert first.pop("session_id") != again.pop("session_id")
    assert again == first
    with open(marker, encoding="utf-8") as handle:
        assert handle.read() == mined_store.fixture.perf_parent_sha + "\n"


def test_a_copy_replaces_a_symlink_at_its_destination(image, tmp_path):
    state, fresh = image
    outside = _outside(tmp_path)
    before = _snapshot(outside)
    runtime = FakeRuntime(state)
    session = runtime.open_image(TAG)
    try:
        os.symlink(outside, session.host_path(CANDIDATE_DIR))
        session.copy_tree(ORIGINAL_DIR, CANDIDATE_DIR)
        assert _tree_state(session.host_path(CANDIDATE_DIR)) == fresh[CANDIDATE_DIR]
    finally:
        session.close()
        runtime.close()
    assert _snapshot(outside) == before
