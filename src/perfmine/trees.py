"""Commit trees synced in place from a clone's objects, as hard links into a blob store.

A tree is read through the mine's ``GitObjects`` (``git cat-file --batch``):
``<sha>^{tree}`` first, then each subtree by id. It is written exactly as
the commit holds it, with no line-ending conversion or filter, whatever
the operator's git config says: regular files with their exec bit,
symlinks as symlinks, and a submodule (gitlink) as an empty directory,
as ``git checkout`` leaves it. An entry named ``.``, ``..`` or ``.git``
(in any letter case), an empty name or one holding ``/`` would write
outside the tree or into a ``.git``; it raises ``GitError`` naming its
path.

A write makes each destination directory hold exactly the commit's tree,
whatever it held before: each directory is scanned once, an entry that
already matches is kept, one that differs is replaced and one the tree
lacks is deleted, never following a symlink. A new empty directory is
the case with nothing to keep, so a spare tree of a nearby commit needs
only the files that differ. The tree objects read by one write are kept
for the next, and nothing more.

Every regular file is a hard link into a blob store: a directory of
read-only files (0444, or 0555 when executable, less the umask), one per
blob id and exec bit, named ``<id>`` or ``<id>.x``. A file is kept when it
is the store file itself, the same inode. A tree's ``SHA_MARKER`` is a
store file too, ``<sha>.marker``, which no blob id can be. A blob's bytes
are read only when the store lacks it. A store file is written under a
temporary name and renamed, so none is ever seen incomplete. Where a
link cannot be made the file is copied.

The store is never swept by a write: a store file stays until
``sweep_store`` finds that nothing else links it.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import shutil
import stat
import uuid
from collections.abc import Callable, Mapping

from .errors import GitError
from .harvest import GitObjects

SHA_MARKER = ".perfmine-sha"  # a tree's file naming its commit

_FULL_ID = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")  # SHA-1 or SHA-256
_DIRECTORY, _SYMLINK, _GITLINK = 0o040000, 0o120000, 0o160000

# os.link failures that a plain copy of the file gets round: another file
# system, a file system without hard links, or a file at its link limit
_COPY_INSTEAD_OF_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP})

_Entries = list[tuple[int, bytes, str]]


def link_or_copy(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError as exc:
        if exc.errno not in _COPY_INSTEAD_OF_LINK:
            raise
        shutil.copy2(src, dst)


class TreeWriter:
    """Syncs commit trees, each regular file a link into the store ``directory``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._entries: dict[str, _Entries] = {}  # the trees read by the last write

    def write(self, objects: GitObjects, trees: Mapping[str, str]) -> None:
        """Make each ``host directory: commit id`` hold exactly that commit's tree.

        Every tree's ``SHA_MARKER`` is removed first, before anything can
        fail, and linked last, so a marker is there only when every tree is
        whole.
        """
        for dest in trees:
            os.makedirs(dest, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(dest, SHA_MARKER))
        for sha in trees.values():
            if not _FULL_ID.fullmatch(sha):
                raise GitError(f"cannot check out {sha!r}: not a full commit id")
        os.makedirs(self.directory, exist_ok=True)
        last, self._entries = self._entries, {}
        for dest, sha in trees.items():
            self._sync(objects, sha, dest, last)
        for dest, sha in trees.items():
            marker, _ = self._stored(f"{sha}.marker", lambda: f"{sha}\n".encode(), 0o444)
            link_or_copy(marker, os.path.join(dest, SHA_MARKER))

    def _sync(self, objects: GitObjects, sha: str, top: str,
              last: Mapping[str, _Entries]) -> None:
        # (tree to read, or None for an empty one; directory; its path in the
        # tree; whether the directory was just made, so holds nothing)
        pending: list[tuple[str | None, str, str, bool]] = [(f"{sha}^{{tree}}", top, "", False)]
        while pending:
            name, directory, where, fresh = pending.pop()
            present: dict[str, os.DirEntry] = {}
            if not fresh:
                with os.scandir(directory) as scan:
                    present = {entry.name: entry for entry in scan}
            for mode, raw, oid in self._tree(objects, name, len(sha) // 2, last) if name else ():
                entry = os.fsdecode(raw)
                path = where + entry
                if raw in (b"", b".", b"..") or raw.lower() == b".git" or b"/" in raw:
                    raise GitError(f"commit {sha} holds a tree entry named {path!r}; "
                                   "it would be written outside its tree or into a .git")
                target = os.path.join(directory, entry)
                have = present.pop(entry, None)
                if mode in (_DIRECTORY, _GITLINK):
                    made = have is None or not have.is_dir(follow_symlinks=False)
                    if made:
                        remove_entry(have)
                        os.mkdir(target)
                    # a submodule's directory is left empty
                    pending.append((oid if mode == _DIRECTORY else None, target, path + "/", made))
                elif mode == _SYMLINK:
                    link = _read_blob(objects, oid)
                    if b"\0" in link:
                        raise GitError(f"commit {sha} holds a symlink {path!r} with a NUL byte")
                    if have is not None and have.is_symlink() \
                            and os.fsencode(os.readlink(have.path)) == link:
                        continue
                    remove_entry(have)
                    os.symlink(os.fsdecode(link), target)
                elif stat.S_ISREG(mode):
                    executable = bool(mode & 0o100)
                    stored, inode = self._stored(oid + (".x" if executable else ""),
                                                 lambda: _read_blob(objects, oid),
                                                 0o555 if executable else 0o444)
                    if have is not None and have.inode() == inode \
                            and have.is_file(follow_symlinks=False):
                        continue
                    remove_entry(have)
                    link_or_copy(stored, target)
                else:
                    raise GitError(f"commit {sha} holds {path!r} with unknown mode {mode:o}")
            for extra in present.values():
                remove_entry(extra)

    def _tree(self, objects: GitObjects, name: str, id_bytes: int,
              last: Mapping[str, _Entries]) -> _Entries:
        entries = self._entries.get(name)
        if entries is None:
            entries = last.get(name)
            if entries is None:
                entries = _tree_entries(objects, name, id_bytes)
            self._entries[name] = entries
        return entries

    def _stored(self, name: str, data: Callable[[], bytes], mode: int) -> tuple[str, int]:
        """The path and inode of the store file ``name``, written from ``data()``
        when the store lacks it."""
        stored = os.path.join(self.directory, name)
        try:
            return stored, os.stat(stored).st_ino
        except FileNotFoundError:
            _store(stored, data(), mode)
            return stored, os.stat(stored).st_ino


def sweep_store(directory: str) -> None:
    """Delete each file of the store ``directory`` that nothing else links."""
    with contextlib.suppress(FileNotFoundError), os.scandir(directory) as stored:
        for entry in stored:
            if entry.stat(follow_symlinks=False).st_nlink == 1:
                os.unlink(entry.path)


def remove_entry(entry: os.DirEntry | None) -> None:
    """Delete ``entry`` (nothing when it is None); a symlink is never followed."""
    if entry is None:
        return
    if entry.is_dir(follow_symlinks=False):
        shutil.rmtree(entry.path)
    else:
        os.unlink(entry.path)


def _store(stored: str, data: bytes, mode: int) -> None:
    temporary = f"{stored}.{uuid.uuid4().hex[:8]}.tmp"
    # created with the store file's mode, less the umask, yet open for writing
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(temporary, stored)
    except BaseException:
        os.unlink(temporary)
        raise


def _tree_entries(objects: GitObjects, name: str, id_bytes: int) -> _Entries:
    """The ``(mode, name, object id)`` of every entry of the tree ``name``."""
    kind, data = objects.read(name)
    if kind != "tree":
        raise GitError(f"{name} is a {kind}, not a tree")
    entries, pos = [], 0
    try:
        while pos < len(data):
            space = data.index(b" ", pos)
            nul = data.index(b"\0", space)
            end = nul + 1 + id_bytes
            if end > len(data):
                raise ValueError("it ends inside an object id")
            entries.append((int(data[pos:space], 8), data[space + 1:nul],
                            data[nul + 1:end].hex()))
            pos = end
    except ValueError as exc:
        raise GitError(f"tree {name} is malformed: {exc}") from exc
    return entries


def _read_blob(objects: GitObjects, oid: str) -> bytes:
    kind, data = objects.read(oid)
    if kind != "blob":
        raise GitError(f"object {oid} is a {kind}, not a blob")
    return data
