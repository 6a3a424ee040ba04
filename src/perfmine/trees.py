"""Commit trees written from a clone's objects, as hard links into a blob store.

A tree is read through the mine's ``GitObjects`` (``git cat-file --batch``):
``<sha>^{tree}`` first, then each subtree by id. It is written exactly as
the commit holds it, with no line-ending conversion or filter, whatever
the operator's git config says: regular files with their exec bit,
symlinks as symlinks, and a submodule (gitlink) as an empty directory,
as ``git checkout`` leaves it. An entry named ``.``, ``..`` or ``.git``
(in any letter case), an empty name or one holding ``/`` would write
outside the tree or into a ``.git``; it raises ``GitError`` naming its
path.

Every regular file is a hard link into a blob store: a directory of
read-only files (0444, or 0555 when executable, less the umask), one per
blob id and exec bit, named ``<id>`` or ``<id>.x``. A blob's bytes are
read only when the store lacks it. A store file is written under a
temporary name and renamed, so none is ever seen incomplete. Where a
link cannot be made the file is copied.

A store file stays while some tree links it. A ``TreeWriter`` remembers
every store file it linked, and its ``sweep`` deletes each one that
nothing else links any more; ``delete_tree`` does the same for the files
of a tree it deletes.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import shutil
import stat
import uuid
from collections.abc import Mapping

from .errors import GitError
from .harvest import GitObjects

SHA_MARKER = ".perfmine-sha"  # a tree's file naming its commit

_FULL_ID = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")  # SHA-1 or SHA-256
_DIRECTORY, _SYMLINK, _GITLINK = 0o040000, 0o120000, 0o160000

# os.link failures that a plain copy of the file gets round: another file
# system, a file system without hard links, or a file at its link limit
_COPY_INSTEAD_OF_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP})


def link_or_copy(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError as exc:
        if exc.errno not in _COPY_INSTEAD_OF_LINK:
            raise
        shutil.copy2(src, dst)


class TreeWriter:
    """Writes commit trees, each regular file a link into the store ``directory``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._linked: set[str] = set()

    def write(self, objects: GitObjects, trees: Mapping[str, str]) -> None:
        """Write each ``host directory: commit id`` tree, then every tree's
        ``SHA_MARKER``, so a marker is there only when every tree is whole."""
        os.makedirs(self.directory, exist_ok=True)
        for dest, sha in trees.items():
            if not _FULL_ID.fullmatch(sha):
                raise GitError(f"cannot check out {sha!r}: not a full commit id")
            os.makedirs(dest, exist_ok=True)
            self._write_tree(objects, sha, dest)
        for dest, sha in trees.items():
            with open(os.path.join(dest, SHA_MARKER), "w", encoding="utf-8") as handle:
                handle.write(sha + "\n")

    def _write_tree(self, objects: GitObjects, sha: str, dest: str) -> None:
        pending = [(f"{sha}^{{tree}}", dest, "")]
        while pending:
            name, directory, where = pending.pop()
            for mode, entry, oid in _tree_entries(objects, name, len(sha) // 2):
                path = where + os.fsdecode(entry)
                if entry in (b"", b".", b"..") or entry.lower() == b".git" or b"/" in entry:
                    raise GitError(f"commit {sha} holds a tree entry named {path!r}; "
                                   "it would be written outside its tree or into a .git")
                target = os.path.join(directory, os.fsdecode(entry))
                if mode == _DIRECTORY:
                    os.mkdir(target)
                    pending.append((oid, target, path + "/"))
                elif mode == _GITLINK:
                    os.mkdir(target)
                elif mode == _SYMLINK:
                    link = _read_blob(objects, oid)
                    if b"\0" in link:
                        raise GitError(f"commit {sha} holds a symlink {path!r} with a NUL byte")
                    os.symlink(os.fsdecode(link), target)
                elif stat.S_ISREG(mode):
                    self._link(objects, oid, bool(mode & 0o100), target)
                else:
                    raise GitError(f"commit {sha} holds {path!r} with unknown mode {mode:o}")

    def _link(self, objects: GitObjects, oid: str, executable: bool, target: str) -> None:
        stored = os.path.join(self.directory, oid + (".x" if executable else ""))
        try:
            link_or_copy(stored, target)
        except FileNotFoundError:
            _store(stored, _read_blob(objects, oid), 0o555 if executable else 0o444)
            link_or_copy(stored, target)
        self._linked.add(stored)

    def sweep(self) -> None:
        """Delete each store file this writer linked that no tree links any more."""
        for stored in self._linked:
            with contextlib.suppress(FileNotFoundError):
                if os.stat(stored).st_nlink == 1:
                    os.unlink(stored)
        self._linked.clear()


def delete_tree(top: str, store: str) -> None:
    """Delete the tree ``top``, and each file of ``store`` that nothing links after it."""
    inodes = {os.lstat(os.path.join(d, name)).st_ino
              for d, _, names in os.walk(top) for name in names}
    shutil.rmtree(top, ignore_errors=True)
    with contextlib.suppress(FileNotFoundError), os.scandir(store) as stored:
        for entry in stored:
            st = entry.stat(follow_symlinks=False)
            if st.st_ino in inodes and st.st_nlink == 1:
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


def _tree_entries(objects: GitObjects, name: str, id_bytes: int) -> list[tuple[int, bytes, str]]:
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
