"""Commit trees synced in place from a clone's objects, as hard links into a blob store.

A tree is read from an object source: the mine's ``GitObjects`` (``git
cat-file --batch``), or the ``TreeObjects`` of an image. ``<sha>^{tree}``
is read first, then each subtree by id. It is written exactly as
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
lacks is deleted, never following a symlink. A destination that is a
symlink or a file is replaced by a directory, so no write goes through
it. A new empty directory is the case with nothing to keep, so a spare
tree of a nearby commit needs only the files that differ. The tree
objects read by one write are kept for the next, and nothing more.

Every regular file is a hard link into a blob store: a directory of
read-only files (0444, or 0555 when executable, less the umask), one per
blob id and exec bit, named ``<id>`` or ``<id>.x``. A file is kept when it
is the store file itself, the same inode. A tree's ``SHA_MARKER`` is a
store file too, ``<sha>.marker``, which no blob id can be; one that
already names the tree's commit is kept while the tree is synced, and
a write that fails removes every tree's marker. A blob's bytes
are read only when the store lacks it. A store file is written by
``write_file``, under a temporary name and renamed, so none is ever seen
incomplete. Where a link cannot be made the file is copied.

A write returns, for each destination, the ``TreeObjects`` it read to
write that tree: its root tree, each subtree and each symlink's target,
by id. Those objects and the store's blobs are all it takes to write the
tree again, so ``TreeObjects`` is itself an object source for ``write``,
and its bytes (``encode``) are what a host image keeps. ``decode`` takes
those bytes back only when every record hashes to its id.

The store is never swept by a write: ``TreeWriter.sweep`` deletes a store
file that this writer wrote, once nothing else links it and no name that
the caller keeps names it (``TreeObjects.store_names``).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import re
import shutil
import stat
import uuid
from collections.abc import Callable, Collection, Mapping

from .errors import GitError
from .harvest import GitObjects

SHA_MARKER = ".perfmine-sha"  # a tree's file naming its commit

_FULL_ID = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")  # SHA-1 or SHA-256
_DIRECTORY, _SYMLINK, _GITLINK = 0o040000, 0o120000, 0o160000

# os.link failures that a plain copy of the file gets round: another file
# system, a file system without hard links, or a file at its link limit
_COPY_INSTEAD_OF_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP})

_Entries = list[tuple[int, bytes, str]]
_Tree = tuple[str, bytes, _Entries]  # a tree's id, its bytes and its entries


def link_or_copy(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError as exc:
        if exc.errno not in _COPY_INSTEAD_OF_LINK:
            raise
        shutil.copy2(src, dst)


def object_id(kind: str, data: bytes, hex_digits: int) -> str:
    """The git id of an object: SHA-1 for 40 hex digits, SHA-256 for 64."""
    algorithm = hashlib.sha1 if hex_digits == 40 else hashlib.sha256
    return algorithm(f"{kind} {len(data)}\0".encode() + data).hexdigest()


class TreeObjects:
    """One commit's tree as the objects that write it, but for its files' blobs.

    ``objects`` maps an id to its kind and bytes: the root tree ``root``
    first, then each subtree and each symlink's target. With the blob
    store these write the tree again, so ``read`` serves ``TreeWriter.write``
    as ``GitObjects.read`` does, for ``<commit>^{tree}`` and for these ids.
    """

    _HEADER = re.compile(rb"([0-9a-f]{40}|[0-9a-f]{64}) ([0-9a-f]{40}|[0-9a-f]{64})\n")
    _RECORD = re.compile(rb"([0-9a-f]{40}|[0-9a-f]{64}) (tree|blob) ([0-9]+)\n")

    def __init__(self, commit: str, root: str, objects: dict[str, tuple[str, bytes]]) -> None:
        self.commit, self.root, self.objects = commit, root, objects

    def read(self, name: str) -> tuple[str, bytes]:
        found = self.objects.get(self.root if name == f"{self.commit}^{{tree}}" else name)
        if found is None:
            # a blob is read here only when the store lacks it
            raise GitError(f"object {name} is in neither the tree objects of {self.commit} "
                           "nor the blob store")
        return found

    def store_names(self) -> set[str]:
        """The names of the store files the tree links: its blobs and its marker."""
        names = {f"{self.commit}.marker"}
        for tree, (kind, data) in self.objects.items():
            if kind == "tree":
                names.update(_store_name(mode, oid)
                             for mode, _, oid in _tree_entries(tree, data, len(tree))
                             if stat.S_ISREG(mode))
        return names

    def encode(self) -> bytes:
        """A line ``<commit> <root>``, then each object as ``git cat-file --batch``
        prints it: ``<id> <kind> <size>``, a newline, its bytes and a newline."""
        parts = [f"{self.commit} {self.root}\n".encode()]
        for oid, (kind, data) in self.objects.items():
            parts += (f"{oid} {kind} {len(data)}\n".encode(), data, b"\n")
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "TreeObjects":
        """What ``encode`` wrote; ValueError names the first fault, such as a
        record that does not hash to its id or a file cut short."""
        header = cls._HEADER.match(data)
        if header is None or len(header[1]) != len(header[2]):
            raise ValueError("its first line is not '<commit id> <root tree id>'")
        commit, root = header[1].decode(), header[2].decode()
        objects: dict[str, tuple[str, bytes]] = {}
        pos = header.end()
        while pos < len(data):
            record = cls._RECORD.match(data, pos)
            if record is None or len(record[1]) != len(root):
                raise ValueError(f"byte {pos} starts no '<id> <kind> <size>' record")
            oid, kind, start = record[1].decode(), record[2].decode(), record.end()
            pos = start + int(record[3])
            body = data[start:pos]
            if data[pos:pos + 1] != b"\n":
                raise ValueError(f"object {oid} is cut short")
            if object_id(kind, body, len(oid)) != oid:
                raise ValueError(f"object {oid} does not hash to its id")
            objects[oid] = (kind, body)
            pos += 1
        if objects.get(root, ("",))[0] != "tree":
            raise ValueError(f"it holds no root tree {root}")
        return cls(commit, root, objects)


class TreeWriter:
    """Syncs commit trees, each regular file a link into the store ``directory``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._prefix = os.path.join(directory, "")  # a store file's path less its name
        self.created: set[str] = set()  # the store files this writer wrote and did not sweep
        self._trees: dict[str, _Tree] = {}  # the trees read by the last write, by name

    def write(self, objects: GitObjects | TreeObjects,
              trees: Mapping[str, str]) -> dict[str, TreeObjects]:
        """Make each ``host directory: commit id`` hold exactly that commit's tree,
        and return the ``TreeObjects`` read to write each.

        A destination that is a symlink or a file is replaced by a new
        directory, never followed. A tree's ``SHA_MARKER`` is removed first,
        before anything can fail, unless it is already the store's marker of
        the commit the tree is written at; the others are linked last. If the
        write fails, every tree's marker is removed, so a marker is there only
        when every tree is whole.
        """
        kept = set()  # the trees whose marker already names their commit
        for dest, sha in trees.items():
            try:
                directory = stat.S_ISDIR(os.lstat(dest).st_mode)
            except FileNotFoundError:
                os.makedirs(dest)
                continue
            if not directory:
                os.unlink(dest)
                os.mkdir(dest)
                continue
            marker = os.path.join(dest, SHA_MARKER)
            with contextlib.suppress(FileNotFoundError):
                if os.lstat(marker).st_ino == os.stat(self._prefix + f"{sha}.marker").st_ino:
                    kept.add(dest)
            if dest not in kept:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(marker)
        try:
            for sha in trees.values():
                if not _FULL_ID.fullmatch(sha):
                    raise GitError(f"cannot check out {sha!r}: not a full commit id")
            last, self._trees = self._trees, {}
            written = {dest: self._sync(objects, sha, dest, dest in kept, last)
                       for dest, sha in trees.items()}
        except BaseException:
            for dest in kept:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(dest, SHA_MARKER))
            raise
        for dest, sha in trees.items():
            if dest not in kept:
                marker, _ = self._stored(f"{sha}.marker", lambda: f"{sha}\n".encode(), 0o444)
                link_or_copy(marker, os.path.join(dest, SHA_MARKER))
        return written

    def sweep(self, keep: Collection[str]) -> None:
        """Delete each store file this writer wrote that nothing else links,
        unless ``keep`` names it; the cost follows this writer's writes, not
        the store's size."""
        for name in list(self.created):
            if name in keep:
                continue
            path = os.path.join(self.directory, name)
            with contextlib.suppress(FileNotFoundError):
                if os.stat(path).st_nlink > 1:
                    continue
                os.unlink(path)
            self.created.discard(name)

    def _sync(self, objects: GitObjects | TreeObjects, sha: str, top: str, marked: bool,
              last: Mapping[str, _Tree]) -> TreeObjects:
        read: dict[str, tuple[str, bytes]] = {}  # the root tree first
        # (tree to read, or None for an empty one; directory; its path in the tree)
        pending: list[tuple[str | None, str, str]] = [(f"{sha}^{{tree}}", top, "")]
        while pending:
            name, directory, where = pending.pop()
            with os.scandir(directory) as scan:
                present = {entry.name: entry for entry in scan}
            if marked and not where:
                present.pop(SHA_MARKER, None)  # it already names this commit
            entries: _Entries = []
            if name:
                oid, data, entries = self._tree(objects, name, len(sha), last)
                read[oid] = ("tree", data)
            for mode, raw, oid in entries:
                entry = os.fsdecode(raw)
                path = where + entry
                if raw in (b"", b".", b"..") or raw.lower() == b".git" or b"/" in raw:
                    raise GitError(f"commit {sha} holds a tree entry named {path!r}; "
                                   "it would be written outside its tree or into a .git")
                target = f"{directory}/{entry}"
                have = present.pop(entry, None)
                if stat.S_ISREG(mode):  # the most entries, so the first test
                    stored, inode = self._stored(_store_name(mode, oid),
                                                 lambda: _read_blob(objects, oid),
                                                 0o555 if mode & 0o100 else 0o444)
                    if have is not None and have.inode() == inode \
                            and have.is_file(follow_symlinks=False):
                        continue
                    remove_entry(have)
                    link_or_copy(stored, target)
                elif mode in (_DIRECTORY, _GITLINK):
                    if have is None or not have.is_dir(follow_symlinks=False):
                        remove_entry(have)
                        os.mkdir(target)
                    # a submodule's directory is left empty
                    pending.append((oid if mode == _DIRECTORY else None, target, path + "/"))
                elif mode == _SYMLINK:
                    link = _read_blob(objects, oid)
                    read[oid] = ("blob", link)
                    if b"\0" in link:
                        raise GitError(f"commit {sha} holds a symlink {path!r} with a NUL byte")
                    if have is not None and have.is_symlink() \
                            and os.fsencode(os.readlink(have.path)) == link:
                        continue
                    remove_entry(have)
                    os.symlink(os.fsdecode(link), target)
                else:
                    raise GitError(f"commit {sha} holds {path!r} with unknown mode {mode:o}")
            for extra in present.values():
                remove_entry(extra)
        return TreeObjects(sha, next(iter(read)), read)

    def _tree(self, objects: GitObjects | TreeObjects, name: str, hex_digits: int,
              last: Mapping[str, _Tree]) -> _Tree:
        tree = self._trees.get(name) or last.get(name)
        if tree is None:
            kind, data = objects.read(name)
            if kind != "tree":
                raise GitError(f"{name} is a {kind}, not a tree")
            oid = name if _FULL_ID.fullmatch(name) else object_id("tree", data, hex_digits)
            tree = (oid, data, _tree_entries(name, data, hex_digits))
        self._trees[name] = tree
        return tree

    def _stored(self, name: str, data: Callable[[], bytes], mode: int) -> tuple[str, int]:
        """The path and inode of the store file ``name``, written from ``data()``
        when the store lacks it."""
        stored = self._prefix + name
        try:
            return stored, os.stat(stored).st_ino
        except FileNotFoundError:
            write_file(stored, data(), mode)
            self.created.add(name)
            return stored, os.stat(stored).st_ino


def remove_entry(entry: os.DirEntry | None) -> None:
    """Delete ``entry`` (nothing when it is None); a symlink is never followed."""
    if entry is None:
        return
    if entry.is_dir(follow_symlinks=False):
        shutil.rmtree(entry.path)
    else:
        os.unlink(entry.path)


def write_file(path: str | os.PathLike[str], data: bytes, mode: int = 0o666) -> None:
    """Write ``path`` under the temporary name ``<path>.<8 hex digits>.tmp``
    and rename it into place, so it is never seen incomplete; it is created
    with ``mode``, less the umask, and its directory is made if missing."""
    temporary = f"{os.fspath(path)}.{uuid.uuid4().hex[:8]}.tmp"
    os.makedirs(os.path.dirname(temporary) or os.curdir, exist_ok=True)  # "" for a bare name
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def _store_name(mode: int, oid: str) -> str:
    return oid + (".x" if mode & 0o100 else "")


def _tree_entries(name: str, data: bytes, hex_digits: int) -> _Entries:
    """The ``(mode, name, object id)`` of every entry of the tree ``name``."""
    id_bytes, entries, pos = hex_digits // 2, [], 0
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


def _read_blob(objects: GitObjects | TreeObjects, oid: str) -> bytes:
    kind, data = objects.read(oid)
    if kind != "blob":
        raise GitError(f"object {oid} is a {kind}, not a blob")
    return data
