"""Commit harvesting: walk repository history and apply the structural filter.

The walk reads the whole first-parent history of ``HEAD`` from one
``git log`` stream and yields every non-merge commit with a non-empty diff,
whatever its date. The structural filter alone decides: a commit survives
iff it falls inside the configured time window, touches at most max_files
files, and every touched file is C++ source that is not a test file. What
counts as either is fixed, not configured: an extension in
``CPP_EXTENSIONS``, and a directory or file stem that holds one of
``TEST_PATH_MARKERS`` as a word.

What a mine reads of single commits (the head, which the gate checks
out, and its ``CMakeLists.txt``; each phase-2 diff; each built commit's
``CMakeLists.txt`` and the trees of its parent and itself) comes from
``GitObjects``: one ``git diff-tree --stdin`` and one ``git cat-file
--batch`` per mine, however many commits it reads.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .errors import GitError, ShallowCloneError

log = logging.getLogger(__name__)

CHANGE_KINDS = ("added", "modified", "deleted", "renamed")

# what the structural filter counts as C++ source and as a test path; lower case,
# since paths are lower-cased before they are matched
CPP_EXTENSIONS = frozenset(
    {".cpp", ".cc", ".cxx", ".c++", ".hpp", ".hh", ".hxx", ".h", ".ipp", ".inl", ".tpp"}
)
TEST_PATH_MARKERS = frozenset(
    {"test", "tests", "unittest", "unittests", "benchmark", "benchmarks", "gtest"}
)

DEFAULT_SINCE = datetime(2020, 1, 1, tzinfo=timezone.utc)
DEFAULT_UNTIL = datetime(2025, 12, 31, 23, 59, 59, tzinfo=timezone.utc)

RENAME_SIMILARITY = "-M50%"

_SHA_RE = re.compile(r"^[0-9a-f]{40}$")


class RejectReason(str, Enum):
    OUT_OF_WINDOW = "out_of_window"
    TOO_MANY_FILES = "too_many_files"
    NON_CPP_FILE = "non_cpp_file"
    TOUCHES_TESTS = "touches_tests"


class FileClass(str, Enum):
    CPP_SOURCE = "cpp_source"
    TEST_FILE = "test_file"
    OTHER = "other"


@dataclass(frozen=True)
class FileChange:
    """One file touched by a commit; path is the post-image path."""

    path: str
    change_kind: str
    old_path: Optional[str] = None
    lines_added: int = 0
    lines_deleted: int = 0

    def __post_init__(self) -> None:
        if self.change_kind not in CHANGE_KINDS:
            raise ValueError(f"unknown change_kind: {self.change_kind}")
        if (self.old_path is not None) != (self.change_kind == "renamed"):
            raise ValueError("old_path present iff change_kind is 'renamed'")
        if self.lines_added < 0 or self.lines_deleted < 0:
            raise ValueError("line counts must be non-negative")
        for p in (self.path, self.old_path):
            if p is not None and ("\\" in p or p.startswith("./")):
                raise ValueError(f"path not normalized: {p!r}")


@dataclass(frozen=True)
class CommitRecord:
    """One non-merge commit with parsed per-file diff metadata.

    parent_sha may be empty only for a root commit, which the history walk
    never yields; downstream stages reject such records up front.
    """

    sha: str
    parent_sha: str
    author_timestamp: datetime
    message: str
    linked_issue_text: Optional[str] = None
    changes: tuple[FileChange, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "changes", tuple(self.changes))
        if not _SHA_RE.match(self.sha):
            raise ValueError(f"sha is not 40-char lowercase hex: {self.sha!r}")
        if self.parent_sha and not _SHA_RE.match(self.parent_sha):
            raise ValueError(f"parent_sha is not 40-char lowercase hex: {self.parent_sha!r}")
        if self.author_timestamp.tzinfo is None:
            raise ValueError("author_timestamp must be timezone-aware")


@dataclass(frozen=True)
class HarvestConfig:
    since: datetime = DEFAULT_SINCE
    until: datetime = DEFAULT_UNTIL
    max_files: int = 20

    def __post_init__(self) -> None:
        if self.since >= self.until:
            raise ValueError("since must be before until")
        if self.max_files < 1:
            raise ValueError("max_files must be >= 1")


@dataclass(frozen=True)
class FilterDecision:
    accepted: bool
    reason: Optional[RejectReason] = None

    def __post_init__(self) -> None:
        if self.accepted == (self.reason is not None):
            raise ValueError("reason present iff rejected")


def normalize_path(path: str) -> str:
    path = path.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    return path


# word-boundary match: a marker must not sit inside a larger alnum run,
# so "test" hits "parser_test" but not "contest" or "latest"
_TEST_MARKER = re.compile(
    rf"(?<![a-z0-9])(?:{'|'.join(map(re.escape, sorted(TEST_PATH_MARKERS)))})(?![a-z0-9])"
)


def classify_file(path: str) -> FileClass:
    """Classify a repo-relative path; total: every path gets exactly one label.

    Test markers are checked before the extension, so tests/data.txt is a
    test file rather than 'other'.
    """
    path = normalize_path(path).lower()
    segments = [s for s in path.split("/") if s]
    if not segments:
        return FileClass.OTHER
    filename = segments[-1]
    dot = filename.rfind(".")
    stem = filename[:dot] if dot > 0 else filename
    ext = filename[dot:] if dot > 0 else ""
    if any(_TEST_MARKER.search(part) for part in (*segments[:-1], stem)):
        return FileClass.TEST_FILE
    if ext in CPP_EXTENSIONS:
        return FileClass.CPP_SOURCE
    return FileClass.OTHER


def apply_structural_filter(commit: CommitRecord, config: HarvestConfig) -> FilterDecision:
    """Accept iff in-window, within max_files, and all-C++ non-test changes.

    Rejections carry the first violated criterion, checking the window,
    then the file count, then each file in diff order.
    """
    if not config.since <= commit.author_timestamp <= config.until:
        return FilterDecision(False, RejectReason.OUT_OF_WINDOW)
    if len(commit.changes) > config.max_files:
        return FilterDecision(False, RejectReason.TOO_MANY_FILES)
    for change in commit.changes:
        label = classify_file(change.path)
        if label is FileClass.TEST_FILE:
            return FilterDecision(False, RejectReason.TOUCHES_TESTS)
        if label is FileClass.OTHER:
            return FilterDecision(False, RejectReason.NON_CPP_FILE)
    return FilterDecision(True)


# ---------------------------------------------------------------------------
# git plumbing


def run_git(repo: Path | str, *args: str) -> str:
    """Git's stdout decoded as UTF-8; a non-zero exit raises GitError."""
    cmd = ["git", "-C", str(repo), *args]
    proc = subprocess.run(cmd, capture_output=True)
    if proc.returncode != 0:
        detail = proc.stderr.decode("utf-8", errors="replace").strip()
        raise GitError(f"{' '.join(cmd)} failed ({proc.returncode}): {detail}")
    return proc.stdout.decode("utf-8", errors="replace")


# Porcelain `git log` reads these from user config where the diff-tree
# plumbing does not; pinned so paths, order and line counts do not depend
# on the operator's ~/.gitconfig.
_LOG_ARGS = (
    "log", "--first-parent", "--reverse", "-z", RENAME_SIMILARITY, "--raw", "--numstat",
    "--no-abbrev", "--no-textconv", "--no-ext-diff", "--diff-algorithm=myers",
    "--no-relative", "-O/dev/null", "--no-color", "--no-show-signature",
    "--format=%H%x00%P%x00%at%x00%B",
)
_RAW_KINDS = {"A": "added", "C": "added", "D": "deleted", "R": "renamed"}  # M, T, ...: modified
_NUMSTAT = re.compile(r"(\d+|-)\t(\d+|-)\t")


def _git_log(repo: Path | str) -> Iterator[str]:
    """Stream the NUL-separated fields of ``git log`` over ``HEAD`` from one process.

    Fields are split as they arrive, so memory is bounded by one commit,
    not by the length of the history. The stream is read as bytes and
    each field decoded as UTF-8 on its own: text mode would turn a ``\r``
    in a path or a message into ``\n``, and no multibyte UTF-8 sequence
    holds a zero byte. Closing the generator early kills
    and reaps git. stderr goes to a file, so it cannot fill a pipe while
    stdout is read. A non-zero exit (an empty repository, say) raises
    GitError.
    """
    cmd = ["git", "-C", str(repo), *_LOG_ARGS, "HEAD", "--"]
    with tempfile.TemporaryFile() as stderr:
        # leaving the inner block closes stdout and waits for git
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr) as proc:
            try:
                partial = b""  # git ends every field with NUL, so nothing is left at EOF
                while chunk := proc.stdout.read(1 << 16):
                    *fields, partial = (partial + chunk).split(b"\0")
                    for field in fields:
                        yield field.decode("utf-8", errors="replace")
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0:
            stderr.seek(0)
            detail = stderr.read().decode(errors="replace").strip()
            raise GitError(f"{' '.join(cmd)} failed ({proc.returncode}): {detail}")


def _parse_log(fields: Iterator[str]) -> Iterator[tuple[list[str], CommitRecord]]:
    """Parse ``_git_log`` fields into (parents, record), one commit at a time.

    Each commit is a header of four fields (sha, parents, author time,
    message), then its raw entries (``:<modes> <shas> <status>``, one
    path, or old and new path for a rename), then its numstat entries
    (``<added>\t<deleted>\t<path>``, or an empty path followed by old and
    new). A diff, when present, starts with a newline. Fields are consumed
    by position, so nothing in a message or a path can shift the parse.
    Output that git cut short ends in the GitError ``_git_log`` raises.
    """
    field = next(fields, None)
    while field is not None:
        sha, parents, ts, message = field, next(fields).split(), int(next(fields)), next(fields)
        statuses: list[tuple[str, str, Optional[str]]] = []
        counts: dict[str, tuple[int, int]] = {}
        field = next(fields, None)
        if field is not None and field.startswith("\n:"):
            field = field[1:]
        while field is not None and field.startswith(":"):
            code = field.rsplit(" ", 1)[-1][:1]
            path = old_path = normalize_path(next(fields))
            if code in ("R", "C"):
                path = normalize_path(next(fields))
            kind = _RAW_KINDS.get(code, "modified")
            statuses.append((kind, path, old_path if kind == "renamed" else None))
            field = next(fields, None)
        while field is not None and (numstat := _NUMSTAT.match(field)):
            path = field[numstat.end():]
            if not path:
                next(fields)  # rename: the old path, then the new one
                path = next(fields)
            added, deleted = (0 if n == "-" else int(n) for n in numstat.groups())
            counts[normalize_path(path)] = (added, deleted)
            field = next(fields, None)
        yield parents, CommitRecord(
            sha=sha,
            parent_sha=parents[0] if parents else "",
            author_timestamp=datetime.fromtimestamp(ts, tz=timezone.utc),
            message=message.rstrip("\n"),
            changes=[FileChange(path, kind, old_path, *counts.get(path, (0, 0)))
                     for kind, path, old_path in statuses],
        )


# A line that is no object id: ``diff-tree --stdin`` echoes it and flushes,
# so sent after a request it marks where that request's diff ends.
_END_OF_DIFF = b"~end\n"
# --always: a commit's id line comes first even when its diff is empty, so
# a missing commit (which diff-tree skips without a word) is told apart.
_DIFF_TREE = ("diff-tree", "--stdin", "--always", "-p", RENAME_SIMILARITY)
_CAT_FILE = ("cat-file", "--batch")


class GitObjects:
    """Diffs and objects of one clone, each served by one long-lived git process.

    ``diff`` asks one ``git diff-tree --stdin``, and ``read``, ``resolve``
    and ``blob`` one ``git cat-file --batch``. Each process starts on its
    first request and serves every later one, so a mine starts at most one
    of each, however many commits it reads. Use it as a context manager:
    ``close`` kills and reaps both on every exit path; they only read, so
    nothing is lost.

    A request fails as loudly as a process of its own would. Both processes
    write stderr to one temporary file, and anything written there during
    a request raises GitError, as does output that ends early or lacks the
    commit's id line. A process whose request failed is stopped, and the
    next request starts a new one.
    """

    def __init__(self, repo: Path | str) -> None:
        self.repo = repo
        self._processes: dict[tuple[str, ...], subprocess.Popen] = {}
        self._stderr = tempfile.TemporaryFile()

    def __enter__(self) -> "GitObjects":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def diff(self, sha: str, parent: str) -> str:
        """The text of ``git diff-tree -p -M50% <parent> <sha>``, as ``run_git`` decodes it."""
        def read(out) -> bytes:
            lines = []
            while (line := out.readline()) != _END_OF_DIFF:
                if not line:
                    raise ValueError("output ended early")
                lines.append(line)
            if lines[:1] != [f"{sha}\n".encode()]:
                raise ValueError(f"no commit {sha}")
            return b"".join(lines[1:])

        request = f"{sha} {parent}\n".encode() + _END_OF_DIFF
        return self._ask(_DIFF_TREE, request, read).decode("utf-8", errors="replace")

    def read(self, name: str) -> tuple[str, bytes]:
        """The kind (``blob``, ``tree``, ...) and the bytes of the object ``name``.

        Raises GitError when there is no such object.
        """
        return self._object(name)[1:]

    def resolve(self, name: str) -> str:
        """The id of the object ``name`` (``HEAD``, say) names, as the
        ``git cat-file`` that reads it prints it. Raises GitError when there
        is no such object."""
        return self._object(name)[0]

    def blob(self, name: str) -> str | None:
        """The blob ``<rev>:<path>``, or None when it is missing or no blob."""
        found = self._cat(name)
        if found is None or found[1] != "blob":
            return None
        return found[2].decode("utf-8", errors="replace")

    def _object(self, name: str) -> tuple[str, str, bytes]:
        found = self._cat(name)
        if found is None:
            raise GitError(f"git {' '.join(_CAT_FILE)} in {self.repo}: no object {name}")
        return found

    def _cat(self, name: str) -> tuple[str, str, bytes] | None:
        def read(out) -> tuple[str, str, bytes] | None:
            header = out.readline()
            if header.endswith(b" missing\n"):
                return None
            oid, kind, size = header.split()  # ValueError when the output ended
            body = out.read(int(size) + 1)
            if len(body) != int(size) + 1:
                raise ValueError("output ended early")
            return oid.decode(), kind.decode(), body[:-1]

        return self._ask(_CAT_FILE, f"{name}\n".encode(), read)

    def _ask(self, args: tuple[str, ...], request: bytes, read):
        proc = self._processes.get(args)
        if proc is None:
            proc = self._processes[args] = subprocess.Popen(
                ["git", "-C", str(self.repo), *args],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            )
        errors = self._stderr.fileno()
        before = os.fstat(errors).st_size
        try:
            # unbuffered: stdin's buffer stays empty, so closing it flushes nothing
            os.write(proc.stdin.fileno(), request)
            output, failure = read(proc.stdout), ""
        except (OSError, ValueError) as exc:
            output, failure = b"", str(exc)
        detail = os.pread(errors, os.fstat(errors).st_size - before, before)
        if failure or detail:
            # its output may be out of step with its requests: the next one starts anew
            _stop(self._processes.pop(args))
            detail = detail.decode(errors="replace").strip()
            raise GitError(f"git {' '.join(args)} in {self.repo} failed on "
                           f"{request.decode().split()[0]}: {detail or failure}")
        return output

    def close(self) -> None:
        while self._processes:
            _stop(self._processes.popitem()[1])
        self._stderr.close()


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def commit_diff_text(objects: GitObjects, commit: CommitRecord) -> str:
    """Full unified diff of the commit against its parent (phase 2, ``patches/``).

    Read through the mine's ``GitObjects``, so no diff starts a process of
    its own. Plumbing reads none of the operator's diff settings (prefixes,
    context, order file, external or textconv tools); under the default
    settings the text equals porcelain ``git diff``.
    """
    return objects.diff(commit.sha, commit.parent_sha)


def walk_history(repo: Path | str, config: HarvestConfig) -> Iterator[CommitRecord]:
    """Yield every first-parent, non-merge commit of ``HEAD`` with a non-empty diff,
    oldest first.

    The date window is the structural filter's alone: the walk reads
    ``config.since`` only to check that a shallow clone reaches back to
    it. Each record carries a fully parsed diff against its single parent.
    Commits with an empty diff are skipped: they cannot satisfy the
    non-empty-changes invariant and would trivially pass the file filters.
    """
    shallow = run_git(repo, "rev-parse", "--is-shallow-repository").strip() == "true"
    for index, (parents, record) in enumerate(_parse_log(_git_log(repo))):
        # shallow boundary commits masquerade as roots, so the only reliable
        # signal is the date of the oldest commit still reachable
        if index == 0 and shallow and record.author_timestamp > config.since:
            raise ShallowCloneError(
                f"shallow clone starts at {record.sha[:12]}, after the window start; "
                "re-clone with more depth or --unshallow"
            )
        if len(parents) != 1:
            continue  # root or merge commit
        if not record.changes:
            log.debug("skipping empty-diff commit %s", record.sha[:12])
            continue
        yield record


# ---------------------------------------------------------------------------
# linked issues

_ISSUE_REF = re.compile(r"(?:^|[\s(])#(\d+)\b")
_ISSUE_URL = re.compile(r"github\.com/([\w.-]+)/([\w.-]+)/(?:issues|pull)/(\d+)")


def resolve_linked_issue(
    commit: CommitRecord,
    owner: str,
    name: str,
    fetch_issue: Optional[Callable[[str, str, int], Optional[str]]],
) -> CommitRecord:
    """Attach the linked issue body when the message references one.

    Absent or unresolvable references leave the record unchanged; this
    never raises for fetch failures.
    """
    if fetch_issue is None:
        return commit
    ref: Optional[tuple[str, str, int]] = None
    m = _ISSUE_URL.search(commit.message)
    if m:
        ref = (m.group(1), m.group(2), int(m.group(3)))
    else:
        m = _ISSUE_REF.search(commit.message)
        if m:
            ref = (owner, name, int(m.group(1)))
    if ref is None:
        return commit
    try:
        body = fetch_issue(*ref)
    except Exception as exc:  # best-effort enrichment only
        log.debug("issue lookup failed for %s#%s: %s", ref[0], ref[2], exc)
        return commit
    if not body:
        return commit
    return replace(commit, linked_issue_text=body)
