"""Commit harvesting: walk repository history and apply the structural filter.

The walk reads the whole first-parent history from one ``git log`` stream
and yields every non-merge commit with a non-empty diff, whatever its date.
The structural filter alone decides: a commit survives iff it falls inside
the configured time window, touches at most max_files files, and every
touched file is C++ source that is not a test file.
"""

from __future__ import annotations

import logging
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

DEFAULT_CPP_EXTENSIONS = frozenset(
    {".cpp", ".cc", ".cxx", ".c++", ".hpp", ".hh", ".hxx", ".h", ".ipp", ".inl", ".tpp"}
)
DEFAULT_TEST_MARKERS = frozenset(
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
    cpp_extensions: frozenset[str] = DEFAULT_CPP_EXTENSIONS
    test_path_markers: frozenset[str] = DEFAULT_TEST_MARKERS

    def __post_init__(self) -> None:
        if self.since >= self.until:
            raise ValueError("since must be before until")
        if self.max_files < 1:
            raise ValueError("max_files must be >= 1")
        object.__setattr__(self, "cpp_extensions", frozenset(e.lower() for e in self.cpp_extensions))
        object.__setattr__(
            self, "test_path_markers", frozenset(m.lower() for m in self.test_path_markers)
        )


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


def _marker_matches(marker: str, text: str) -> bool:
    # word-boundary match: marker must not sit inside a larger alnum run,
    # so "test" hits "parser_test" but not "contest" or "latest"
    return re.search(rf"(?<![a-z0-9]){re.escape(marker)}(?![a-z0-9])", text) is not None


def classify_file(path: str, config: HarvestConfig) -> FileClass:
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
    for marker in config.test_path_markers:
        if any(_marker_matches(marker, seg) for seg in segments[:-1]):
            return FileClass.TEST_FILE
        if _marker_matches(marker, stem):
            return FileClass.TEST_FILE
    if ext in config.cpp_extensions:
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
        label = classify_file(change.path, config)
        if label is FileClass.TEST_FILE:
            return FilterDecision(False, RejectReason.TOUCHES_TESTS)
        if label is FileClass.OTHER:
            return FilterDecision(False, RejectReason.NON_CPP_FILE)
    return FilterDecision(True)


# ---------------------------------------------------------------------------
# git plumbing


def run_git(repo: Path | str, *args: str, check: bool = True) -> str:
    """Git's stdout decoded as UTF-8, with no newline translation.

    Text mode would turn every ``\r\n`` into ``\n``, and the diff of a
    commit that edits a CRLF file would then no longer apply to its parent.
    """
    cmd = ["git", "-C", str(repo), *args]
    proc = subprocess.run(cmd, capture_output=True)
    if check and proc.returncode != 0:
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


def _git_log(repo: Path | str, branch: str) -> Iterator[str]:
    """Stream the NUL-separated fields of ``git log`` over ``branch`` from one process.

    Fields are split as they arrive, so memory is bounded by one commit,
    not by the length of the history. Closing the generator early kills
    and reaps git. stderr goes to a file, so it cannot fill a pipe while
    stdout is read. A non-zero exit (empty repository, unknown branch)
    raises GitError.
    """
    cmd = ["git", "-C", str(repo), *_LOG_ARGS, branch, "--"]
    with tempfile.TemporaryFile() as stderr:
        # leaving the inner block closes stdout and waits for git
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=stderr, text=True, errors="replace"
        ) as proc:
            try:
                partial = ""  # git ends every field with NUL, so nothing is left at EOF
                while chunk := proc.stdout.read(1 << 16):
                    *fields, partial = (partial + chunk).split("\0")
                    yield from fields
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


def commit_diff_text(repo: Path | str, commit: CommitRecord) -> str:
    """Full unified diff of the commit against its parent (phase 2, ``patches/``).

    Plumbing reads none of the operator's diff settings (prefixes, context,
    order file, external or textconv tools); under the default settings
    the text equals porcelain ``git diff``.
    """
    return run_git(repo, "diff-tree", "-p", RENAME_SIMILARITY, commit.parent_sha, commit.sha)


def walk_history(
    repo: Path | str,
    config: HarvestConfig,
    branch: str = "HEAD",
) -> Iterator[CommitRecord]:
    """Yield every first-parent, non-merge commit with a non-empty diff, oldest first.

    The date window is the structural filter's alone: the walk reads
    ``config.since`` only to check that a shallow clone reaches back to
    it. Each record carries a fully parsed diff against its single parent.
    Commits with an empty diff are skipped: they cannot satisfy the
    non-empty-changes invariant and would trivially pass the file filters.
    """
    shallow = run_git(repo, "rev-parse", "--is-shallow-repository").strip() == "true"
    for index, (parents, record) in enumerate(_parse_log(_git_log(repo, branch))):
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
