"""Benchmark store: one JSON manifest plus one patch file per mined commit.

Layout under a store directory:

    entries/<patch_id>.json    the manifest, as ``entry_to_dict`` writes it
    patches/<patch_id>.patch   the ground-truth unified diff

Writes are atomic (``trees.write_file``: a temporary file, then a
rename), manifests are dumped with sorted keys and UTF-8 so regenerated
stores diff cleanly, and ``entry_to_dict`` is the one definition of a
manifest: one is accepted only when re-serialising the parsed entry
gives back exactly the stored JSON, the same keys and the same derived
values (digests, ``has_significant_test``, ``patch_file``, the fixed
decisions), each of the same JSON type. A faulty manifest is rejected with a ``SchemaError``
that names where it differs, never repaired. The prompt fingerprints are
the ones recorded at classification.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path

from .classifier import ClassificationVerdict, verdict_from_dict, verdict_to_dict
from .discovery import HeadTestsState, RepoDescriptor
from .errors import ReviewError, SchemaError, StoreError
from .harvest import CommitRecord, FileChange
from .orchestrator import BuildPlan
from .stats import SignificanceResult, StatConfig, TimingSeries
from .trees import write_file

SCHEMA_VERSION = 1
SUITE_INVOCATION = "whole_suite"
VERIFIED_STATES = ("unreviewed", "accepted", "rejected")
ENTRIES_SUBDIR = "entries"
PATCHES_SUBDIR = "patches"


def make_patch_id(owner: str, name: str, sha: str) -> str:
    return f"{owner}__{name}__{sha}"


def series_digest(series: TimingSeries) -> str:
    canonical = json.dumps(
        {"test_name": series.test_name, "pre_ms": list(series.pre_ms),
         "post_ms": list(series.post_ms)},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TimingEvidence:
    """One test's timing samples and the significance judgment on them."""

    series: TimingSeries
    result: SignificanceResult

    @property
    def digest(self) -> str:
        return series_digest(self.series)


@dataclass(frozen=True)
class RunSummary:
    """Run metadata kept in the manifest (samples live in the timing block)."""

    version: str
    runs_requested: int
    runs_recorded: int
    suite_wall_times_ms: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "runs_requested": self.runs_requested,
            "runs_recorded": self.runs_recorded,
            "suite_wall_times_ms": list(self.suite_wall_times_ms),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSummary":
        return cls(
            version=payload["version"],
            runs_requested=payload["runs_requested"],
            runs_recorded=payload["runs_recorded"],
            suite_wall_times_ms=tuple(payload["suite_wall_times_ms"]),
        )


@dataclass(frozen=True)
class BenchmarkEntry:
    patch_id: str
    repo: RepoDescriptor
    commit: CommitRecord
    classification: ClassificationVerdict
    build_plan: BuildPlan
    image: str
    runs: tuple[RunSummary, ...]
    timing: tuple[TimingEvidence, ...]
    stat_config: StatConfig = field(default_factory=StatConfig)
    verified: str = "unreviewed"
    reviewer_note: str | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        expected = make_patch_id(self.repo.owner, self.repo.name, self.commit.sha)
        if self.patch_id != expected:
            raise SchemaError(
                f"patch_id {self.patch_id!r} does not match repo/commit ({expected!r})"
            )
        if self.verified not in VERIFIED_STATES:
            raise SchemaError(f"verified must be one of {VERIFIED_STATES}")
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {self.schema_version}")
        if not self.image:
            raise SchemaError("entry must reference an image")
        if (self.reviewer_note is not None) and self.verified == "unreviewed":
            raise SchemaError("reviewer_note requires a review decision")

    @property
    def has_significant_test(self) -> bool:
        return any(evidence.result.significant for evidence in self.timing)

    @property
    def multi_file(self) -> bool:
        return len(self.commit.changes) > 1

    @property
    def repo_full_name(self) -> str:
        return self.repo.full_name


# ---------------------------------------------------------------------------
# serialization


def _repo_to_dict(repo: RepoDescriptor) -> dict:
    return {
        "owner": repo.owner,
        "name": repo.name,
        "stars": repo.stars,
        "primary_language": repo.primary_language,
        "default_branch": repo.default_branch,
        "head_sha": repo.head_sha,
        "has_root_cmake": repo.has_root_cmake,
        "has_cmake_tests": repo.has_cmake_tests,
        "head_tests_pass": repo.head_tests_pass.value,
    }


def _repo_from_dict(payload: dict) -> RepoDescriptor:
    return RepoDescriptor(
        owner=payload["owner"],
        name=payload["name"],
        stars=payload["stars"],
        primary_language=payload["primary_language"],
        default_branch=payload["default_branch"],
        head_sha=payload["head_sha"],
        has_root_cmake=payload["has_root_cmake"],
        has_cmake_tests=payload["has_cmake_tests"],
        head_tests_pass=HeadTestsState(payload["head_tests_pass"]),
    )


def _commit_to_dict(commit: CommitRecord, patch_file: str) -> dict:
    return {
        "sha": commit.sha,
        "parent_sha": commit.parent_sha,
        "author_timestamp": commit.author_timestamp.isoformat(),
        "message": commit.message,
        "linked_issue_text": commit.linked_issue_text,
        "patch_file": patch_file,
        "changes": [
            {
                "path": c.path,
                "change_kind": c.change_kind,
                "old_path": c.old_path,
                "lines_added": c.lines_added,
                "lines_deleted": c.lines_deleted,
            }
            for c in commit.changes
        ],
    }


def _commit_from_dict(payload: dict) -> CommitRecord:
    return CommitRecord(
        sha=payload["sha"],
        parent_sha=payload["parent_sha"],
        author_timestamp=datetime.fromisoformat(payload["author_timestamp"]),
        message=payload["message"],
        linked_issue_text=payload["linked_issue_text"],
        changes=tuple(
            FileChange(
                path=c["path"],
                change_kind=c["change_kind"],
                old_path=c["old_path"],
                lines_added=c["lines_added"],
                lines_deleted=c["lines_deleted"],
            )
            for c in payload["changes"]
        ),
    )


def timing_to_dict(evidence: TimingEvidence) -> dict:
    return {
        "test_name": evidence.series.test_name,
        "digest": evidence.digest,
        "pre_ms": list(evidence.series.pre_ms),
        "post_ms": list(evidence.series.post_ms),
        "result": {
            "u_statistic": evidence.result.u_statistic,
            "p_value": evidence.result.p_value,
            "relative_improvement": evidence.result.relative_improvement,
            "significant": evidence.result.significant,
            "method": evidence.result.method,
        },
    }


def _timing_from_dict(payload: dict) -> TimingEvidence:
    result = payload["result"]
    return TimingEvidence(
        series=TimingSeries(
            test_name=payload["test_name"],
            pre_ms=tuple(payload["pre_ms"]),
            post_ms=tuple(payload["post_ms"]),
        ),
        result=SignificanceResult(
            u_statistic=result["u_statistic"],
            p_value=result["p_value"],
            relative_improvement=result["relative_improvement"],
            significant=result["significant"],
            method=result["method"],
        ),
    )


def entry_to_dict(entry: BenchmarkEntry) -> dict:
    patch_file = f"{PATCHES_SUBDIR}/{entry.patch_id}.patch"
    return {
        "schema_version": entry.schema_version,
        "patch_id": entry.patch_id,
        "repo": _repo_to_dict(entry.repo),
        "commit": _commit_to_dict(entry.commit, patch_file),
        "classification": verdict_to_dict(entry.classification),
        "build": {
            "plan": entry.build_plan.to_dict(),
            "image": entry.image,
            "suite_invocation": SUITE_INVOCATION,
            "runs": [run.to_dict() for run in entry.runs],
        },
        "timing": [timing_to_dict(t) for t in entry.timing],
        "stats_decisions": {
            "delta": float(entry.stat_config.delta),
            "alpha": float(entry.stat_config.alpha),
            "exact_threshold": entry.stat_config.exact_threshold,
            "improvement_metric": "relative_median",
            "alternative": "post_stochastically_smaller",
            "warmup_discarded": True,
        },
        "has_significant_test": entry.has_significant_test,
        "verified": entry.verified,
        "reviewer_note": entry.reviewer_note,
    }


def entry_from_dict(payload: object) -> BenchmarkEntry:
    """The entry ``payload`` describes, if ``entry_to_dict`` writes it back unchanged.

    That one comparison rejects unknown and missing keys at every level and
    every value the writer derives. It compares types too: ``1`` is not
    ``true``, nor ``1.0`` ``1``.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"a manifest must be a JSON object, not {type(payload).__name__}")
    try:
        try:
            entry = _build_entry(payload)
        except KeyError:
            # build it again from a copy that names the object missing the key
            entry = _build_entry(_located(payload, "entry"))
        derived = entry_to_dict(entry)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed manifest ({type(exc).__name__}: {exc})") from exc
    if derived != payload or not _same_types(payload, derived):
        raise SchemaError(_first_difference(payload, derived, "entry"))
    return entry


def _build_entry(payload: dict) -> BenchmarkEntry:
    build, decisions = payload["build"], payload["stats_decisions"]
    return BenchmarkEntry(
        patch_id=payload["patch_id"],
        repo=_repo_from_dict(payload["repo"]),
        commit=_commit_from_dict(payload["commit"]),
        classification=verdict_from_dict(payload["classification"]),
        build_plan=BuildPlan.from_dict(build["plan"]),
        image=build["image"],
        runs=tuple(RunSummary.from_dict(r) for r in build["runs"]),
        timing=tuple(_timing_from_dict(t) for t in payload["timing"]),
        stat_config=StatConfig(
            delta=decisions["delta"],
            alpha=decisions["alpha"],
            exact_threshold=decisions["exact_threshold"],
        ),
        verified=payload["verified"],
        reviewer_note=payload["reviewer_note"],
        schema_version=payload["schema_version"],
    )


class _Located(dict):
    """A JSON object of a manifest that names its path when a key is missing."""

    def __init__(self, items: dict, where: str) -> None:
        super().__init__(items)
        self.where = where

    def __missing__(self, key: str):
        raise SchemaError(f"{self.where}: missing key {key!r}")


def _located(value: object, where: str) -> object:
    """``value`` with every JSON object in it made a ``_Located`` at its path."""
    if isinstance(value, dict):
        return _Located({k: _located(v, f"{where}.{k}") for k, v in value.items()}, where)
    if isinstance(value, list):
        return [_located(v, f"{where}[{n}]") for n, v in enumerate(value)]
    return value


_CONTAINERS = frozenset({dict, list})


def _same_types(stored: object, derived: object) -> bool:
    """Whether two trees that compare equal hold a value of the same type at
    every place: ``==`` takes ``1`` for ``true``, and ``1.0`` for ``1``."""
    if isinstance(derived, dict):
        return type(stored) is dict and all(
            _same_types(stored[key], value) if type(value) in _CONTAINERS
            else type(stored[key]) is type(value)
            for key, value in derived.items())
    if isinstance(derived, list):
        kinds = list(map(type, derived))
        return (type(stored) is list and list(map(type, stored)) == kinds
                and (_CONTAINERS.isdisjoint(kinds) or all(map(_same_types, stored, derived))))
    return type(stored) is type(derived)


def _first_difference(stored: object, derived: object, where: str) -> str:
    """Name the first place, in the writer's key order, where two trees differ."""
    if isinstance(stored, dict) and isinstance(derived, dict):
        if stored.keys() != derived.keys():
            return (f"{where}: missing keys {sorted(derived.keys() - stored.keys())}, "
                    f"unknown keys {sorted(stored.keys() - derived.keys())}")
        for key, value in derived.items():
            if stored[key] != value or not _same_types(stored[key], value):
                return _first_difference(stored[key], value, f"{where}.{key}")
    if isinstance(stored, list) and isinstance(derived, list) and len(stored) == len(derived):
        for n, (s, d) in enumerate(zip(stored, derived)):
            if s != d or not _same_types(s, d):
                return _first_difference(s, d, f"{where}[{n}]")
    return f"{where}: stored {repr(stored)[:100]}, derived {repr(derived)[:100]}"


# ---------------------------------------------------------------------------
# filesystem operations


def entry_path(store_dir: str | Path, patch_id: str) -> Path:
    return Path(store_dir) / ENTRIES_SUBDIR / f"{patch_id}.json"


def patch_path(store_dir: str | Path, patch_id: str) -> Path:
    return Path(store_dir) / PATCHES_SUBDIR / f"{patch_id}.patch"


def write_entry(
    entry: BenchmarkEntry, store_dir: str | Path, *, diff_text: str | None = None
) -> Path:
    """Write the manifest (and, when given, the patch file) atomically.

    The ground-truth diff lives next to the manifest, never inline; pass
    ``diff_text`` on first write and omit it when rewriting a manifest
    whose patch file already exists.
    """
    store_dir = Path(store_dir)
    target = entry_path(store_dir, entry.patch_id)
    patch_target = patch_path(store_dir, entry.patch_id)
    if diff_text is not None:
        write_file(patch_target, diff_text.encode())
    elif not patch_target.is_file():
        raise StoreError(f"no diff_text given and {patch_target} does not exist")
    payload = json.dumps(entry_to_dict(entry), indent=2, sort_keys=True, ensure_ascii=False)
    write_file(target, (payload + "\n").encode())
    return target


def read_entry(store_dir: str | Path, patch_id: str) -> BenchmarkEntry:
    target = entry_path(store_dir, patch_id)
    if not target.is_file():
        raise StoreError(f"no entry named {patch_id!r} under {store_dir}")
    return _load_entry(target)


def _load_entry(path: Path) -> BenchmarkEntry:
    """The entry stored in ``path``; any fault in its content is a ``SchemaError``."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return entry_from_dict(payload)


def read_ground_truth_diff(store_dir: str | Path, patch_id: str) -> str:
    target = patch_path(store_dir, patch_id)
    if not target.is_file():
        raise StoreError(f"no patch file for {patch_id!r} under {store_dir}")
    with open(target, encoding="utf-8", newline="") as handle:  # keep CRLF lines
        return handle.read()


@dataclass(frozen=True)
class EntryFilter:
    repo: str | None = None  # "owner/name"
    multi_file: bool | None = None
    has_significant_test: bool | None = None
    verified: str | None = None

    def matches(self, entry: BenchmarkEntry) -> bool:
        if self.repo is not None and entry.repo_full_name != self.repo:
            return False
        if self.multi_file is not None and entry.multi_file != self.multi_file:
            return False
        if (
            self.has_significant_test is not None
            and entry.has_significant_test != self.has_significant_test
        ):
            return False
        if self.verified is not None and entry.verified != self.verified:
            return False
        return True


@dataclass(frozen=True)
class QueryResult:
    entries: tuple[BenchmarkEntry, ...]
    errors: tuple[tuple[str, str], ...]  # (file path, message)


def query(store_dir: str | Path, entry_filter: EntryFilter | None = None) -> QueryResult:
    """Scan every manifest; malformed files are reported, not fatal."""
    entries_dir = Path(store_dir) / ENTRIES_SUBDIR
    if not entries_dir.is_dir():
        return QueryResult((), ())
    entry_filter = entry_filter or EntryFilter()
    found = []
    errors = []
    for path in sorted(entries_dir.glob("*.json")):
        try:
            entry = _load_entry(path)
        except SchemaError as exc:
            errors.append((str(path), str(exc)))
            continue
        if entry_filter.matches(entry):
            found.append(entry)
    found.sort(key=lambda e: e.patch_id)
    return QueryResult(tuple(found), tuple(errors))


def mark_verified(
    store_dir: str | Path, patch_id: str, decision: str, note: str | None = None
) -> BenchmarkEntry:
    """One-way review: unreviewed entries move to accepted or rejected, once."""
    if decision not in ("accepted", "rejected"):
        raise ReviewError(f"decision must be accepted or rejected, got {decision!r}")
    entry = read_entry(store_dir, patch_id)
    if entry.verified != "unreviewed":
        raise ReviewError(f"{patch_id} was already reviewed as {entry.verified}")
    updated = replace(entry, verified=decision, reviewer_note=note)
    write_entry(updated, store_dir)
    return updated
