"""Scoring a candidate patch against a stored benchmark entry.

The candidate diff is applied to a fresh copy of the original tree
inside a container opened from the entry's image, once the tree's marker
shows that the image is the entry's parent commit, built with the
recorded plan (never repaired: the image is the frozen environment), and
timed with the same warm-up-discard protocol as mining. The original is
re-measured in the same session rather than trusted from the manifest,
so both sides of the significance test come from the same machine and
moment.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, EvaluationError, RuntimeUnavailableError, StoreError
from .orchestrator import DEFAULT_RUNS, MIN_RUNS, RunOutcome, run_tests_repeatedly
from .runtime import ContainerRuntime, ORIGINAL_DIR, SHA_MARKER, WORK_ROOT
from .stats import StatConfig, TimingSeries, judge
from .store import (
    BenchmarkEntry,
    TimingEvidence,
    timing_to_dict,
    read_entry,
)
from .trees import write_file

CANDIDATE_DIR = f"{WORK_ROOT}/candidate"
VERDICT_IMPROVES = "improves"
VERDICT_FUNCTIONAL_ONLY = "functional_only"
VERDICT_BROKEN = "broken"

# git ends the header with a tab after a path with a space, and C-quotes a
# path with a quote, a backslash, a control or (by default) a non-ASCII byte
_DIFF_PATH_RE = re.compile(r"^\+\+\+ (?P<path>[^\t\r\n]+)", re.MULTILINE)
_C_ESCAPE_RE = re.compile(rb'\\([0-3][0-7]{2}|[abtnvfr"\\])')
_C_ESCAPES = dict(zip(b'abtnvfr"\\', b'\a\b\t\n\v\f\r"\\'))


@dataclass(frozen=True)
class EvaluationReport:
    patch_id: str
    candidate_digest: str
    applied_ok: bool
    build_ok: bool
    all_tests_pass: bool
    timing: tuple[TimingEvidence, ...]
    verdict: str
    runs: int
    session_id: str
    files_touched: tuple[str, ...] = ()
    ground_truth_files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        expected = verdict_for(
            self.applied_ok,
            self.build_ok,
            self.all_tests_pass,
            any(t.result.significant for t in self.timing),
        )
        if self.verdict != expected:
            raise ValueError(
                f"verdict {self.verdict!r} inconsistent with flags (expected {expected!r})"
            )
        if self.runs < 1:
            raise ValueError("runs must be positive")

    def to_dict(self) -> dict:
        return {
            "patch_id": self.patch_id,
            "candidate_digest": self.candidate_digest,
            "applied_ok": self.applied_ok,
            "build_ok": self.build_ok,
            "all_tests_pass": self.all_tests_pass,
            "timing": [timing_to_dict(t) for t in self.timing],
            "verdict": self.verdict,
            "runs": self.runs,
            "session_id": self.session_id,
            "baseline": "re_measured_same_session",
            "files_touched": list(self.files_touched),
            "ground_truth_files": list(self.ground_truth_files),
        }


def verdict_for(
    applied_ok: bool, build_ok: bool, all_tests_pass: bool, any_significant: bool
) -> str:
    """Pure verdict mapping; the report's invariant re-checks it."""
    if not (applied_ok and build_ok and all_tests_pass):
        return VERDICT_BROKEN
    return VERDICT_IMPROVES if any_significant else VERDICT_FUNCTIONAL_ONLY


def candidate_digest(diff_text: str) -> str:
    return hashlib.sha256(diff_text.encode("utf-8")).hexdigest()


def files_touched_by(diff_text: str) -> tuple[str, ...]:
    seen: list[str] = []
    for match in _DIFF_PATH_RE.finditer(diff_text):
        path = _unquote_git_path(match.group("path")).removeprefix("b/")
        if path != "/dev/null" and path not in seen:
            seen.append(path)
    return tuple(seen)


def _unquote_git_path(path: str) -> str:
    """Undo git's C quoting: ``"b/\\303\\251.cpp"`` is ``b/é.cpp``."""
    if not (len(path) > 1 and path[0] == path[-1] == '"'):
        return path
    raw = _C_ESCAPE_RE.sub(
        lambda m: bytes([int(m[1], 8) if len(m[1]) == 3 else _C_ESCAPES[m[1][0]]]),
        path[1:-1].encode("utf-8"),
    )
    return raw.decode("utf-8", errors="replace")


def report_path(store_dir: str | Path, patch_id: str) -> Path:
    return Path(store_dir) / f"{patch_id}.eval.json"


def _write_report(report: EvaluationReport, store_dir: str | Path) -> Path:
    target = report_path(store_dir, report.patch_id)
    # replaced whole, so an interrupted evaluate leaves the last report as it
    # was; one line, since indent makes json.dumps use its pure-Python encoder
    write_file(target, (json.dumps(report.to_dict(), sort_keys=True, ensure_ascii=False)
                        + "\n").encode())
    return target


def evaluate(
    patch_id: str,
    candidate_diff: str,
    store_dir: str | Path,
    runtime: ContainerRuntime,
    *,
    runs: int | None = None,
) -> EvaluationReport:
    """Score one candidate diff against the stored entry's container image,
    and write the report next to the store."""
    if runs is not None and runs < MIN_RUNS:
        raise ConfigError(
            f"runs must be at least {MIN_RUNS} (one warm-up plus one recorded), got {runs}"
        )
    entry = read_entry(store_dir, patch_id)
    if not runtime.has_image(entry.image):
        raise RuntimeUnavailableError(
            f"image {entry.image} for {patch_id} is not loadable from this runtime"
        )
    effective_runs = runs if runs is not None else (
        entry.runs[0].runs_requested if entry.runs else DEFAULT_RUNS
    )
    digest = candidate_digest(candidate_diff)
    ground_truth_files = tuple(c.path for c in entry.commit.changes)
    session = runtime.open_image(entry.image)
    try:
        report = _evaluate_in_session(
            session, entry, candidate_diff, digest, effective_runs, ground_truth_files
        )
    finally:
        session.close()
    _write_report(report, store_dir)
    return report


def _evaluate_in_session(
    session,
    entry: BenchmarkEntry,
    candidate_diff: str,
    digest: str,
    runs: int,
    ground_truth_files: tuple[str, ...],
) -> EvaluationReport:
    def failed(applied_ok: bool, build_ok: bool) -> EvaluationReport:
        return EvaluationReport(
            patch_id=entry.patch_id,
            candidate_digest=digest,
            applied_ok=applied_ok,
            build_ok=build_ok,
            all_tests_pass=False,
            timing=(),
            verdict=VERDICT_BROKEN,
            runs=runs,
            session_id=session.session_id,
            files_touched=files_touched_by(candidate_diff),
            ground_truth_files=ground_truth_files,
        )

    try:
        commit = session.read_file(f"{ORIGINAL_DIR}/{SHA_MARKER}").strip()
    except FileNotFoundError:
        commit = "no commit"
    if commit != entry.commit.parent_sha:
        raise StoreError(f"image {entry.image} holds {commit}, not the parent "
                         f"{entry.commit.parent_sha} of {entry.patch_id}")
    if session.path_exists(CANDIDATE_DIR):
        raise EvaluationError(f"{CANDIDATE_DIR} already exists in image {entry.image}")
    session.copy_tree(ORIGINAL_DIR, CANDIDATE_DIR)

    if candidate_diff.strip():
        applied = session.apply_patch(CANDIDATE_DIR, candidate_diff)
        if not applied.ok:
            return failed(applied_ok=False, build_ok=False)

    plan = entry.build_plan
    build_candidate = session.configure_and_build(
        CANDIDATE_DIR, f"{CANDIDATE_DIR}-build", plan.configure_args
    )
    if not build_candidate.ok:
        return failed(applied_ok=True, build_ok=False)
    build_original = session.configure_and_build(
        ORIGINAL_DIR, f"{ORIGINAL_DIR}-build", plan.configure_args
    )
    if not build_original.ok:
        raise EvaluationError(
            f"original tree from image {entry.image} no longer builds; "
            "the benchmark image is unusable"
        )

    original = run_tests_repeatedly(session, ORIGINAL_DIR, runs=runs, version="original")
    candidate = run_tests_repeatedly(session, CANDIDATE_DIR, runs=runs, version="candidate")
    if not original.qualified:
        raise EvaluationError(
            f"re-measured original from image {entry.image} was not "
            "consistently successful; refusing to score the candidate against a broken baseline"
        )

    timing = compare_timings(original, candidate, entry.stat_config)
    all_pass = candidate.qualified
    verdict = verdict_for(True, True, all_pass, any(t.result.significant for t in timing))
    return EvaluationReport(
        patch_id=entry.patch_id,
        candidate_digest=digest,
        applied_ok=True,
        build_ok=True,
        all_tests_pass=all_pass,
        timing=timing,
        verdict=verdict,
        runs=runs,
        session_id=session.session_id,
        files_touched=files_touched_by(candidate_diff),
        ground_truth_files=ground_truth_files,
    )


def compare_timings(
    before: RunOutcome, after: RunOutcome, config: StatConfig
) -> tuple[TimingEvidence, ...]:
    """Judge every test timed in both outcomes, in ``before``'s test order."""
    after_by_name = {t.name: t for t in after.tests}
    evidence = []
    for test in before.tests:
        match = after_by_name.get(test.name)
        if match is None or not test.wall_times_ms or not match.wall_times_ms:
            continue
        series = TimingSeries(
            test_name=test.name, pre_ms=test.wall_times_ms, post_ms=match.wall_times_ms
        )
        evidence.append(TimingEvidence(series=series, result=judge(series, config)))
    return tuple(evidence)
