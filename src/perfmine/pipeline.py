"""End-to-end mining: discovery output to populated benchmark store.

One public entry point per concern: ``gate_with_runtime`` builds the
head-version tester used by repository gating, ``mine_repository`` walks
one gated repository's history and stores every commit that survives
filtering, classification and building and makes some test measurably
faster, and ``MineResult`` carries the funnel counts the CLI reports.

Failures of individual commits are recorded and skipped; only
configuration, credential, or runtime-reachability problems abort a run.
"""

from __future__ import annotations

import functools
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

from .backends import ChatBackend
from .classifier import BackendConfig, classify_commit
from .discovery import LANGUAGE, HeadCheck, RepoDescriptor, gate_repository
from .errors import (
    BackendError,
    ContractViolation,
    GitError,
    PerfMineError,
    RuntimeUnavailableError,
    UnparseableResponseError,
)
from .evaluate import compare_timings
from .harvest import (
    GitObjects,
    HarvestConfig,
    apply_structural_filter,
    commit_diff_text,
    resolve_linked_issue,
    walk_history,
)
from .orchestrator import (
    BuildPlan,
    DEFAULT_RUNS,
    MIN_RUNS,
    PATCHED_DIR,
    RunOutcome,
    build_with_repair,
    prepare_environment,
    run_tests_repeatedly,
    select_base_image,
    snapshot_image,
)
from .runtime import ContainerRuntime, ORIGINAL_DIR
# ``judge`` stays importable from this module: minebench/tracing.py looks it up here.
from .stats import StatConfig, judge  # noqa: F401
from .store import (
    BenchmarkEntry,
    RunSummary,
    make_patch_id,
    write_entry,
)
from .trees import write_file

log = logging.getLogger("perfmine")


@dataclass
class FunnelCounts:
    """The staged counts printed after a mine run."""

    scanned: int = 0
    structurally_accepted: int = 0
    classified_positive: int = 0
    built: int = 0
    stored: int = 0

    def line(self) -> str:
        return (
            f"funnel: scanned={self.scanned} "
            f"structurally_accepted={self.structurally_accepted} "
            f"classified_positive={self.classified_positive} "
            f"built={self.built} stored={self.stored}"
        )

    def merged(self, other: "FunnelCounts") -> "FunnelCounts":
        return FunnelCounts(
            scanned=self.scanned + other.scanned,
            structurally_accepted=self.structurally_accepted + other.structurally_accepted,
            classified_positive=self.classified_positive + other.classified_positive,
            built=self.built + other.built,
            stored=self.stored + other.stored,
        )


@dataclass
class MineResult:
    funnel: FunnelCounts = field(default_factory=FunnelCounts)
    stored_patch_ids: list[str] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (sha, reason)

    def skip(self, sha: str, reason: str) -> None:
        self.skipped.append((sha, reason))
        log.info("skip %s: %s", sha[:10], reason)


def local_descriptor(head_sha: str, owner: str, name: str) -> RepoDescriptor:
    """Descriptor for a repository mined from a local clone whose head is ``head_sha``."""
    return RepoDescriptor(
        owner=owner,
        name=name,
        stars=0,
        primary_language=LANGUAGE,
        default_branch="HEAD",
        head_sha=head_sha,
    )


def gate_with_runtime(
    repo: RepoDescriptor,
    runtime: ContainerRuntime,
    *,
    objects: GitObjects,
    cpus: float | None = None,
    memory: str | None = None,
) -> RepoDescriptor:
    """Gate a repository by building and running its head inside the runtime.

    The head is the committed ``repo.head_sha``: its root ``CMakeLists.txt``
    and its tree are read through ``objects``, the reader of the clone that
    the mine goes on to use, and nothing of the clone's worktree is read.
    The head is built, and its suite run once: the tests that run reports
    are its tests, so a head whose run reports none has none.
    """
    if not repo.head_sha:
        raise ContractViolation(f"{repo.full_name}: the gate needs the head's commit id")

    def tester(cmake_text: str) -> HeadCheck:
        base_image, _ = select_base_image(cmake_text)
        session = runtime.start_session(base_image, cpus=cpus, memory=memory)
        try:
            head_dir = "/work/head"
            session.check_out(objects, {head_dir: repo.head_sha})
            build = session.configure_and_build(head_dir, f"{head_dir}-build", ())
            if not build.ok:
                return HeadCheck(has_tests=False, tests_pass=False)
            suite = session.run_suite(f"{head_dir}-build")
            has_tests = bool(suite.results)
            return HeadCheck(has_tests, has_tests and all(r.passed for r in suite.results))
        finally:
            session.close()

    return gate_repository(repo, objects.blob(f"{repo.head_sha}:CMakeLists.txt"), tester)


@dataclass(frozen=True)
class MiningLimits:
    runs: int = DEFAULT_RUNS
    max_repair_rounds: int = 3
    container_cpus: float | None = None
    container_memory: str | None = None

    def __post_init__(self) -> None:
        if self.runs < MIN_RUNS:
            raise ValueError(f"runs must be at least {MIN_RUNS} (one warm-up plus one recorded)")
        if self.max_repair_rounds < 1:
            raise ValueError("max_repair_rounds must be positive")


def mine_repository(
    repo: RepoDescriptor,
    clone_path: str | Path,
    *,
    harvest_config: HarvestConfig,
    backend_config: BackendConfig,
    stat_config: StatConfig,
    limits: MiningLimits,
    runtime: ContainerRuntime,
    backend: ChatBackend,
    objects: GitObjects,
    out_dir: str | Path,
    issue_fetcher=None,
) -> MineResult:
    """Walk one repository's history and store every surviving commit.

    The walk yields every first-parent, non-merge commit with a non-empty
    diff, whatever its date, so each one counts as scanned; the structural
    filter alone enforces the configured window. That keeps the scanned
    count meaningful as the funnel's denominator.

    ``objects``, the reader of ``clone_path``, serves every phase-2 diff and
    every built commit's ``CMakeLists.txt`` and two trees, so the mine starts
    at most one ``git diff-tree`` and one ``git cat-file`` besides the walk's
    two processes. Its owner closes it, and so reaps those processes.
    """
    result = MineResult()
    # Phase 2 and the store write share one diff; holding only the latest
    # keeps memory flat over a long walk.
    diff_text = functools.lru_cache(maxsize=1)(lambda c: commit_diff_text(objects, c))
    for commit in walk_history(clone_path, harvest_config):
        result.funnel.scanned += 1
        decision = apply_structural_filter(commit, harvest_config)
        if not decision.accepted:
            result.skip(commit.sha, f"filtered: {decision.reason.value}")
            continue
        result.funnel.structurally_accepted += 1

        if issue_fetcher is not None:
            commit = resolve_linked_issue(commit, repo.owner, repo.name, issue_fetcher)
        try:
            verdict = classify_commit(commit, diff_text, backend_config, backend)
        except (UnparseableResponseError, BackendError) as exc:
            result.skip(commit.sha, f"classifier error: {exc}")
            continue
        if verdict.final != "positive":
            result.skip(commit.sha, f"classified negative in phase {verdict.decided_in_phase}")
            continue
        result.funnel.classified_positive += 1

        try:
            _build_measure_store(
                repo, commit, verdict, objects, diff_text,
                stat_config=stat_config, limits=limits, runtime=runtime,
                backend=backend, backend_config=backend_config,
                out_dir=Path(out_dir), result=result,
            )
        except (RuntimeUnavailableError, ContractViolation):
            raise
        except (PerfMineError, GitError, OSError) as exc:
            result.skip(commit.sha, f"orchestration error: {exc}")
    return result


def _build_measure_store(
    repo, commit, verdict, objects, diff_text, *, stat_config, limits, runtime,
    backend, backend_config, out_dir, result,
):
    cmake_text = objects.blob(f"{commit.sha}:CMakeLists.txt") or ""
    base_image, compiler_version = select_base_image(cmake_text)
    session = prepare_environment(
        commit, runtime,
        objects=objects, base_image=base_image,
        cpus=limits.container_cpus, memory=limits.container_memory,
    )
    try:
        plan = BuildPlan(base_image=base_image, compiler_version=compiler_version)
        build_logs = {}
        for version, version_dir in (("original", ORIGINAL_DIR), ("patched", PATCHED_DIR)):
            attempt = build_with_repair(
                session, version_dir, plan,
                backend=backend, backend_model=backend_config.phase2_backend,
                max_rounds=limits.max_repair_rounds,
            )
            plan = attempt.plan
            build_logs[version] = attempt.log
            if not attempt.build_ok:
                result.skip(commit.sha, f"build failed for {version} "
                                        f"after {plan.repair_rounds_used} repair rounds")
                return
        result.funnel.built += 1

        outcomes = {}
        for version, version_dir in (("original", ORIGINAL_DIR), ("patched", PATCHED_DIR)):
            outcome = run_tests_repeatedly(
                session, version_dir, runs=limits.runs, version=version
            )
            if not outcome.qualified:
                result.skip(commit.sha, f"{version} version not consistently successful")
                return
            outcomes[version] = outcome

        timing = compare_timings(outcomes["original"], outcomes["patched"], stat_config)
        if not timing:
            result.skip(commit.sha, "no common tests between versions")
            return
        # the store holds only commits its one claim is true of
        if not any(t.result.significant for t in timing):
            result.skip(commit.sha, "no test measurably faster")
            return

        patch_id = make_patch_id(repo.owner, repo.name, commit.sha)
        _persist_logs(out_dir, patch_id, build_logs)
        image = snapshot_image(session, patch_id, runtime, list(outcomes.values()))

        entry = BenchmarkEntry(
            patch_id=patch_id,
            repo=repo,
            commit=commit,
            classification=verdict,
            build_plan=plan,
            image=image,
            runs=tuple(_summarize(o) for o in outcomes.values()),
            timing=timing,
            stat_config=stat_config,
        )
        write_entry(entry, out_dir, diff_text=diff_text(commit))
        result.stored_patch_ids.append(patch_id)
        result.funnel.stored += 1
    finally:
        session.close()


def _summarize(outcome: RunOutcome) -> RunSummary:
    return RunSummary(
        version=outcome.version,
        runs_requested=outcome.runs_requested,
        runs_recorded=outcome.runs_recorded,
        suite_wall_times_ms=outcome.suite_wall_times_ms,
    )


def _persist_logs(out_dir: Path, patch_id: str, build_logs: dict):
    """Write both build logs to ``<out_dir>/logs/<patch_id>.log``, each in a
    section headed ``== build <version> ==``.

    This is their only copy: the image holds the original tree alone. Every
    timing the claim rests on is in the manifest.
    """
    sections = []
    for version, text in build_logs.items():
        sections.append(f"== build {version} ==\n{text}")
        if text and not text.endswith("\n"):
            sections.append("\n")
    # str paths, as in runtime._HostFsSession: a Path would intern the patch id
    write_file(os.path.join(out_dir, "logs", f"{patch_id}.log"), "".join(sections).encode())
