"""Build-and-measure orchestration for one commit.

Given a structurally accepted, positively classified commit, this module
prepares a container holding the parent ("original") and commit
("patched") trees, checked out from one object source with no ``.git``,
builds both with dependency repair, times the test suite repeatedly with
a warm-up discard, and snapshots qualified results as a reusable image.
The image keeps only the original tree and its ``SHA_MARKER``: it is the
starting point of the task, and the patched tree, its answer, is kept
outside as the store's patch file. Build directories and logs are not
kept either.

Dependency repair is two-layered: a shipped table of known error
signatures mapped to packages, then (when the table is silent) a model
backend shown the build log tail. Both versions share one evolving
BuildPlan so the recorded environment applies identically to each.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from importlib import resources
from typing import NamedTuple

from .backends import TEMPERATURE, ChatBackend
from .errors import BackendError, ContractViolation, RuntimeUnavailableError
from .harvest import CommitRecord
from .runtime import (
    BuildResult,
    ContainerRuntime,
    ContainerSession,
    ORIGINAL_DIR,
    SHA_MARKER,
    WORK_ROOT,
)

log = logging.getLogger("perfmine")

DEFAULT_RUNS = 31
MIN_RUNS = 2  # one warm-up plus one recorded
DEFAULT_MAX_REPAIR_ROUNDS = 3
PATCHED_DIR = f"{WORK_ROOT}/patched"

# Pinned toolchain images by declared C++ standard; the last entry doubles
# as the fallback for undeclared or unknown standards.
PINNED_TOOLCHAINS: tuple[tuple[str, str, str], ...] = (
    ("98", "gcc:9", "9"),
    ("03", "gcc:9", "9"),
    ("11", "gcc:11", "11"),
    ("14", "gcc:11", "11"),
    ("17", "gcc:12", "12"),
    ("20", "gcc:13", "13"),
    ("23", "gcc:14", "14"),
)
_CXX_STANDARD_RE = re.compile(r"CMAKE_CXX_STANDARD\s+(\d+)")
_PACKAGE_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9+.-]*$")
_MODEL_SUGGESTION_LIMIT = 5
_LOG_TAIL_BYTES = 4000


@dataclass(frozen=True)
class BuildPlan:
    base_image: str
    compiler_version: str
    configure_args: tuple[str, ...] = ()
    install_packages: tuple[str, ...] = ()
    repair_rounds_used: int = 0

    def __post_init__(self) -> None:
        if not self.base_image:
            raise ValueError("base_image must be non-empty")
        if self.repair_rounds_used < 0:
            raise ValueError("repair_rounds_used must be non-negative")

    def to_dict(self) -> dict:
        return {
            "base_image": self.base_image,
            "compiler_version": self.compiler_version,
            "configure_args": list(self.configure_args),
            "install_packages": list(self.install_packages),
            "repair_rounds_used": self.repair_rounds_used,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BuildPlan":
        return cls(
            base_image=payload["base_image"],
            compiler_version=payload["compiler_version"],
            configure_args=tuple(payload["configure_args"]),
            install_packages=tuple(payload["install_packages"]),
            repair_rounds_used=payload["repair_rounds_used"],
        )


class TestRuns(NamedTuple):
    """Per-test outcome across the recorded (non-warm-up) suite runs."""

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    passed: tuple[bool, ...]
    wall_times_ms: tuple[float, ...]


@dataclass(frozen=True)
class RunOutcome:
    version: str
    build_ok: bool
    tests: tuple[TestRuns, ...]
    runs_requested: int
    runs_recorded: int
    suite_wall_times_ms: tuple[float, ...] = ()
    warmup_failed: bool = False

    def __post_init__(self) -> None:
        if self.version not in ("original", "patched", "candidate"):
            raise ValueError(f"unknown version label {self.version!r}")
        if self.runs_requested < 1 or self.runs_recorded < 0:
            raise ValueError("run counts out of range")
        for test in self.tests:
            if len(test.passed) != self.runs_recorded:
                raise ValueError(f"{test.name}: {len(test.passed)} records for "
                                 f"{self.runs_recorded} recorded runs")
            if any(t <= 0 for t in test.wall_times_ms):
                raise ValueError(f"{test.name}: wall times must be positive")

    @property
    def qualified(self) -> bool:
        """Consistently successful: built, at least one test, zero failures.

        A warm-up failure disqualifies even though its timing is discarded:
        the suite did not succeed on every execution.
        """
        return (
            self.build_ok
            and bool(self.tests)
            and not self.warmup_failed
            and all(all(test.passed) for test in self.tests)
        )

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "build_ok": self.build_ok,
            "runs_requested": self.runs_requested,
            "runs_recorded": self.runs_recorded,
            "warmup_failed": self.warmup_failed,
            "suite_wall_times_ms": list(self.suite_wall_times_ms),
            "tests": [
                {
                    "name": t.name,
                    "passed": list(t.passed),
                    "wall_times_ms": list(t.wall_times_ms),
                }
                for t in self.tests
            ],
        }


def select_base_image(cmake_text: str) -> tuple[str, str]:
    """Pick the pinned toolchain image for a project's declared C++ standard."""
    match = _CXX_STANDARD_RE.search(cmake_text)
    if match:
        declared = match.group(1)
        for standard, image, version in PINNED_TOOLCHAINS:
            if standard == declared:
                return image, version
    _, image, version = PINNED_TOOLCHAINS[-1]
    return image, version


def load_repair_table() -> list[tuple[str, tuple[str, ...]]]:
    return list(_packaged_repair_table())


@functools.cache
def _packaged_repair_table() -> tuple[tuple[str, tuple[str, ...]], ...]:
    # Read once per process, like the prompt templates in classifier.py.
    data = resources.files("perfmine").joinpath("data", "repair_table.json")
    doc = json.loads(data.read_text(encoding="utf-8"))
    return tuple((s["pattern"], tuple(s["packages"])) for s in doc["signatures"])


def prepare_environment(
    commit: CommitRecord,
    runtime: ContainerRuntime,
    *,
    source: str,
    base_image: str = "",
    cpus: float | None = None,
    memory: str | None = None,
) -> ContainerSession:
    """Start a session holding /work/original (parent) and /work/patched (commit),
    both checked out from the clone at the host path ``source``, and return it.

    The parent check runs before any container work: a root commit has no
    "original" version to compare against.
    """
    if not commit.parent_sha:
        raise ContractViolation(
            f"commit {commit.sha} has no parent; nothing to use as the original version"
        )
    if not runtime.available():
        raise RuntimeUnavailableError(
            f"container runtime unreachable at {runtime.describe_endpoint()}"
        )
    session = runtime.start_session(base_image, cpus=cpus, memory=memory)
    try:
        trees = {ORIGINAL_DIR: commit.parent_sha, PATCHED_DIR: commit.sha}
        session.check_out(source, trees)
        for directory, sha in trees.items():
            recorded = session.read_file(f"{directory}/{SHA_MARKER}").strip()
            if recorded != sha:
                raise ContractViolation(
                    f"{directory} records sha {recorded}, expected {sha}"
                )
    except BaseException:
        session.close()
        raise
    return session


class BuildAttempt(NamedTuple):
    plan: BuildPlan
    build_ok: bool
    log: str


def _heuristic_packages(
    log: str, table: Sequence[tuple[str, tuple[str, ...]]], already: Sequence[str]
) -> list[str]:
    found: list[str] = []
    for pattern, packages in table:
        if pattern in log:
            found.extend(p for p in packages if p not in already and p not in found)
    return found


def _model_packages(
    log: str, backend: ChatBackend, model: str, already: Sequence[str]
) -> list[str]:
    tail = log[-_LOG_TAIL_BYTES:]
    prompt = (
        "A C++ CMake build inside a Debian-based container failed. From the build "
        "log tail below, name the Debian/Ubuntu packages (apt) that would fix the "
        "missing dependencies. Reply with bare package names, one per line, and "
        "nothing else. If no package would help, reply with the single word none.\n\n"
        f"Build log tail:\n---\n{tail}\n---\n"
    )
    raw = backend.complete(model, prompt, temperature=TEMPERATURE, context={"phase": "repair"})
    packages: list[str] = []
    for line in raw.splitlines():
        token = line.strip().strip("`").lstrip("-*• ").strip()
        if token.lower() == "none":
            continue
        if _PACKAGE_NAME_RE.match(token) and token not in already and token not in packages:
            packages.append(token)
    return packages[:_MODEL_SUGGESTION_LIMIT]


def build_with_repair(
    session: ContainerSession,
    version_dir: str,
    plan: BuildPlan,
    *,
    backend: ChatBackend | None = None,
    backend_model: str = "",
    max_rounds: int = DEFAULT_MAX_REPAIR_ROUNDS,
    repair_table: Sequence[tuple[str, tuple[str, ...]]] | None = None,
) -> BuildAttempt:
    """Build one version, installing missing packages for up to max_rounds.

    Every package that gets installed is appended to the returned plan so
    the environment is reconstructible; the plan's repair_rounds_used
    counts install-and-retry cycles across both this call and earlier
    ones sharing the plan.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    table = repair_table if repair_table is not None else load_repair_table()
    build_dir = f"{version_dir}-build"
    result = session.configure_and_build(version_dir, build_dir, plan.configure_args)
    rounds = 0
    while not result.ok and rounds < max_rounds:
        packages = _heuristic_packages(result.log, table, plan.install_packages)
        if not packages and backend is not None and backend_model:
            try:
                packages = _model_packages(result.log, backend, backend_model,
                                           plan.install_packages)
            except BackendError as exc:
                log.warning("repair advice unavailable: %s", exc)
                packages = []
        if not packages:
            break
        install = session.install_packages(packages)
        rounds += 1
        plan = replace(
            plan,
            install_packages=plan.install_packages + tuple(packages),
            repair_rounds_used=plan.repair_rounds_used + 1,
        )
        if not install.ok:
            result = BuildResult(False, result.log + "\n" + install.log)
            continue
        result = session.configure_and_build(version_dir, build_dir, plan.configure_args)
    return BuildAttempt(plan, result.ok, result.log)


def run_tests_repeatedly(
    session: ContainerSession,
    version_dir: str,
    *,
    runs: int = DEFAULT_RUNS,
    version: str = "original",
) -> RunOutcome:
    """Invoke the whole suite ``runs`` times; the first run is warm-up.

    The warm-up's timings are discarded, but a failure there still
    disqualifies the version: "consistently successful" means every run.
    So does a recorded run that reports other tests than the rest (a
    crashed or timed-out ctest reports none): the version keeps no timings.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    build_dir = f"{version_dir}-build"
    suite_times: list[float] = []
    per_test: dict[str, TestRuns] = {}  # in the order the tests first appear
    warmup_failed = False
    recorded = 0
    for index in range(runs):
        suite = session.run_suite(build_dir)
        if index == 0:
            warmup_failed = any(not r.passed for r in suite.results)
            continue
        recorded += 1
        suite_times.append(suite.wall_time_ms)
        for run in suite.results:
            prev = per_test.get(run.name, TestRuns(run.name, (), ()))
            per_test[run.name] = TestRuns(
                run.name,
                prev.passed + (run.passed,),
                prev.wall_times_ms + (run.wall_time_ms,),
            )
    tests = tuple(per_test.values())
    if any(len(test.passed) != recorded for test in tests):
        tests, suite_times = (), []
    return RunOutcome(
        version=version,
        build_ok=True,
        tests=tests,
        runs_requested=runs,
        runs_recorded=recorded,
        suite_wall_times_ms=tuple(suite_times),
        warmup_failed=warmup_failed,
    )


def snapshot_image(
    session: ContainerSession,
    entry_id: str,
    runtime: ContainerRuntime,
    outcomes: Sequence[RunOutcome],
) -> str:
    """Commit the session's original tree to the image perfmine/<entry_id>.

    Requires every supplied outcome to be qualified; snapshotting a
    disqualified version would publish an image whose timings the
    benchmark could never trust. The snapshot ends the session: close()
    is the only call left on it. Re-snapshotting the same entry_id takes
    a newly prepared session and replaces the old image once the new one
    is stored; a snapshot that fails leaves the old image in place.
    """
    if not outcomes:
        raise ContractViolation("snapshot requires at least one run outcome")
    for outcome in outcomes:
        if not outcome.qualified:
            raise ContractViolation(
                f"cannot snapshot: version {outcome.version} is disqualified"
            )
    return runtime.snapshot(session, image_tag(entry_id))


def image_tag(entry_id: str) -> str:
    return f"perfmine/{entry_id}"
