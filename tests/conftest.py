"""Shared fixtures: the 5-commit mini repository and git helpers."""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from pathlib import Path

import pytest


def git(repo: Path, *args: str, env: dict[str, str] | None = None) -> str:
    import os

    full_env = dict(os.environ)
    full_env.setdefault("GIT_AUTHOR_NAME", "Fixture")
    full_env.setdefault("GIT_AUTHOR_EMAIL", "fixture@example.com")
    full_env.setdefault("GIT_COMMITTER_NAME", "Fixture")
    full_env.setdefault("GIT_COMMITTER_EMAIL", "fixture@example.com")
    if env:
        full_env.update(env)
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, env=full_env
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr}")
    return proc.stdout


def commit_all(repo: Path, message: str, author_date: str) -> str:
    git(repo, "add", "-A")
    git(
        repo,
        "commit",
        "-m",
        message,
        env={"GIT_AUTHOR_DATE": author_date, "GIT_COMMITTER_DATE": author_date},
    )
    return head_of(repo)


def head_of(repo: Path) -> str:
    return git(repo, "rev-parse", "HEAD").strip()


COMPUTE_SLOW = """\
#include "compute.hpp"
#include <vector>

// fake-timing: unit_main base_ms=150 step_ms=0.01
long compute(int n) {
    long total = 0;
    for (int i = 0; i < n; ++i) {
        std::vector<int> scratch(128, i);  // reallocated every iteration
        total += scratch[i % 128];
    }
    return total;
}
"""

COMPUTE_FAST = """\
#include "compute.hpp"
#include <vector>

// fake-timing: unit_main base_ms=100 step_ms=0.01
long compute(int n) {
    long total = 0;
    std::vector<int> scratch(128);  // hoisted out of the loop
    for (int i = 0; i < n; ++i) {
        scratch.assign(128, i);
        total += scratch[i % 128];
    }
    return total;
}
"""


@dataclass
class FixtureRepo:
    path: Path
    root_sha: str
    perf_sha: str
    perf_parent_sha: str
    tests_sha: str
    oversized_sha: str
    out_of_window_sha: str
    non_cpp_sha: str

    @property
    def all_five(self) -> list[str]:
        return [
            self.perf_sha,
            self.tests_sha,
            self.oversized_sha,
            self.out_of_window_sha,
            self.non_cpp_sha,
        ]


def build_fixture_repo(root: Path) -> FixtureRepo:
    """Five single-parent commits after the root: exactly one survives the
    structural filter (the perf commit); the others each trip one criterion."""
    root.mkdir(parents=True, exist_ok=True)
    git(root, "init", "-q", "-b", "main", ".")
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "CMakeLists.txt").write_text(
        "cmake_minimum_required(VERSION 3.16)\n"
        "project(fixture CXX)\n"
        "set(CMAKE_CXX_STANDARD 17)\n"
        "add_library(compute src/compute.cpp)\n"
        "add_executable(unit_main tests/test_main.cpp)\n"
        "target_link_libraries(unit_main compute)\n"
        "target_include_directories(unit_main PRIVATE src)\n"
        "enable_testing()\n"
        "add_test(NAME unit_main COMMAND unit_main)\n"
    )
    (root / "src" / "compute.hpp").write_text("#pragma once\nlong compute(int n);\n")
    (root / "src" / "compute.cpp").write_text(COMPUTE_SLOW)
    (root / "src" / "main.cpp").write_text(
        '#include "compute.hpp"\nint main() { return compute(10) > 0 ? 0 : 1; }\n'
    )
    (root / "tests" / "test_main.cpp").write_text(
        '#include "compute.hpp"\n'
        "int main() { return compute(200000) >= 0 ? 0 : 1; }\n"
    )
    (root / "README.md").write_text("# fixture\n")
    root_sha = commit_all(root, "initial project layout", "2018-05-01T09:00:00 +0000")

    (root / "src" / "compute.cpp").write_text(COMPUTE_FAST)
    (root / "src" / "compute.hpp").write_text(
        "#pragma once\n// hot path: keep allocation out of the loop\nlong compute(int n);\n"
    )
    perf_sha = commit_all(
        root,
        "Speed up compute by hoisting the scratch buffer\n\n"
        "Avoids reallocating the vector on every iteration. Fixes #7",
        "2023-03-10T10:00:00 +0000",
    )

    (root / "tests" / "test_main.cpp").write_text(
        '#include "compute.hpp"\n'
        "int main() { return compute(300000) >= 0 ? 0 : 1; }\n"
    )
    (root / "src" / "compute.cpp").write_text(COMPUTE_FAST + "// tuned\n")
    tests_sha = commit_all(
        root, "Tune compute and extend the unit test", "2023-05-02T11:30:00 +0000"
    )

    gen = root / "src" / "gen"
    gen.mkdir()
    for i in range(21):
        (gen / f"part{i:02d}.cpp").write_text(f"int part{i:02d}() {{ return {i}; }}\n")
    oversized_sha = commit_all(
        root, "Add generated compute kernels", "2023-07-20T08:15:00 +0000"
    )

    (root / "src" / "main.cpp").write_text(
        '#include "compute.hpp"\nint main() { return compute(11) > 0 ? 0 : 1; }\n'
    )
    out_of_window_sha = commit_all(
        root, "Adjust default problem size", "2019-12-31T23:59:59 +0000"
    )

    (root / "README.md").write_text("# fixture\n\nNow with docs.\n")
    non_cpp_sha = commit_all(root, "Document the project", "2024-01-05T16:45:00 +0000")

    perf_parent = git(root, "rev-parse", f"{perf_sha}^").strip()
    return FixtureRepo(
        path=root,
        root_sha=root_sha,
        perf_sha=perf_sha,
        perf_parent_sha=perf_parent,
        tests_sha=tests_sha,
        oversized_sha=oversized_sha,
        out_of_window_sha=out_of_window_sha,
        non_cpp_sha=non_cpp_sha,
    )


def files_under(top: str | Path) -> dict[str, tuple[str, str]]:
    """Every file under ``top`` as git would list it: path -> (mode, content)."""
    import os

    found = {}
    for dirpath, dirnames, filenames in os.walk(top):
        assert ".git" not in dirnames + filenames
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, top)
            if os.path.islink(path):
                found[rel] = ("120000", os.readlink(path))
            else:
                mode = "100755" if os.stat(path).st_mode & 0o100 else "100644"
                with open(path, encoding="utf-8") as handle:
                    found[rel] = (mode, handle.read())
    return found


def commit_files(repo: Path, sha: str) -> dict[str, tuple[str, str]]:
    """The files of commit ``sha`` per ``git ls-tree -r``: path -> (mode, content)."""
    found = {}
    for line in git(repo, "ls-tree", "-r", sha).splitlines():
        meta, path = line.split("\t", 1)
        mode, _, blob = meta.split()
        found[path] = (mode, git(repo, "cat-file", "blob", blob))
    return found


def lose_a_suite_run(monkeypatch, build_dir: str, invocation: int = 5) -> None:
    """Make the fake runtime's ``invocation``-th suite run of ``build_dir`` report
    no tests, as a ctest that crashed before writing its report does."""
    from perfmine.runtime import FakeSession, SuiteRun

    real = FakeSession.run_suite
    seen = {}

    def run_suite(self, build):
        suite = real(self, build)
        seen[build] = seen.get(build, 0) + 1
        if build == build_dir and seen[build] == invocation:
            return SuiteRun((), suite.wall_time_ms)
        return suite

    monkeypatch.setattr(FakeSession, "run_suite", run_suite)


@pytest.fixture
def recorded_processes(monkeypatch) -> list[subprocess.Popen]:
    """Every process started through subprocess (``run`` included) during the test."""
    started: list[subprocess.Popen] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory) -> FixtureRepo:
    return build_fixture_repo(tmp_path_factory.mktemp("fixture") / "fixturerepo")


@dataclass
class MinedStore:
    """A benchmark store populated by one full mining pass over the fixture."""

    store_dir: Path
    runtime: object
    repo: object
    result: object
    fixture: FixtureRepo

    @property
    def patch_id(self) -> str:
        return self.result.stored_patch_ids[0]


def mine_fixture(fixture: FixtureRepo, out_dir: Path, *, runs: int = 31) -> MinedStore:
    """Run the complete mining flow over the fixture repository."""
    from perfmine.backends import StubBackend
    from perfmine.classifier import BackendConfig
    from perfmine.harvest import GitObjects, HarvestConfig
    from perfmine.pipeline import (
        MiningLimits,
        gate_with_runtime,
        local_descriptor,
        mine_repository,
    )
    from perfmine.runtime import FakeRuntime
    from perfmine.stats import StatConfig

    runtime = FakeRuntime(state_dir=out_dir / "fake-runtime")
    repo = local_descriptor(head_of(fixture.path), "local", "fixturerepo")
    with GitObjects(fixture.path) as objects:
        gated = gate_with_runtime(repo, runtime, objects=objects)
        assert gated.passes_gate, "fixture head must build and pass its tests"
        result = mine_repository(
            gated,
            fixture.path,
            harvest_config=HarvestConfig(),
            backend_config=BackendConfig(),
            stat_config=StatConfig(),
            limits=MiningLimits(runs=runs),
            runtime=runtime,
            backend=StubBackend({fixture.perf_sha: "Yes"}),
            objects=objects,
            out_dir=out_dir,
        )
    runtime.close()  # as the mine command does when it ends
    return MinedStore(
        store_dir=out_dir, runtime=runtime, repo=gated, result=result, fixture=fixture
    )


@pytest.fixture(scope="session")
def mined_store(tmp_path_factory, fixture_repo) -> MinedStore:
    return mine_fixture(fixture_repo, tmp_path_factory.mktemp("mined") / "store")


def image_names(image: str | Path) -> set[str]:
    """The blob store files the host image file ``image`` names."""
    from perfmine.trees import TreeObjects

    with open(image, "rb") as handle:
        return TreeObjects.decode(handle.read()).store_names()


def store_keeps_what_images_name(state: str | Path) -> set[str]:
    """Check a host runtime's state directory: every store file that an image
    names is in the blob store, and every other store file is linked by
    something. Returns the names the images name."""
    import os

    images = os.path.join(state, "images")
    named: set[str] = set()
    for name in os.listdir(images) if os.path.isdir(images) else ():
        named |= image_names(os.path.join(images, name))
    blobs = os.path.join(state, "blobs")
    stored = set(os.listdir(blobs))
    assert named <= stored, f"named by an image but not stored: {sorted(named - stored)}"
    unlinked = {name for name in stored - named
                if os.stat(os.path.join(blobs, name)).st_nlink < 2}
    assert not unlinked, f"stored, yet named by no image and linked by nothing: {unlinked}"
    return named
