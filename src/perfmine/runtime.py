"""Container runtime seam and its three implementations.

Everything the orchestrator and evaluator do to a container goes through
two small protocols: ``ContainerRuntime`` (start sessions, snapshot and
reopen images) and ``ContainerSession`` (check out trees, build, test,
patch, read/write files). Paths inside a session are POSIX strings under
``/work`` regardless of implementation.

Trees are always written on the host, where the mined clone is, by
``trees.TreeWriter`` from the objects that the mine's ``GitObjects``
reads, with no git process of their own: a tree holds exactly the
commit's files and a ``SHA_MARKER`` file naming it, and no ``.git``, so
neither sessions nor their images carry an object store. Its regular
files and its marker are read-only hard links into a blob store, so a
blob shared by two trees, or by a tree and an image, is on disk once.
The fake and local runtimes keep the store in ``<state_dir>/blobs`` for
the runtime's whole life: ``close()``, which ``mine`` calls once when it
ends, deletes each store file that this runtime wrote, once nothing
links it and no image it stored names it, so its cost follows the
runtime's writes, not the store's size. Docker keeps a store per
checkout in its staging directory. Such a tree may sit
inside another git work tree, so ``git
apply`` stops its search for a repository at the tree's parent;
otherwise it would take the enclosing repository for the tree's own and
apply nothing.

An image holds ``ORIGINAL_DIR`` (the parent's tree and its marker) and
nothing else from ``/work``: no other tree, no build directory, no log.
The commit under study is the answer to the task the image poses, so it
stays outside, in the store's ``patches/``; every build directory is
remade by the next ``configure_and_build``. A snapshot replaces an
image of the same tag only once the new one is complete, so a snapshot
that fails leaves the stored image as it was.

cmake, ctest (read through ``--output-junit``) and ``git apply`` are
driven once, in ``_ExecSession``, over the ``exec`` and path mapping of
each session adapter. A command that outlives ``COMMAND_TIMEOUT_S``
fails like any other, and every process it started on the host is
killed with it; under docker, where that host process is the ``docker
exec`` client, the container runs the command under ``timeout -s KILL``
with the same limit, so it is killed there too. Only ``start_session``
takes a base image and cpu and memory limits, which docker alone
applies; a session opened from an image runs without limits.
Implementations:

* ``DockerCliRuntime`` drives a real daemon through the ``docker``
  executable. A checkout is written to a host directory and copied in,
  read-only modes included, with one ``docker cp``. The process runner
  is injectable so unit tests can replay canned transcripts without a
  daemon.
* ``LocalProcessRuntime`` runs cmake and ctest directly on the host with
  a directory standing in for the container. Package installation is
  unsupported by design.
* ``FakeRuntime`` is a deterministic in-process double. Checkouts are
  real trees and patches real ``git apply`` runs, but builds always
  succeed and test timings come from declarations planted in the source
  tree (see ``fake-timing`` below), so a fixture repository fully
  scripts its own measurements.

The local and fake runtimes give each session a directory of its own,
its ``/work``. When the session closes, the trees it checked out stay
in that directory as the spares, in place of the spares kept before,
and the rest of it is deleted; after that the session refuses every
call but ``close()``. A later ``check_out``, ``open_image`` or
``copy_tree`` renames a spare into place, one of the same commit first,
and syncs it, so a tree that the last session held needs only the files
that differ. A directory whose spares were all taken is empty, and the
next session starts in it, so handing trees from session to session
makes and deletes no directory. ``start_session`` begins with an empty
``/work``, and ``open_image`` with the image's tree alone. ``close()``
on the runtime deletes the spares and the empty directory.

The trees of a session opened by ``open_image`` outlive its process
instead: when it closes, they (``ORIGINAL_DIR`` and ``evaluate``'s
candidate) stay, the rest of its directory is deleted, and the
directory is renamed to the one slot, ``sessions/spare``, or deleted if
the slot is taken. A
runtime that needs a new session directory and holds no spares claims
the slot with one ``os.rename`` to the new name (``ENOENT``: there is
none, or another process took it), renames each real directory in it
beside the new one as a spare, whose commit its marker names, and
deletes anything else in it. So each evaluation after the first one on
a store renames and syncs trees, and makes and deletes no directory.
Everything that reaches the slot is synced before use, and no write
follows a symlink, so deleting the slot, or any change to it, costs
only speed. The mine's own spares are never put in the slot, because a
patched tree can link blobs that no image names, which the slot would
keep from the sweep.

A snapshot ends the session: every later call but ``close()`` raises
``ContractViolation``. On the fake and local runtimes an image is one
read-only file, ``images/<tag>``: the ``trees.TreeObjects`` that the
check-out of ``ORIGINAL_DIR`` read (a line ``<commit> <root tree id>``,
then each tree object and symlink target as ``git cat-file --batch``
prints it), so it is exactly the parent commit's tree, whatever the
session wrote into it, and it takes no git request. The files' blobs
stay in the blob store. The snapshot then keeps both trees as the
spares and deletes the rest of ``/work``; the base image and the
packages a build needed are in the entry's build plan. ``has_image``
asks whether the file exists: a store of the earlier layout, where an
image was a directory, must be mined again. ``open_image`` checks that
each record hashes to its id and writes ``ORIGINAL_DIR`` through the
same ``TreeWriter.write`` as a check-out, so the modes, symlinks,
submodule directories and refusal of hostile entries are a check-out's;
a fault in the image raises ``StoreError``. ``copy_tree`` syncs its
destination to hold hard links to the files of a tree. A file in a session, checked out or linked, is
therefore changed by replacing it, as ``git apply`` does, never by
writing into it: a build that writes in place into a source file fails with
``EACCES``. Mode bits do not stop a process running as root, so that
guard holds only for unprivileged runs; under root an in-place write
changes every tree and image that shares the blob.

Fake timing declarations are comment lines inside any source file:

    // fake-timing: <test_name> base_ms=<float> step_ms=<float> [fail_run=<int>]

They are read once, when ``configure_and_build`` builds the tree, as a
real build fixes its test list; editing a source file afterwards changes
nothing until the tree is built again. Each suite invocation k (0-based,
counted per source tree within one session) reports wall time
``base_ms + step_ms * k`` for that test, and fails it when ``fail_run``
equals the 1-based invocation index. Because the declaration travels
with the tree, patched checkouts, snapshots, and candidate copies all
time themselves consistently.
"""

from __future__ import annotations

import contextlib
import json
import os
import posixpath
import re
import shutil
import signal
import stat
import subprocess
import tempfile
import time
import uuid
import xml.etree.ElementTree as ET
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple, Protocol

from .errors import ContractViolation, GitError, RuntimeUnavailableError, StoreError
from .harvest import GitObjects
from .trees import SHA_MARKER, TreeObjects, TreeWriter, link_tree, remove_entry, write_file

WORK_ROOT = "/work"
ORIGINAL_DIR = f"{WORK_ROOT}/original"  # the one tree an image keeps
FAKE_TIMING_RE = re.compile(
    r"//\s*fake-timing:\s*(?P<name>\S+)\s+base_ms=(?P<base>[0-9.]+)"
    r"\s+step_ms=(?P<step>[0-9.]+)(?:\s+fail_run=(?P<fail>\d+))?"
)
_IMAGE_TAG_SAFE = re.compile(r"[^A-Za-z0-9_.-]")
SLOT = "spare"  # sessions/<SLOT>: the trees of the last evaluation, for the next


class BuildResult(NamedTuple):
    ok: bool
    log: str


class TestRun(NamedTuple):
    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    passed: bool
    wall_time_ms: float


class SuiteRun(NamedTuple):
    """One invocation of the whole test suite."""

    results: tuple[TestRun, ...]
    wall_time_ms: float


class ContainerSession(Protocol):
    session_id: str

    def check_out(self, objects: GitObjects, trees: Mapping[str, str]) -> None:
        """Make each ``dest: commit id`` hold exactly the tree ``objects`` reads,
        whatever it held before, with a ``SHA_MARKER`` file and no ``.git``.

        Its regular files are read-only; on the host runtimes they are hard
        links into the runtime's blob store, so change one by replacing it.
        The markers are written last, and only when every tree was written.
        """
        ...

    def copy_tree(self, src: str, dest: str) -> None:
        """Make ``dest`` a copy of the tree at ``src``.

        On the host runtimes ``dest``, a spare where it does not exist, is
        synced in place: its directories are its own but its files are
        hard links to ``src``'s, which in a session opened from an image
        are the image's read-only files: change a file by replacing it, as
        ``git apply`` does. Docker copies the files.
        """
        ...

    def read_file(self, path: str) -> str: ...

    def path_exists(self, path: str) -> bool: ...

    def configure_and_build(
        self, source_dir: str, build_dir: str, configure_args: Sequence[str]
    ) -> BuildResult:
        """Configure and compile, replacing any existing build directory.

        Starting from a clean cache matters twice over: a failed configure
        must not poison later repair rounds with cached NOTFOUND entries,
        and a snapshot reopened under a different filesystem root carries
        a cache whose absolute paths no longer resolve.
        """
        ...

    def list_tests(self, build_dir: str) -> list[str]: ...

    def run_suite(self, build_dir: str) -> SuiteRun: ...

    def install_packages(self, packages: Sequence[str]) -> BuildResult: ...

    def apply_patch(self, tree_dir: str, diff_text: str) -> BuildResult: ...

    def close(self) -> None: ...


class ContainerRuntime(Protocol):
    def available(self) -> bool: ...

    def describe_endpoint(self) -> str: ...

    def start_session(
        self, base_image: str, *, cpus: float | None = None, memory: str | None = None
    ) -> ContainerSession: ...

    def open_image(self, tag: str) -> ContainerSession: ...

    def snapshot(self, session: ContainerSession, tag: str) -> str:
        """Store the session's ``ORIGINAL_DIR``, and nothing else, as image ``tag``.

        The fake and local runtimes store the tree that ``check_out`` or
        ``open_image`` wrote there, as one file of its tree objects,
        whatever the session wrote into it since; docker commits the container with ``ORIGINAL_DIR``
        as it is. An image already stored under ``tag`` is replaced only
        once the new one is complete. After ``snapshot`` the only defined
        call on the session is ``close()``; to snapshot again, prepare a
        new session.
        """
        ...

    def has_image(self, tag: str) -> bool:
        """Whether image ``tag`` is stored: on the fake and local runtimes,
        whether its file exists; under docker, whether the daemon has it."""
        ...

    def close(self) -> None:
        """Delete what the runtime keeps from one session for the next: spare
        trees, an empty session directory, and each blob store file that it
        wrote and nothing needs any more, but not the slot. The runtime
        stays usable; the ``mine`` and ``evaluate`` commands call this
        once, when they end."""
        ...


# ---------------------------------------------------------------------------
# Processes and links, shared by every runtime


class RunnerResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


Runner = Callable[..., RunnerResult]

COMMAND_TIMEOUT_S = 3600.0  # a build, a suite run or a patch that takes longer fails


def _subprocess_runner(
    argv: Sequence[str], input_text: str | None = None, timeout: float = COMMAND_TIMEOUT_S
) -> RunnerResult:
    """Run one command in a process group of its own.

    A command still running after ``timeout`` fails with code 124. Then,
    or when the caller is interrupted (Ctrl-C reaches only the caller's
    group), the whole group is killed, so a hung ctest takes its test
    processes with it.
    """
    with subprocess.Popen(
        list(argv), stdin=None if input_text is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", errors="replace",
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(input_text, timeout=timeout)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return RunnerResult(124, "", f"{' '.join(argv)} timed out after {timeout:g} s")
    return RunnerResult(proc.returncode, stdout, stderr)


# ---------------------------------------------------------------------------
# cmake, ctest and git apply, written once over an adapter's exec


_JUNIT_NAME = "perfmine-junit.xml"


class _ExecSession:
    """Builds, lists and runs tests, and applies patches, through two primitives.

    An adapter supplies ``exec(argv, input_text=None)``, which runs one
    command where the session's files are and returns a ``RunnerResult``,
    and ``exec_path(path)``, which maps a ``/work`` path to the path that
    command sees. It also supplies ``read_file``. A suite run reads the
    JUnit report of ``ctest --output-junit`` (ctest 3.21 or newer).
    """

    def configure_and_build(
        self, source_dir: str, build_dir: str, configure_args: Sequence[str]
    ) -> BuildResult:
        src, build = self.exec_path(source_dir), self.exec_path(build_dir)
        self.exec(["rm", "-rf", build])
        configure = self.exec(["cmake", "-S", src, "-B", build, *configure_args])
        if configure.returncode != 0:
            return BuildResult(False, configure.stdout + configure.stderr)
        compile_step = self.exec(["cmake", "--build", build, "--parallel"])
        log = configure.stdout + configure.stderr + compile_step.stdout + compile_step.stderr
        return BuildResult(compile_step.returncode == 0, log)

    def list_tests(self, build_dir: str) -> list[str]:
        result = self.exec(
            ["ctest", "--test-dir", self.exec_path(build_dir), "--show-only=json-v1"]
        )
        if result.returncode != 0:
            return []
        return _test_names_from_ctest_json(result.stdout)

    def run_suite(self, build_dir: str) -> SuiteRun:
        report = posixpath.join(build_dir, _JUNIT_NAME)
        # a run that writes no report must not read the one before it
        self.exec(["rm", "-f", self.exec_path(report)])
        started = time.monotonic()
        self.exec(["ctest", "--test-dir", self.exec_path(build_dir),
                   "--output-junit", self.exec_path(report)])
        elapsed_ms = (time.monotonic() - started) * 1000.0
        try:
            return SuiteRun(_parse_junit(self.read_file(report)), elapsed_ms)
        except (FileNotFoundError, ET.ParseError):
            return SuiteRun((), elapsed_ms)

    def apply_patch(self, tree_dir: str, diff_text: str) -> BuildResult:
        tree = self.exec_path(tree_dir).rstrip("/")
        result = self.exec(
            ["env", f"GIT_CEILING_DIRECTORIES={posixpath.dirname(tree)}", "git", "-C", tree,
             "apply", "--whitespace=nowarn", "-"],
            diff_text,
        )
        return BuildResult(result.returncode == 0, result.stdout + result.stderr)


def _test_names_from_ctest_json(payload: str) -> list[str]:
    try:
        doc = json.loads(payload)
    except ValueError:
        return []
    return [t.get("name", "") for t in doc.get("tests", []) if t.get("name")]


def _parse_junit(xml_text: str) -> tuple[TestRun, ...]:
    root = ET.fromstring(xml_text)
    runs = []
    for case in root.iter("testcase"):
        status = case.get("status", "")
        failed = status in ("failed", "fail") or case.find("failure") is not None
        runs.append(
            TestRun(
                name=case.get("name", ""),
                passed=not failed and status != "notrun",
                wall_time_ms=float(case.get("time", "0") or 0) * 1000.0,
            )
        )
    return tuple(runs)


# ---------------------------------------------------------------------------
# Docker via its CLI


class DockerCliRuntime:
    """Talks to an OCI daemon through the ``docker`` command line."""

    def __init__(self, runner: Runner | None = None, docker_bin: str = "docker") -> None:
        self._run = runner if runner is not None else _subprocess_runner
        self.docker_bin = docker_bin

    def describe_endpoint(self) -> str:
        return os.environ.get("DOCKER_HOST", "unix:///var/run/docker.sock")

    def available(self) -> bool:
        try:
            return self._run([self.docker_bin, "info"], None, 30.0).returncode == 0
        except OSError:
            return False

    def start_session(
        self, base_image: str, *, cpus: float | None = None, memory: str | None = None
    ) -> "DockerSession":
        argv = [self.docker_bin, "run", "-d"]
        if cpus is not None:
            argv += ["--cpus", str(cpus)]
        if memory is not None:
            argv += ["--memory", memory]
        argv += [base_image, "sleep", "infinity"]
        try:
            result = self._run(argv, None, 600.0)
        except OSError as exc:
            raise RuntimeUnavailableError(
                f"could not run {self.docker_bin} to start a container: {exc}"
            ) from exc
        if result.returncode != 0:
            raise RuntimeUnavailableError(
                f"could not start container from {base_image} via "
                f"{self.describe_endpoint()}: {result.stderr.strip()}"
            )
        container_id = result.stdout.strip()
        session = DockerSession(self, container_id)
        session.exec(["mkdir", "-p", WORK_ROOT])
        return session

    def open_image(self, tag: str) -> "DockerSession":
        return self.start_session(tag)

    def snapshot(self, session: "DockerSession", tag: str) -> str:
        inspect = [self.docker_bin, "image", "inspect", "--format", "{{.Id}}", tag]
        old = self._run(inspect, None, 60.0)
        superseded = old.stdout.strip() if old.returncode == 0 else ""
        prune = session.exec(["find", WORK_ROOT, "-mindepth", "1", "-maxdepth", "1",
                              "!", "-path", ORIGINAL_DIR, "-exec", "rm", "-rf", "{}", "+"])
        if prune.returncode != 0:
            raise RuntimeUnavailableError(f"pruning {WORK_ROOT} failed: {prune.stderr.strip()}")
        result = self._run([self.docker_bin, "commit", session.session_id, tag], None, 600.0)
        if result.returncode != 0:
            raise RuntimeUnavailableError(f"docker commit failed: {result.stderr.strip()}")
        if superseded:
            # the tag has moved on; a dangling old image is a leak, not a fault
            self._run([self.docker_bin, "rmi", superseded], None, 120.0)
        return tag

    def has_image(self, tag: str) -> bool:
        result = self._run([self.docker_bin, "image", "inspect", tag], None, 60.0)
        return result.returncode == 0

    def close(self) -> None:
        """Nothing to delete: each checkout's blob store went with its staging directory."""


class DockerSession(_ExecSession):
    """A running container; its paths are the container's own."""

    def __init__(self, runtime: DockerCliRuntime, container_id: str) -> None:
        self._runtime = runtime
        self.session_id = container_id

    def exec(self, argv: Sequence[str], input_text: str | None = None) -> RunnerResult:
        # killing the docker exec client on the host would leave the command
        # running in the container, so the container kills it at the same limit
        full = [self._runtime.docker_bin, "exec"]
        if input_text is not None:
            full.append("-i")
        full += [self.session_id, "timeout", "-s", "KILL", f"{COMMAND_TIMEOUT_S:g}", *argv]
        return self._runtime._run(full, input_text, COMMAND_TIMEOUT_S)

    def exec_path(self, path: str) -> str:
        return path

    def check_out(self, objects: GitObjects, trees: Mapping[str, str]) -> None:
        # the clone is on the host, where the container cannot see it: write
        # the trees there, then copy them all in with one docker cp; the blob
        # store goes when the staging directory does
        with tempfile.TemporaryDirectory(prefix="perfmine-checkout-") as staging:
            root = os.path.join(staging, "root")
            TreeWriter(os.path.join(staging, "blobs")).write(
                objects, {os.path.join(root, d.lstrip("/")): sha for d, sha in trees.items()},
            )
            os.chmod(root, 0o755)  # its mode may be carried onto the container's /
            result = self._runtime._run(
                [self._runtime.docker_bin, "cp", f"{root}/.", f"{self.session_id}:/"],
                None, COMMAND_TIMEOUT_S,
            )
        if result.returncode != 0:
            raise RuntimeUnavailableError(
                f"copying trees into {self.session_id} failed: {result.stderr.strip()}"
            )

    def copy_tree(self, src: str, dest: str) -> None:
        result = self.exec(["cp", "-a", src, dest])
        if result.returncode != 0:
            raise RuntimeUnavailableError(f"copy {src} -> {dest} failed: {result.stderr}")

    def read_file(self, path: str) -> str:
        result = self.exec(["cat", path])
        if result.returncode != 0:
            raise FileNotFoundError(path)
        return result.stdout

    def path_exists(self, path: str) -> bool:
        return self.exec(["test", "-e", path]).returncode == 0

    def install_packages(self, packages: Sequence[str]) -> BuildResult:
        if not packages:
            return BuildResult(True, "")
        update = self.exec(["sh", "-c", "apt-get update -qq || true"])
        install = self.exec(
            ["apt-get", "install", "-y", "--no-install-recommends", *packages]
        )
        log = update.stdout + install.stdout + install.stderr
        return BuildResult(install.returncode == 0, log)

    def close(self) -> None:
        self._runtime._run([self._runtime.docker_bin, "rm", "-f", self.session_id], None, 120.0)


# ---------------------------------------------------------------------------
# Shared host-filesystem session base (local and fake runtimes)


class _HostFsSession(_ExecSession):
    """Session whose ``/work`` is a directory on the host, its ``root``.

    The root and every path below it are plain absolute ``str``. ``pathlib``
    interns every component of every path it builds, and each name that is
    not already interned (a session directory, a build directory, an image
    tag, a log file) spends a slot of CPython's interned-string table; a
    process that runs many sessions would keep resizing that table.
    """

    def __init__(self, runtime: "_HostFsRuntimeBase", root: str, session_id: str) -> None:
        self.root = os.path.abspath(root)
        self.session_id = session_id
        self.ended = ""  # "snapshotted" or "closed" once the runtime has the root back
        self._runtime = runtime
        self.from_image = False  # opened by open_image: its trees go to the slot when it ends
        self._checked_out: dict[str, str] = {}  # host directory -> commit id
        # host directory -> the tree objects that its last write read, for a snapshot
        self._written: dict[str, TreeObjects] = {}

    def host_path(self, path: str) -> str:
        if self.ended:
            raise ContractViolation(
                f"session {self.session_id} was {self.ended}; only close() is defined"
            )
        if path != WORK_ROOT and not path.startswith(WORK_ROOT + "/"):
            raise ValueError(f"session paths must be absolute POSIX paths under {WORK_ROOT}: "
                             f"{path!r}")
        return self.root + path[len(WORK_ROOT):]

    exec_path = host_path

    def exec(self, argv: Sequence[str], input_text: str | None = None) -> RunnerResult:
        return _subprocess_runner(argv, input_text, COMMAND_TIMEOUT_S)

    def check_out(self, objects: GitObjects, trees: Mapping[str, str]) -> None:
        paths = {self.host_path(d): sha for d, sha in trees.items()}
        self._checked_out.update(paths)
        for path in paths:
            self._written.pop(path, None)
        self._runtime._take_spares(paths)
        self._written.update(self._runtime._trees.write(objects, paths))

    def copy_tree(self, src: str, dest: str) -> None:
        source, target = self.host_path(src), self.host_path(dest)
        commit = self._checked_out.get(source, "")
        self._runtime._take_spares({target: commit})
        link_tree(source, target)
        self._checked_out[target] = commit

    def read_file(self, path: str) -> str:
        with open(self.host_path(path), encoding="utf-8") as handle:
            return handle.read()

    def path_exists(self, path: str) -> bool:
        return os.path.exists(self.host_path(path))

    def close(self) -> None:
        if not self.ended:
            self.ended = "closed"
            self._runtime._keep_spares(self)


class _HostFsRuntimeBase:
    """Images, spare trees and the blob store of the local and fake runtimes:
    files and directories under ``state_dir``, which one mine at a time
    writes. The slot, ``sessions/spare``, is shared by every runtime on the
    directory: it changes hands only by ``os.rename``."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.blobs_dir = os.path.join(self.state_dir, "blobs")
        self._slot = os.path.join(self.state_dir, "sessions", SLOT)
        self._trees = TreeWriter(self.blobs_dir)
        # (directory, commit id its marker names): in the closed session's
        # directory, or each beside the session directory that claimed the slot
        self._spares: list[tuple[str, str]] = []
        self._spare_root: str | None = None  # the closed session's directory that holds them
        self._free_root: str | None = None  # an empty directory for the next session
        self._named: dict[str, set[str]] = {}  # image file -> the store files it names
        self._session_counter = 0

    def close(self) -> None:
        """Delete the spare trees and the free session directory, then each
        store file this runtime wrote that nothing links and no image it
        stored names. The slot stays."""
        self._drop_spares()
        if self._free_root is not None:
            shutil.rmtree(self._free_root, ignore_errors=True)
            self._free_root = None
        self._trees.sweep(set().union(*self._named.values()))

    def _drop_spares(self) -> None:
        """Delete the spares: their closed session's directory, or each one
        claimed from the slot."""
        trees = [tree for tree, _ in self._spares] if self._spare_root is None \
            else [self._spare_root]
        for tree in trees:
            shutil.rmtree(tree, ignore_errors=True)
        self._spares, self._spare_root = [], None

    def _new_session_root(self) -> tuple[str, str]:
        """An empty directory for a new session, and the session's name: the
        directory the last session left empty, else the slot, once its
        trees are the spares, else a new one."""
        self._session_counter += 1
        name = f"s{self._session_counter}-{uuid.uuid4().hex[:8]}"
        root, self._free_root = self._free_root, None
        if root is None:
            root = os.path.join(self.state_dir, "sessions", name)
            if self._spares or not self._claim_slot(root):
                os.makedirs(root)
        return root, name

    def _claim_slot(self, root: str) -> bool:
        """Rename the slot to ``root``, then each tree in it (a real
        directory) beside ``root`` as a spare, and delete anything else in
        it; False when there is no slot, or another process took it first."""
        try:
            os.rename(self._slot, root)
        except FileNotFoundError:
            return False
        if not stat.S_ISDIR(os.lstat(root).st_mode):  # a symlink or file planted as the slot
            os.unlink(root)
            return False
        with os.scandir(root) as scan:
            entries = list(scan)
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                spare = f"{root}.{len(self._spares)}"
                os.rename(entry.path, spare)
                self._spares.append((spare, _marked_commit(spare)))
            else:
                remove_entry(entry)
        return True

    def _free(self, root: str) -> None:
        """Keep the directory ``root``, whose spares were all taken, for the
        next session if it is empty and none is kept yet; delete it otherwise."""
        with contextlib.suppress(FileNotFoundError):  # a tree taken as a whole root
            if self._free_root is None and not os.listdir(root):
                self._free_root = root
                return
        shutil.rmtree(root, ignore_errors=True)

    def _take_spares(self, trees: Mapping[str, str]) -> None:
        """Rename a spare tree to each of ``trees`` that does not exist yet,
        preferring one checked out at the same commit."""
        missing = {dest: sha for dest, sha in trees.items() if not os.path.lexists(dest)}
        for same_commit in (True, False):
            for dest, sha in list(missing.items()):
                spare = next((s for s in self._spares if s[1] == sha or not same_commit), None)
                if spare is not None:
                    self._spares.remove(spare)
                    os.makedirs(os.path.dirname(dest), exist_ok=True)
                    os.rename(spare[0], dest)
                    del missing[dest]
        if self._spare_root is not None and not self._spares:
            self._free(self._spare_root)
            self._spare_root = None

    def _keep_spares(self, session: _HostFsSession) -> None:
        """Keep the trees the session checked out where they are, as the spares
        of the next ``check_out`` in place of the spares kept before, and
        delete the rest of the session's directory; with no tree to keep,
        delete the whole directory. A session opened from an image renames
        its directory to the slot instead, or deletes it if the slot is
        taken."""
        kept = [(tree, sha) for tree, sha in session._checked_out.items()
                if os.path.isdir(tree) and not os.path.islink(tree)]
        session._checked_out.clear()
        if not kept:
            shutil.rmtree(session.root, ignore_errors=True)
            return
        # each tree's first directory below the root, or the root itself
        tops = {os.path.relpath(tree, session.root).split(os.sep)[0] for tree, _ in kept}
        try:
            with os.scandir(session.root) as entries:
                for entry in entries:
                    if not tops & {entry.name, os.curdir}:
                        remove_entry(entry)
        except BaseException:
            shutil.rmtree(session.root, ignore_errors=True)
            raise
        if session.from_image:
            try:
                os.rename(session.root, self._slot)
            except OSError:  # the slot is taken
                shutil.rmtree(session.root, ignore_errors=True)
            return
        self._drop_spares()
        self._spares, self._spare_root = kept, session.root

    def _image_path(self, tag: str) -> str:
        return os.path.join(self.state_dir, "images", _IMAGE_TAG_SAFE.sub("_", tag))

    def has_image(self, tag: str) -> bool:
        return os.path.isfile(self._image_path(tag))

    def open_image(self, tag: str) -> _HostFsSession:
        """A new session whose ``ORIGINAL_DIR`` the tree writer syncs, in a
        spare as a check-out would, from the image's tree objects and the
        store's blobs.

        An image that fails its check (a record that does not hash to its
        id, a file cut short, a hostile tree entry, a blob the store lacks)
        raises StoreError. On failure no session is left behind.
        """
        if not self.has_image(tag):
            raise RuntimeUnavailableError(
                f"no stored image tagged {tag} at {self._image_path(tag)}")
        try:
            with open(self._image_path(tag), "rb") as handle:
                tree = TreeObjects.decode(handle.read())
        except ValueError as exc:
            raise StoreError(f"image {tag} is unusable: {exc}") from exc
        session = self.start_session(tag)
        session.from_image = True
        original = session.host_path(ORIGINAL_DIR)
        try:
            self._take_spares({original: tree.commit})
            try:
                # a writer of its own: an image's root tree is bound to its
                # commit only by the image's first line, so its trees must not
                # serve a later check-out of that commit
                session._written = TreeWriter(self.blobs_dir).write(
                    tree, {original: tree.commit})
            except GitError as exc:
                raise StoreError(f"image {tag} is unusable: {exc}") from exc
        except BaseException:
            session.close()
            raise
        session._checked_out[original] = tree.commit
        return session

    def snapshot(self, session: _HostFsSession, tag: str) -> str:
        original = session.host_path(ORIGINAL_DIR)  # refuses a session already snapshotted
        tree = session._written.get(original)
        if tree is None:
            raise ContractViolation(
                f"session {session.session_id} has no checked-out {ORIGINAL_DIR} to snapshot")
        image = self._image_path(tag)
        os.makedirs(os.path.dirname(image), exist_ok=True)
        if os.path.isdir(image):  # an image of the earlier layout, a directory
            shutil.rmtree(image)
        write_file(image, tree.encode(), 0o444)
        self._named[image] = tree.store_names()
        session.ended = "snapshotted"
        # both trees become spares, and the rest of /work goes
        self._keep_spares(session)
        return tag


def _marked_commit(tree: str) -> str:
    """The commit that the tree's marker names, or "" if it has no regular marker."""
    marker = os.path.join(tree, SHA_MARKER)
    try:
        if stat.S_ISREG(os.lstat(marker).st_mode):
            with open(marker, "rb") as handle:
                return handle.read(80).strip().decode("ascii", "replace")
    except OSError:
        pass
    return ""


# ---------------------------------------------------------------------------
# Local runtime: real cmake/ctest on the host, no container


class LocalProcessRuntime(_HostFsRuntimeBase):
    """Runs builds and tests directly on this machine.

    Useful where no container daemon exists; the session root directory
    plays the part of the container filesystem. No isolation, no package
    installation.
    """

    def describe_endpoint(self) -> str:
        return "local host (no container daemon)"

    def available(self) -> bool:
        return shutil.which("cmake") is not None and shutil.which("ctest") is not None

    def start_session(
        self, base_image: str, *, cpus: float | None = None, memory: str | None = None
    ) -> "LocalSession":
        root, name = self._new_session_root()
        return LocalSession(self, root, f"local-{name}")


class LocalSession(_HostFsSession):
    def install_packages(self, packages: Sequence[str]) -> BuildResult:
        return BuildResult(False, "package installation is unsupported on the local runtime")


# ---------------------------------------------------------------------------
# Fake runtime: deterministic in-process double


class FakeTimingDecl(NamedTuple):
    name: str
    base_ms: float
    step_ms: float
    fail_run: int | None


_SCAN_SKIP = frozenset({".git", "build", "__pycache__"})


def scan_fake_timings(tree: str | os.PathLike[str]) -> list[FakeTimingDecl]:
    """Collect fake-timing declarations from a source tree, sorted by name.

    Files are read in the order of their path parts relative to ``tree``
    (the order of ``sorted(tree.rglob("*"))``), and the first declaration
    of a name wins. Directories and files named ``.git``, ``build`` or
    ``__pycache__`` inside the tree are skipped; the tree's own location
    does not matter. Paths stay strings, because ``Path`` interns every
    component of every path it builds.
    """
    top = os.fspath(tree)
    files: list[tuple[tuple[str, ...], str]] = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in _SCAN_SKIP]
        rel = os.path.relpath(dirpath, top)
        parts = () if rel == os.curdir else tuple(rel.split(os.sep))
        files.extend(
            (parts + (name,), os.path.join(dirpath, name))
            for name in filenames
            if name not in _SCAN_SKIP
        )
    files.sort()
    decls: dict[str, FakeTimingDecl] = {}
    for _, path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (UnicodeDecodeError, OSError):
            continue
        for match in FAKE_TIMING_RE.finditer(text):
            name = match.group("name")
            decls.setdefault(
                name,
                FakeTimingDecl(
                    name=name,
                    base_ms=float(match.group("base")),
                    step_ms=float(match.group("step")),
                    fail_run=int(match.group("fail")) if match.group("fail") else None,
                ),
            )
    return [decls[name] for name in sorted(decls)]


class FakeRuntime(_HostFsRuntimeBase):
    """In-process stand-in for a container daemon.

    Builds always succeed (unless scripted otherwise through
    ``build_failures``), and suite runs synthesize timings from the
    declarations found in the source tree, so the whole mining and
    evaluation flow runs deterministically in milliseconds.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        build_failures: dict[str, list[BuildResult]] | None = None,
        reachable: bool = True,
    ) -> None:
        super().__init__(state_dir)
        self.build_failures = build_failures or {}
        self.reachable = reachable

    def describe_endpoint(self) -> str:
        return f"fake runtime state at {self.state_dir}"

    def available(self) -> bool:
        return self.reachable

    def start_session(
        self, base_image: str, *, cpus: float | None = None, memory: str | None = None
    ) -> "FakeSession":
        if not self.reachable:
            raise RuntimeUnavailableError(
                f"container runtime unreachable at {self.describe_endpoint()}"
            )
        root, name = self._new_session_root()
        return FakeSession(self, root, f"fake-{name}")


class FakeSession(_HostFsSession):
    def __init__(self, runtime: FakeRuntime, root: str, session_id: str) -> None:
        super().__init__(runtime, root, session_id)
        # build dir -> (source dir, declarations read when it was built)
        self._builds: dict[str, tuple[str, list[FakeTimingDecl]]] = {}
        self._invocations: dict[str, int] = {}

    def configure_and_build(
        self, source_dir: str, build_dir: str, configure_args: Sequence[str]
    ) -> BuildResult:
        if not self.path_exists(source_dir):
            return BuildResult(False, f"source directory {source_dir} does not exist")
        pending = self._runtime.build_failures.get(source_dir)
        if pending:
            # scripted failures are consumed one per attempt; builds succeed after
            return pending.pop(0)
        self._builds[build_dir] = (source_dir, scan_fake_timings(self.host_path(source_dir)))
        return BuildResult(True, f"fake build of {source_dir} ok")

    def list_tests(self, build_dir: str) -> list[str]:
        _, decls = self._builds.get(build_dir, ("", []))
        return [d.name for d in decls]

    def run_suite(self, build_dir: str) -> SuiteRun:
        if build_dir not in self._builds:
            raise ContractViolation(f"run_suite before configure_and_build for {build_dir}")
        source_dir, decls = self._builds[build_dir]
        k = self._invocations.get(source_dir, 0)
        self._invocations[source_dir] = k + 1
        results = tuple(
            TestRun(
                name=d.name,
                passed=(d.fail_run is None or d.fail_run != k + 1),
                wall_time_ms=d.base_ms + d.step_ms * k,
            )
            for d in decls
        )
        return SuiteRun(results, sum(r.wall_time_ms for r in results))

    def install_packages(self, packages: Sequence[str]) -> BuildResult:
        return BuildResult(True, f"fake install: {' '.join(packages)}")
