"""Container runtime seam and its three implementations.

Everything the orchestrator and evaluator do to a container goes through
two small protocols: ``ContainerRuntime`` (start sessions, snapshot and
reopen images) and ``ContainerSession`` (check out trees, build, test,
patch, read/write files). Paths inside a session are POSIX strings under
``/work`` regardless of implementation.

Trees are always checked out on the host, where the mined clone is,
straight from its objects: a tree holds one commit's files and a
``SHA_MARKER`` file naming it, and no ``.git``, so neither sessions nor
their images carry an object store. The trees of one ``check_out`` are
written by one git process each, all running at once. Such a tree may
sit inside another git work tree, so ``git apply`` stops its search for
a repository at the tree's parent; otherwise it would take the
enclosing repository for the tree's own and apply nothing.

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
takes cpu and memory limits, which docker alone applies; a session
opened from an image runs without them. Implementations:

* ``DockerCliRuntime`` drives a real daemon through the ``docker``
  executable. A checkout is written to a host directory and copied in
  with one ``docker cp``. The process runner is injectable so unit tests
  can replay canned transcripts without a daemon.
* ``LocalProcessRuntime`` runs cmake and ctest directly on the host with
  a directory standing in for the container. Package installation is
  unsupported by design.
* ``FakeRuntime`` is a deterministic in-process double. Checkouts and
  patches are real git operations, but builds always succeed and test
  timings come from declarations planted in the source tree (see
  ``fake-timing`` below), so a fixture repository fully scripts its own
  measurements.

The local and fake runtimes keep each session in a directory of its own
and delete it when the session closes. A snapshot moves the session's
``ORIGINAL_DIR`` into the image with one rename and so ends the session:
every later call but ``close()`` raises ``ContractViolation``, and
``close()`` deletes the rest of ``/work``. The snapshot then clears the
write bits of every file in the image, and a session opened from it
gets the image's directories anew and its files as hard links, so
images outlive every session opened from them. ``copy_tree`` links the
same way. A file in a session is therefore changed by replacing it, as
``git apply`` does, never by writing into it: a build that writes in
place into a source file fails with ``EACCES``. Mode bits do not stop
a process running as root, so that guard holds only for unprivileged
runs.

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
import errno
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

from .errors import ContractViolation, GitError, RuntimeUnavailableError

WORK_ROOT = "/work"
ORIGINAL_DIR = f"{WORK_ROOT}/original"  # the one tree an image keeps
SHA_MARKER = ".perfmine-sha"
FAKE_TIMING_RE = re.compile(
    r"//\s*fake-timing:\s*(?P<name>\S+)\s+base_ms=(?P<base>[0-9.]+)"
    r"\s+step_ms=(?P<step>[0-9.]+)(?:\s+fail_run=(?P<fail>\d+))?"
)
_IMAGE_TAG_SAFE = re.compile(r"[^A-Za-z0-9_.-]")


def _checkout_argv(repo: str, dest: str, sha: str) -> list[str]:
    """One git process that writes commit ``sha`` of ``repo`` into ``dest``.

    A pathspec checkout moves no HEAD or ref, and the caller points
    ``GIT_INDEX_FILE`` at a fresh file, so the repository is untouched.
    Hooks are off, as a clone never ran the source's hooks either.
    """
    return ["git", "-C", repo, "-c", "core.hooksPath=/dev/null", f"--work-tree={dest}",
            "checkout", "--quiet", sha, "--", ":/"]


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

    def check_out(self, source: str, trees: Mapping[str, str]) -> None:
        """Write each ``dest: sha`` tree of the repository at the host path
        ``source``, with a ``SHA_MARKER`` file and no ``.git``."""
        ...

    def copy_tree(self, src: str, dest: str) -> None:
        """Make ``dest`` a copy of the tree at ``src``.

        On the host runtimes ``dest``'s directories are its own but its
        files are hard links to ``src``'s, which in a session opened from
        an image are the image's read-only files: change a file by
        replacing it, as ``git apply`` does. Docker copies the files.
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

        An image already stored under ``tag`` is replaced only once the
        new one is complete. After ``snapshot`` the only defined call on
        the session is ``close()``; to snapshot again, prepare a new
        session.
        """
        ...

    def has_image(self, tag: str) -> bool: ...


# ---------------------------------------------------------------------------
# Processes and checkouts, shared by every runtime


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


def _check_out_on_host(source: str, trees: Mapping[str, str], scratch: str) -> None:
    """Write each ``host directory: sha`` tree of the repository at ``source``.

    One git process per tree, all started before any is waited on; each
    has its own index file in ``scratch`` and only reads the repository's
    objects. Every path must be absolute, since git resolves
    ``--work-tree`` and ``GIT_INDEX_FILE`` after its ``-C``.
    """
    jobs = []
    for n, (dest, sha) in enumerate(trees.items()):
        os.makedirs(dest, exist_ok=True)
        jobs.append((sha, dest, os.path.join(scratch, f"checkout-{n}.index")))
    procs: list[subprocess.Popen] = []
    try:
        for sha, dest, index in jobs:
            procs.append(subprocess.Popen(
                _checkout_argv(source, dest, sha), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, errors="replace",
                env={**os.environ, "GIT_INDEX_FILE": index},
            ))
    finally:
        errors = [proc.communicate()[1] for proc in procs]
        for _, _, index in jobs:
            if os.path.exists(index):
                os.remove(index)
    for (sha, _, _), proc, stderr in zip(jobs, procs, errors):
        if proc.returncode != 0:
            raise GitError(f"checkout of {sha} from {source} failed: {stderr.strip()}")
    for sha, dest, _ in jobs:
        _write_text(os.path.join(dest, SHA_MARKER), sha + "\n")


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


# os.link failures that a plain copy of the file gets round: another file
# system, a file system without hard links, or a file at its link limit
_COPY_INSTEAD_OF_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP})


def _link_or_copy(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError as exc:
        if exc.errno not in _COPY_INSTEAD_OF_LINK:
            raise
        shutil.copy2(src, dst)


def _link_tree(src: str, dst: str) -> None:
    """Make ``dst`` a tree of new directories, with ``src``'s symlinks
    recreated as symlinks and its regular files hard-linked (or copied,
    where a link cannot be made)."""
    shutil.copytree(src, dst, symlinks=True, copy_function=_link_or_copy)


def _make_files_read_only(top: str) -> None:
    """Clear the write bits of every regular file under ``top``.

    Symlinks are never followed: one in a mined tree may point at a file
    outside it. Directories keep their modes, so the tree can be deleted.
    """
    with os.scandir(top) as entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                _make_files_read_only(entry.path)
            elif entry.is_file(follow_symlinks=False):
                mode = entry.stat(follow_symlinks=False).st_mode
                os.chmod(entry.path, stat.S_IMODE(mode) & ~0o222)


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

    def check_out(self, source: str, trees: Mapping[str, str]) -> None:
        # the clone is on the host, where the container cannot see it: write
        # the trees there, then copy them all in with one docker cp
        with tempfile.TemporaryDirectory(prefix="perfmine-checkout-") as staging:
            _check_out_on_host(
                source, {os.path.join(staging, d.lstrip("/")): sha for d, sha in trees.items()},
                staging,
            )
            os.chmod(staging, 0o755)  # its mode may be carried onto the container's /
            result = self._runtime._run(
                [self._runtime.docker_bin, "cp", f"{staging}/.", f"{self.session_id}:/"],
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
    """Session whose /work paths map onto a directory on the host.

    The root and every path below it are plain absolute ``str``. ``pathlib``
    interns every component of every path it builds, and each name that is
    not already interned (a session directory, a build directory, an image
    tag, a log file) spends a slot of CPython's interned-string table; a
    process that runs many sessions would keep resizing that table.
    """

    def __init__(self, root: str, session_id: str, base_image: str) -> None:
        self.root = os.path.abspath(root)
        self.session_id = session_id
        self.base_image = base_image
        self.snapshotted = False  # set by the snapshot, which takes the original away
        os.makedirs(os.path.join(self.root, "work"), exist_ok=True)

    def host_path(self, path: str) -> str:
        if self.snapshotted:
            raise ContractViolation(
                f"session {self.session_id} was snapshotted; only close() is defined"
            )
        if not path.startswith("/"):
            raise ValueError(f"session paths must be absolute POSIX paths: {path!r}")
        return os.path.join(self.root, path.lstrip("/"))

    exec_path = host_path

    def exec(self, argv: Sequence[str], input_text: str | None = None) -> RunnerResult:
        return _subprocess_runner(argv, input_text, COMMAND_TIMEOUT_S)

    def check_out(self, source: str, trees: Mapping[str, str]) -> None:
        _check_out_on_host(source, {self.host_path(d): sha for d, sha in trees.items()},
                           self.root)

    def copy_tree(self, src: str, dest: str) -> None:
        _link_tree(self.host_path(src), self.host_path(dest))

    def read_file(self, path: str) -> str:
        with open(self.host_path(path), encoding="utf-8") as handle:
            return handle.read()

    def path_exists(self, path: str) -> bool:
        return os.path.exists(self.host_path(path))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class _HostFsRuntimeBase:
    """Image store shared by the local and fake runtimes: plain directories."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self._session_counter = 0

    def _new_session_root(self) -> str:
        self._session_counter += 1
        name = f"s{self._session_counter}-{uuid.uuid4().hex[:8]}"
        root = os.path.join(self.state_dir, "sessions", name)
        os.makedirs(root)
        return root

    def _image_dir(self, tag: str) -> str:
        return os.path.join(self.state_dir, "images", _IMAGE_TAG_SAFE.sub("_", tag))

    def has_image(self, tag: str) -> bool:
        return os.path.isfile(os.path.join(self._image_dir(tag), "meta.json"))

    def _store_snapshot(self, session: _HostFsSession, tag: str, meta: dict) -> str:
        original = session.host_path(ORIGINAL_DIR)  # refuses a session already snapshotted
        # the image is assembled inside the session root, which close() deletes,
        # and moved into images/ only when complete; sessions/ and images/ share
        # the state directory, so every move is a rename
        staged = os.path.join(session.root, "image")
        os.makedirs(os.path.join(staged, "work"))
        os.rename(original, os.path.join(staged, "work", "original"))
        session.snapshotted = True
        _make_files_read_only(os.path.join(staged, "work"))
        _write_text(os.path.join(staged, "meta.json"), json.dumps({"tag": tag, **meta}, indent=2))
        image_dir = self._image_dir(tag)
        os.makedirs(os.path.dirname(image_dir), exist_ok=True)
        superseded = os.path.join(session.root, "superseded")
        if os.path.exists(image_dir):
            os.rename(image_dir, superseded)
        os.rename(staged, image_dir)
        shutil.rmtree(superseded, ignore_errors=True)
        return tag

    def _seed_from_image(self, tag: str, root: str) -> dict:
        """Fill the new session ``root`` from the image; on failure, delete ``root``."""
        image_dir = self._image_dir(tag)
        try:
            if not self.has_image(tag):
                raise RuntimeUnavailableError(f"no stored image tagged {tag} under {image_dir}")
            work = os.path.join(root, "work")
            shutil.rmtree(work, ignore_errors=True)
            _link_tree(os.path.join(image_dir, "work"), work)
            with open(os.path.join(image_dir, "meta.json"), encoding="utf-8") as handle:
                return json.load(handle)
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise


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
        root = self._new_session_root()
        return LocalSession(root, f"local-{os.path.basename(root)}", base_image)

    def open_image(self, tag: str) -> "LocalSession":
        root = self._new_session_root()
        meta = self._seed_from_image(tag, root)
        return LocalSession(root, f"local-{os.path.basename(root)}", meta.get("base_image", ""))

    def snapshot(self, session: "LocalSession", tag: str) -> str:
        return self._store_snapshot(session, tag, {"base_image": session.base_image})


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
        root = self._new_session_root()
        return FakeSession(self, root, f"fake-{os.path.basename(root)}", base_image)

    def open_image(self, tag: str) -> "FakeSession":
        session = self.start_session(tag)
        meta = self._seed_from_image(tag, session.root)
        session.base_image = meta.get("base_image", tag)
        session.installed_packages = list(meta.get("installed_packages", []))
        return session

    def snapshot(self, session: "FakeSession", tag: str) -> str:
        return self._store_snapshot(
            session,
            tag,
            {
                "base_image": session.base_image,
                "installed_packages": list(session.installed_packages),
            },
        )


class FakeSession(_HostFsSession):
    def __init__(self, runtime: FakeRuntime, root: str, session_id: str,
                 base_image: str) -> None:
        super().__init__(root, session_id, base_image)
        self._runtime = runtime
        self.installed_packages: list[str] = []
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
        os.makedirs(self.host_path(build_dir), exist_ok=True)
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
        self.installed_packages.extend(p for p in packages if p not in self.installed_packages)
        return BuildResult(True, f"fake install: {' '.join(packages)}")
