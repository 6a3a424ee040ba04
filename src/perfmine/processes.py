"""Running one command to its end, every runtime's way of starting a process.

``_subprocess_runner`` starts the command in a process group of its own,
writes its input and drains both of its outputs in one ``selectors``
loop against a deadline, and learns of its exit in the same loop from a
pidfd (``os.pidfd_open``, Linux 5.3 or newer), so it returns as soon as
the pipes have ended and the process has exited. ``Popen.communicate``
with a timeout instead polls ``waitpid`` and sleeps 1, 2, 4 ... 50 ms
between polls, and a command such as git closes its output before it
exits, so the first poll misses. Where no pidfd can be opened (another
platform, an older kernel, a seccomp filter), the loop ends on the pipes
alone and the exit is polled for, as ``Popen.wait`` does.

Output is decoded as a text-mode ``Popen`` decodes it: UTF-8 with
``errors="replace"``, then ``\\r\\n`` and ``\\r`` become ``\\n``.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import signal
import subprocess
import time
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple


class RunnerResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


Runner = Callable[..., RunnerResult]

_READ_SIZE = 1 << 16
# what subprocess itself selects with: poll(2) needs no descriptor of its own
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)


def _subprocess_runner(
    argv: Sequence[str], input_text: str | None, timeout: float,
    env: Mapping[str, str] | None = None,
) -> RunnerResult:
    """Run one command in a process group of its own.

    ``env`` adds variables to this process's environment for the command.
    A command still running after ``timeout`` fails with code 124. Then,
    or when the caller is interrupted (Ctrl-C reaches only the caller's
    group), the whole group is killed, so a hung ctest takes its test
    processes with it.
    """
    with subprocess.Popen(
        list(argv), stdin=None if input_text is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        env=None if env is None else {**os.environ, **env},
    ) as proc:
        try:
            stdout, stderr = _communicate(
                proc, None if input_text is None else input_text.encode("utf-8", "replace"),
                time.monotonic() + timeout)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return RunnerResult(124, "", f"{' '.join(argv)} timed out after {timeout:g} s")
    return RunnerResult(proc.returncode, _decode(stdout), _decode(stderr))


def _communicate(proc: subprocess.Popen, data: bytes | None,
                 deadline: float) -> tuple[bytes, bytes]:
    """Write ``data`` to the process, read both outputs to their end and reap
    it, or raise ``subprocess.TimeoutExpired`` at ``deadline``."""
    stdout, stderr = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {stdout: [], stderr: []}
    pidfd = _pidfd(proc.pid)
    try:
        with _Selector() as selector:
            for fd in chunks:
                selector.register(fd, selectors.EVENT_READ)
            if pidfd is not None:
                selector.register(pidfd, selectors.EVENT_READ)
            stdin, offset = None, 0
            if data:
                stdin = proc.stdin.fileno()
                os.set_blocking(stdin, False)
                selector.register(stdin, selectors.EVENT_WRITE)
            elif proc.stdin is not None:
                proc.stdin.close()
            while selector.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(proc.args, 0)
                for key, _ in selector.select(remaining):
                    fd = key.fd
                    if fd == stdin:
                        try:
                            offset += os.write(fd, memoryview(data)[offset:offset + _READ_SIZE])
                        except BrokenPipeError:  # the command stopped reading
                            offset = len(data)
                        if offset >= len(data):
                            selector.unregister(fd)
                            proc.stdin.close()
                    elif fd == pidfd:  # readable once the process has exited
                        selector.unregister(fd)
                    else:
                        chunk = os.read(fd, _READ_SIZE)
                        if chunk:
                            chunks[fd].append(chunk)
                        else:
                            selector.unregister(fd)
    finally:
        if pidfd is not None:
            os.close(pidfd)
    # with a pidfd the process has exited and this reaps it at once; without
    # one this polls, sleeping between polls
    proc.wait(max(deadline - time.monotonic(), 0.0))
    return b"".join(chunks[stdout]), b"".join(chunks[stderr])


def _pidfd(pid: int) -> int | None:
    """A descriptor that reads as ready once ``pid`` exits, or None where the
    platform or kernel gives none."""
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):
        return None


def _decode(data: bytes) -> str:
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
