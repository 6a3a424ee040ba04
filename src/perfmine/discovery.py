"""GitHub repository discovery and gating.

Finds candidate C++ projects through the hosting API's search endpoint,
then checks each one against the gates the rest of the pipeline relies
on: a root ``CMakeLists.txt``, at least one registered CMake test, and a
green test run at the current head.

The HTTP layer is a small injected callable so tests can replay canned
transcripts, and every response is cached on disk keyed by request URL
for reproducible reruns.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlencode

from .errors import (
    AuthError,
    ConfigError,
    ContractViolation,
    GitError,
    RateLimitError,
    RuntimeUnavailableError,
    TransportError,
)
from .harvest import run_git

GITHUB_API_BASE = "https://api.github.com"
TOKEN_ENV_VAR = "GITHUB_TOKEN"
LANGUAGE = "C++"  # the primary language a searched repository must have
REQUEST_TIMEOUT_S = 30.0
_PER_PAGE = 100


class HeadTestsState(str, Enum):
    """Outcome of running the test suite at a repository's head."""

    UNTESTED = "untested"
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class RepoDescriptor:
    """One candidate repository and the gate results known so far."""

    owner: str
    name: str
    stars: int
    primary_language: str
    default_branch: str
    head_sha: str = ""
    has_root_cmake: bool = False
    has_cmake_tests: bool = False
    head_tests_pass: HeadTestsState = HeadTestsState.UNTESTED

    def __post_init__(self) -> None:
        for label, value in (("owner", self.owner), ("name", self.name)):
            if not value:
                raise ValueError(f"{label} must be non-empty")
            if "/" in value or "\\" in value:
                raise ValueError(f"{label} must not contain path separators: {value!r}")
        if self.stars < 0:
            raise ValueError("stars must be non-negative")
        if self.head_sha and not _is_hex40(self.head_sha):
            raise ValueError(f"head_sha must be 40 lowercase hex chars: {self.head_sha!r}")

    @property
    def full_name(self) -> str:
        return f"{self.owner}/{self.name}"

    @property
    def passes_gate(self) -> bool:
        return (
            self.has_root_cmake
            and self.has_cmake_tests
            and self.head_tests_pass is HeadTestsState.PASS
        )


def _is_hex40(value: str) -> bool:
    return len(value) == 40 and all(c in "0123456789abcdef" for c in value)


@dataclass(frozen=True)
class DiscoveryConfig:
    min_stars: int = 300
    page_limit: int = 10
    include_forks: bool = False

    def __post_init__(self) -> None:
        if self.min_stars < 0:
            raise ConfigError("min_stars must be non-negative")
        if self.page_limit < 1:
            raise ConfigError("page_limit must be at least 1")


class TransportResponse(NamedTuple):
    status: int
    headers: Mapping[str, str]
    body: str


Transport = Callable[[str, Mapping[str, str], float], TransportResponse]


def _requests_transport(url: str, headers: Mapping[str, str], timeout: float) -> TransportResponse:
    import requests

    try:
        resp = requests.get(url, headers=dict(headers), timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    return TransportResponse(resp.status_code, dict(resp.headers), resp.text)


class GitHubApi:
    """Minimal GitHub REST client with a disk cache.

    Responses are cached keyed by the full request URL so a crawl can be
    replayed without network access or a token. Requests are serialized
    through a lock; rate-limit responses surface the server's suggested
    wait as ``RateLimitError.retry_after``.
    """

    def __init__(
        self,
        token: str | None = None,
        cache_dir: str | Path | None = None,
        transport: Transport | None = None,
        base_url: str = GITHUB_API_BASE,
    ) -> None:
        self.token = token if token is not None else os.environ.get(TOKEN_ENV_VAR, "")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._transport = transport if transport is not None else _requests_transport
        self.base_url = base_url.rstrip("/")
        self._lock = threading.Lock()

    def get_json(self, path: str, params: Mapping[str, object] | None = None) -> object:
        url = self.base_url + path
        if params:
            url += "?" + urlencode(sorted((k, str(v)) for k, v in params.items()))
        cached = self._cache_read(url)
        if cached is not None:
            return cached[0]

        if not self.token:
            raise AuthError(
                f"no API token: set {TOKEN_ENV_VAR} or point the client at a warm cache"
            )
        headers = {
            "Accept": "application/vnd.github+json",
            "Authorization": f"Bearer {self.token}",
        }
        with self._lock:
            response = self._transport(url, headers, REQUEST_TIMEOUT_S)
        self._raise_for_status(url, response)
        try:
            payload = json.loads(response.body)
        except ValueError as exc:
            raise TransportError(f"non-JSON response from {url}") from exc
        self._cache_write(url, payload)
        return payload

    @staticmethod
    def _raise_for_status(url: str, response: TransportResponse) -> None:
        if response.status in (401,):
            raise AuthError(f"authentication rejected for {url} (invalid token?)")
        if response.status in (403, 429):
            headers = {k.lower(): v for k, v in response.headers.items()}
            if response.status == 429 or headers.get("x-ratelimit-remaining") == "0":
                raise RateLimitError(
                    f"rate limit exhausted for {url}",
                    retry_after=_retry_after_seconds(headers),
                )
            raise AuthError(f"access forbidden for {url}")
        if response.status != 200:
            raise TransportError(f"HTTP {response.status} from {url}")

    def _cache_path(self, url: str) -> Path | None:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(url.encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def _cache_read(self, url: str) -> tuple[object] | None:
        path = self._cache_path(url)
        if path is None or not path.is_file():
            return None
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        return (wrapper["body"],)

    def _cache_write(self, url: str, payload: object) -> None:
        path = self._cache_path(url)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"url": url, "body": payload}, handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

def _retry_after_seconds(lower_headers: Mapping[str, str]) -> float | None:
    value = lower_headers.get("retry-after")
    if value is not None:
        try:
            return float(value)
        except ValueError:
            return None
    reset = lower_headers.get("x-ratelimit-reset")
    if reset is not None:
        try:
            import time

            return max(0.0, float(reset) - time.time())
        except ValueError:
            return None
    return None


def search_repositories(config: DiscoveryConfig, api: GitHubApi) -> list[RepoDescriptor]:
    """Crawl the search endpoint and return descriptors passing the star gate.

    Only the stars and language requirements are checked here; CMake and
    test gates stay unpopulated until ``gate_repository`` runs. Results
    are deduplicated by (owner, name) and sorted the same way.
    """
    query = f"language:{LANGUAGE} stars:>={config.min_stars}"
    seen: dict[tuple[str, str], RepoDescriptor] = {}
    for page in range(1, config.page_limit + 1):
        payload = api.get_json(
            "/search/repositories", {"q": query, "per_page": _PER_PAGE, "page": page}
        )
        items = payload.get("items", []) if isinstance(payload, dict) else []
        for item in items:
            descriptor = _descriptor_from_item(item, config)
            if descriptor is not None:
                seen.setdefault((descriptor.owner, descriptor.name), descriptor)
        if len(items) < _PER_PAGE:
            break
    return [seen[key] for key in sorted(seen)]


def _descriptor_from_item(item: object, config: DiscoveryConfig) -> RepoDescriptor | None:
    if not isinstance(item, dict):
        return None
    owner = (item.get("owner") or {}).get("login", "")
    name = item.get("name", "")
    stars = item.get("stargazers_count", 0)
    language = item.get("language") or ""
    if not owner or not name:
        return None
    if stars < config.min_stars or language != LANGUAGE:
        return None
    if item.get("fork", False) and not config.include_forks:
        return None
    return RepoDescriptor(
        owner=owner,
        name=name,
        stars=stars,
        primary_language=language,
        default_branch=item.get("default_branch", "main"),
    )


class HeadCheck(NamedTuple):
    """What one configure-build-test pass learned about a worktree."""

    has_tests: bool
    tests_pass: bool


HeadTester = Callable[[Path], HeadCheck]


def gate_repository(
    repo: RepoDescriptor, worktree: str | Path, tester: HeadTester
) -> RepoDescriptor:
    """Populate the CMake and test gates from a checked-out worktree.

    ``tester`` configures the project, enumerates its registered tests,
    and runs them once; an exception it raises is recorded as a failing
    head rather than propagated, because a repository that cannot build
    is simply not a candidate. The exceptions are an unreachable runtime
    and a broken call contract: they say nothing about the repository,
    and every later repository would fail the same way.
    """
    worktree = Path(worktree)
    if not worktree.is_dir():
        raise GitError(f"worktree does not exist: {worktree}")
    if repo.head_sha and (worktree / ".git").exists():
        actual = run_git(worktree, "rev-parse", "HEAD").strip()
        if actual != repo.head_sha:
            raise GitError(
                f"worktree HEAD {actual} does not match descriptor head_sha {repo.head_sha}"
            )

    has_root_cmake = (worktree / "CMakeLists.txt").is_file()
    if not has_root_cmake:
        return replace(repo, has_root_cmake=False, has_cmake_tests=False,
                       head_tests_pass=HeadTestsState.UNTESTED)

    try:
        check = tester(worktree)
    except (RuntimeUnavailableError, ContractViolation):
        raise
    except Exception:
        return replace(repo, has_root_cmake=True, has_cmake_tests=False,
                       head_tests_pass=HeadTestsState.FAIL)
    state = HeadTestsState.PASS if check.tests_pass else HeadTestsState.FAIL
    if not check.has_tests:
        state = HeadTestsState.UNTESTED
    return replace(
        repo,
        has_root_cmake=True,
        has_cmake_tests=check.has_tests,
        head_tests_pass=state,
    )
