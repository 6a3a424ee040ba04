from __future__ import annotations

import json
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfmine.discovery import (
    DiscoveryConfig,
    GitHubApi,
    HeadCheck,
    HeadTestsState,
    RepoDescriptor,
    TransportResponse,
    gate_repository,
    search_repositories,
)
from perfmine.errors import (
    AuthError,
    ConfigError,
    ContractViolation,
    RateLimitError,
    RuntimeUnavailableError,
    TransportError,
)


def repo_item(owner, name, stars, language="C++", fork=False):
    return {
        "owner": {"login": owner},
        "name": name,
        "stargazers_count": stars,
        "language": language,
        "default_branch": "main",
        "fork": fork,
    }


class ScriptedTransport:
    """Maps page number -> list of items; records every URL requested."""

    def __init__(self, pages, status=200, headers=None):
        self.pages = pages
        self.status = status
        self.headers = headers or {}
        self.urls = []

    def __call__(self, url, headers, timeout):
        self.urls.append(url)
        if self.status != 200:
            return TransportResponse(self.status, self.headers, "")
        page = int(parse_qs(urlparse(url).query)["page"][0])
        items = self.pages.get(page, [])
        body = json.dumps({"total_count": sum(map(len, self.pages.values())), "items": items})
        return TransportResponse(200, {}, body)


def make_api(pages, tmp_path=None, **kwargs):
    transport = ScriptedTransport(pages) if isinstance(pages, dict) else pages
    return (
        GitHubApi(token="t", cache_dir=tmp_path, transport=transport, **kwargs),
        transport,
    )


# ---------------------------------------------------------------------------
# search_repositories


def test_search_star_threshold():
    api, _ = make_api({1: [repo_item("a", "low", 299), repo_item("b", "high", 306)]})
    repos = search_repositories(DiscoveryConfig(min_stars=300), api)
    assert [r.full_name for r in repos] == ["b/high"]
    assert repos[0].stars == 306


def test_search_empty_result():
    api, _ = make_api({1: []})
    assert search_repositories(DiscoveryConfig(), api) == []


def test_search_dedupes_across_pages():
    dup = repo_item("acme", "lib", 500)
    filler = [repo_item("z", f"r{i}", 400) for i in range(99)]
    api, _ = make_api({1: [dup] + filler, 2: [dup]})
    repos = search_repositories(DiscoveryConfig(page_limit=3), api)
    assert sum(1 for r in repos if r.full_name == "acme/lib") == 1


def test_search_sorted_and_language_filtered():
    api, _ = make_api(
        {
            1: [
                repo_item("zeta", "one", 400),
                repo_item("alpha", "two", 400),
                repo_item("alpha", "aaa", 400),
                repo_item("mid", "rusty", 900, language="Rust"),
            ]
        }
    )
    repos = search_repositories(DiscoveryConfig(), api)
    assert [r.full_name for r in repos] == ["alpha/aaa", "alpha/two", "zeta/one"]


def test_search_excludes_forks_by_default():
    items = [repo_item("a", "orig", 400), repo_item("b", "copy", 400, fork=True)]
    api, _ = make_api({1: items})
    assert [r.full_name for r in search_repositories(DiscoveryConfig(), api)] == ["a/orig"]
    api, _ = make_api({1: items})
    both = search_repositories(DiscoveryConfig(include_forks=True), api)
    assert [r.full_name for r in both] == ["a/orig", "b/copy"]


def test_search_respects_page_limit():
    full = [repo_item("o", f"r{i}", 400) for i in range(100)]
    api, transport = make_api({1: full, 2: full, 3: full})
    search_repositories(DiscoveryConfig(page_limit=2), api)
    assert len(transport.urls) == 2


def test_search_stops_on_short_page():
    api, transport = make_api({1: [repo_item("o", "r", 400)]})
    search_repositories(DiscoveryConfig(page_limit=5), api)
    assert len(transport.urls) == 1


@given(st.integers(0, 1000), st.integers(0, 1000))
def test_search_monotone_in_min_stars(lo, hi):
    lo, hi = sorted((lo, hi))
    items = [repo_item("o", f"r{s}", s) for s in (0, 150, 299, 300, 306, 999)]
    api_lo, _ = make_api({1: items})
    api_hi, _ = make_api({1: items})
    at_lo = {r.full_name for r in search_repositories(DiscoveryConfig(min_stars=lo), api_lo)}
    at_hi = {r.full_name for r in search_repositories(DiscoveryConfig(min_stars=hi), api_hi)}
    assert at_hi <= at_lo


def test_search_deterministic_replay(tmp_path):
    items = [repo_item("b", "two", 310), repo_item("a", "one", 305)]
    api, transport = make_api({1: items}, tmp_path=tmp_path / "cache")
    first = search_repositories(DiscoveryConfig(), api)
    # second run: same cache dir, transport that would fail if consulted
    api2 = GitHubApi(token="", cache_dir=tmp_path / "cache", transport=None)
    second = search_repositories(DiscoveryConfig(), api2)
    assert first == second
    assert len(transport.urls) == 1


# ---------------------------------------------------------------------------
# GitHubApi error paths


def test_api_missing_token_without_cache():
    api = GitHubApi(token="", transport=ScriptedTransport({1: []}))
    with pytest.raises(AuthError):
        api.get_json("/search/repositories", {"page": 1})


def test_api_invalid_token():
    api, _ = make_api(ScriptedTransport({}, status=401))
    with pytest.raises(AuthError):
        api.get_json("/x")


def test_api_rate_limit_retry_after():
    transport = ScriptedTransport(
        {}, status=403, headers={"X-RateLimit-Remaining": "0", "Retry-After": "17"}
    )
    api, _ = make_api(transport)
    with pytest.raises(RateLimitError) as exc_info:
        api.get_json("/x")
    assert exc_info.value.retry_after == 17.0


def test_api_transport_error_on_5xx():
    api, _ = make_api(ScriptedTransport({}, status=502))
    with pytest.raises(TransportError):
        api.get_json("/x")


def test_api_cache_write_then_rename(tmp_path):
    api, _ = make_api({1: [repo_item("a", "b", 400)]}, tmp_path=tmp_path)
    api.get_json("/search/repositories", {"q": "x", "per_page": 100, "page": 1})
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    assert not list(tmp_path.glob("*.tmp"))
    wrapper = json.loads(files[0].read_text())
    assert set(wrapper) == {"url", "body"}


def test_config_validation():
    with pytest.raises(ConfigError):
        DiscoveryConfig(min_stars=-1)
    with pytest.raises(ConfigError):
        DiscoveryConfig(page_limit=0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RepoDescriptor(owner="", name="x", stars=1, primary_language="C++", default_branch="m")
    with pytest.raises(ValueError):
        RepoDescriptor(owner="a/b", name="x", stars=1, primary_language="C++", default_branch="m")
    with pytest.raises(ValueError):
        RepoDescriptor(owner="a", name="x", stars=-1, primary_language="C++", default_branch="m")
    with pytest.raises(ValueError):
        RepoDescriptor(
            owner="a", name="x", stars=1, primary_language="C++", default_branch="m",
            head_sha="ABC",
        )


# ---------------------------------------------------------------------------
# gate_repository


def make_repo(**kwargs):
    defaults = dict(owner="acme", name="lib", stars=400, primary_language="C++",
                    default_branch="main")
    defaults.update(kwargs)
    return RepoDescriptor(**defaults)


def test_gate_missing_root_cmake():
    def tester(root_cmake):
        raise AssertionError("a head without a root CMakeLists.txt is not built")

    gated = gate_repository(make_repo(), None, tester)
    assert not gated.has_root_cmake
    assert not gated.passes_gate
    assert gated.head_tests_pass is HeadTestsState.UNTESTED


def test_gate_all_green():
    seen = []

    def tester(root_cmake):
        seen.append(root_cmake)
        return HeadCheck(True, True)

    gated = gate_repository(make_repo(), "project(x)\nenable_testing()\n", tester)
    assert seen == ["project(x)\nenable_testing()\n"]
    assert gated.has_root_cmake and gated.has_cmake_tests
    assert gated.head_tests_pass is HeadTestsState.PASS
    assert gated.passes_gate


def test_gate_failing_tests():
    gated = gate_repository(make_repo(), "project(x)\n", lambda root_cmake: HeadCheck(True, False))
    assert gated.head_tests_pass is HeadTestsState.FAIL
    assert not gated.passes_gate


def test_gate_no_registered_tests():
    gated = gate_repository(make_repo(), "project(x)\n",
                            lambda root_cmake: HeadCheck(False, False))
    assert not gated.has_cmake_tests
    assert gated.head_tests_pass is HeadTestsState.UNTESTED
    assert not gated.passes_gate


def test_gate_tester_crash_means_fail():
    def boom(root_cmake):
        raise RuntimeError("compiler exploded")

    gated = gate_repository(make_repo(), "project(x)\n", boom)
    assert gated.head_tests_pass is HeadTestsState.FAIL
    assert not gated.passes_gate


@pytest.mark.parametrize("error", [RuntimeUnavailableError, ContractViolation])
def test_gate_propagates_runtime_and_contract_errors(error):
    def unreachable(root_cmake):
        raise error("no runtime at unix:///nowhere")

    with pytest.raises(error):
        gate_repository(make_repo(), "project(x)\n", unreachable)
