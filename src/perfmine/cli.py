"""Command line interface.

Subcommands: ``mine`` populates a benchmark store from repository
history, ``evaluate`` scores a candidate patch against a stored entry,
``inspect`` lists and filters stored entries, ``verify`` records a
human review decision.

Exit codes follow sysexits conventions where they apply:

* 0   success (for ``evaluate``: the candidate improves execution time)
* 10  evaluate only: functionally correct but no significant speedup
* 20  evaluate only: candidate fails to apply, build, or pass tests
* 64  usage or configuration error
* 65  data error (missing or malformed store content)
* 69  a required service is unavailable (container runtime, network)
* 70  internal error
* 77  authentication failure
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import traceback
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from .backends import ENDPOINT_ENV_VAR, TEMPERATURE, ChatBackend, HttpChatBackend, StubBackend
from .classifier import BackendConfig
from .discovery import DiscoveryConfig, GitHubApi, RepoDescriptor, search_repositories
from .errors import (
    AuthError,
    BackendError,
    ConfigError,
    GitError,
    PerfMineError,
    RateLimitError,
    ReviewError,
    RuntimeUnavailableError,
    SchemaError,
    StoreError,
    TransportError,
)
from .evaluate import VERDICT_BROKEN, VERDICT_FUNCTIONAL_ONLY, VERDICT_IMPROVES, evaluate
from .harvest import GitObjects, HarvestConfig, run_git
from .orchestrator import DEFAULT_MAX_REPAIR_ROUNDS, DEFAULT_RUNS
from .pipeline import (
    FunnelCounts,
    MineResult,
    MiningLimits,
    gate_with_runtime,
    local_descriptor,
    mine_repository,
)
from .runtime import DockerCliRuntime, FakeRuntime, LocalProcessRuntime
from .stats import StatConfig
from .store import EntryFilter, entry_to_dict, mark_verified, query, read_entry

EXIT_OK = 0
EXIT_FUNCTIONAL_ONLY = 10
EXIT_BROKEN = 20
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_UNAVAILABLE = 69
EXIT_INTERNAL = 70
EXIT_AUTH = 77

_VERDICT_EXIT = {
    VERDICT_IMPROVES: EXIT_OK,
    VERDICT_FUNCTIONAL_ONLY: EXIT_FUNCTIONAL_ONLY,
    VERDICT_BROKEN: EXIT_BROKEN,
}

log = logging.getLogger("perfmine")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; we promise 64."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_when(text: str) -> datetime:
    try:
        when = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ConfigError(f"not an ISO timestamp: {text!r}") from exc
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="perfmine", description=__doc__.split("\n\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    mine = sub.add_parser("mine", help="mine repositories into a store")
    mine.add_argument("--out", default="./perfmine-out", help="store directory (default %(default)s)")
    mine.add_argument("--local-repo", help="mine this local git checkout or bare clone instead of searching GitHub")
    mine.add_argument("--owner", help="repository owner label for --local-repo (default: local)")
    mine.add_argument("--name", help="repository name label for --local-repo (default: directory name)")
    mine.add_argument("--min-stars", type=int, default=300)
    mine.add_argument("--page-limit", type=int, default=10, help="GitHub search pages to fetch")
    mine.add_argument("--include-forks", action="store_true")
    mine.add_argument("--cache-dir", help="disk cache for GitHub responses")
    mine.add_argument("--since", default="2020-01-01T00:00:00Z", help="window start (ISO 8601)")
    mine.add_argument("--until", default="2025-12-31T23:59:59Z", help="window end (ISO 8601)")
    mine.add_argument("--max-files", type=int, default=20)
    mine.add_argument("--runs", type=int, default=DEFAULT_RUNS,
                      help="timed repetitions per version, first run discarded as warm-up")
    mine.add_argument("--max-repair-rounds", type=int, default=DEFAULT_MAX_REPAIR_ROUNDS)
    mine.add_argument("--delta", type=float, default=0.05, help="minimum relative improvement")
    mine.add_argument("--alpha", type=float, default=0.05, help="p-value bound (strict)")
    mine.add_argument("--phase1-backends", default=None,
                      help="comma-separated pair of model ids for first-stage screening")
    mine.add_argument("--phase2-backend", default=None, help="model id for the diff-reading stage")
    mine.add_argument("--max-diff-bytes", type=int, default=None,
                      help="diff truncation budget for classification")
    mine.add_argument("--llm-endpoint", default=None,
                      help=f"chat completion endpoint (default ${ENDPOINT_ENV_VAR})")
    mine.add_argument("--stub-backends", metavar="JSON",
                      help="serve scripted classifier replies from this file instead of a live endpoint")
    _runtime_flags(mine)
    mine.add_argument("--container-cpus", type=float, default=None)
    mine.add_argument("--container-memory", default=None)
    mine.set_defaults(func=cmd_mine)

    ev = sub.add_parser("evaluate", help="score a candidate patch")
    ev.add_argument("--store", default="./perfmine-out")
    ev.add_argument("--patch-id", required=True)
    ev.add_argument("--patch-file", required=True, help="unified diff to apply to the original version")
    ev.add_argument("--runs", type=int, default=None, help="override the entry's recorded run count")
    _runtime_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    ins = sub.add_parser("inspect", help="list stored entries")
    ins.add_argument("--store", default="./perfmine-out")
    ins.add_argument("--json", action="store_true", help="emit full manifests as a JSON array")
    ins.add_argument("--repo", help="filter by owner/name")
    ins.add_argument("--patch-id", help="show a single entry")
    group = ins.add_mutually_exclusive_group()
    group.add_argument("--multi-file", dest="multi_file", action="store_const", const=True)
    group.add_argument("--single-file", dest="multi_file", action="store_const", const=False)
    sig = ins.add_mutually_exclusive_group()
    sig.add_argument("--has-significant-test", dest="significant", action="store_const", const=True)
    sig.add_argument("--no-significant-test", dest="significant", action="store_const", const=False)
    ins.add_argument("--verified", choices=("unreviewed", "accepted", "rejected"))
    ins.set_defaults(func=cmd_inspect, multi_file=None, significant=None)

    ver = sub.add_parser("verify", help="record a review decision")
    ver.add_argument("--store", default="./perfmine-out")
    ver.add_argument("--patch-id", required=True)
    ver.add_argument("--decision", required=True, choices=("accepted", "rejected"))
    ver.add_argument("--note", default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def _runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runtime", choices=("docker", "local", "fake"), default="docker",
                        help="container runtime (default %(default)s)")
    parser.add_argument("--fake-runtime", action="store_true",
                        help="shorthand for --runtime fake (hermetic, no container engine)")


def _make_runtime(args, store_dir: Path):
    kind = "fake" if args.fake_runtime else args.runtime
    if kind == "fake":
        return FakeRuntime(state_dir=store_dir / "fake-runtime")
    if kind == "local":
        return LocalProcessRuntime(state_dir=store_dir / "local-runtime")
    return DockerCliRuntime()


def _make_backend(args) -> ChatBackend:
    if args.stub_backends:
        try:
            return StubBackend.from_file(args.stub_backends)
        except (OSError, TypeError, ValueError) as exc:  # TypeError: JSON that is no object
            raise ConfigError(f"cannot load --stub-backends {args.stub_backends}: {exc}") from exc
    return HttpChatBackend(endpoint=args.llm_endpoint)


# ---------------------------------------------------------------------------
# mine


def _mine_configs(args):
    try:
        discovery = DiscoveryConfig(
            min_stars=args.min_stars,
            page_limit=args.page_limit,
            include_forks=args.include_forks,
        )
        harvest = HarvestConfig(
            since=_parse_when(args.since),
            until=_parse_when(args.until),
            max_files=args.max_files,
        )
        backend_kwargs = {}
        if args.phase1_backends is not None:
            pair = tuple(p.strip() for p in args.phase1_backends.split(",") if p.strip())
            backend_kwargs["phase1_backends"] = pair
        if args.phase2_backend is not None:
            backend_kwargs["phase2_backend"] = args.phase2_backend
        if args.max_diff_bytes is not None:
            backend_kwargs["max_diff_bytes"] = args.max_diff_bytes
        backends = BackendConfig(**backend_kwargs)
        stats = StatConfig(delta=args.delta, alpha=args.alpha)
        limits = MiningLimits(
            runs=args.runs,
            max_repair_rounds=args.max_repair_rounds,
            container_cpus=args.container_cpus,
            container_memory=args.container_memory,
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return discovery, harvest, backends, stats, limits


def _echo_config(args, discovery, harvest, backends, stats, limits) -> None:
    runtime = "fake" if args.fake_runtime else args.runtime
    lines = [
        "effective config:",
        f"  min_stars = {discovery.min_stars}",
        f"  window = {harvest.since.isoformat()} .. {harvest.until.isoformat()}",
        f"  max_files = {harvest.max_files}",
        f"  runs = {limits.runs} (first run discarded as warm-up)",
        f"  delta = {stats.delta}",
        f"  alpha = {stats.alpha}",
        f"  phase1_backends = {', '.join(backends.phase1_backends)}",
        f"  phase2_backend = {backends.phase2_backend}",
        f"  temperature = {TEMPERATURE}",
        f"  max_diff_bytes = {backends.max_diff_bytes}",
        f"  max_repair_rounds = {limits.max_repair_rounds}",
        f"  runtime = {runtime}",
        f"  out = {args.out}",
    ]
    print("\n".join(lines))


def cmd_mine(args) -> int:
    discovery, harvest, backends, stats, limits = _mine_configs(args)
    _echo_config(args, discovery, harvest, backends, stats, limits)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runtime = _make_runtime(args, out_dir)
    backend = _make_backend(args)

    # each clone, and how to describe it once its head is known
    targets: list[tuple[Path, functools.partial[RepoDescriptor]]] = []
    issue_fetcher = None
    if args.local_repo:
        path = Path(args.local_repo)
        # git would look for a repository upward from any other directory,
        # and mine an enclosing one under this directory's name
        if not ((path / ".git").exists()
                or ((path / "HEAD").is_file() and (path / "objects").is_dir())):
            raise ConfigError(f"--local-repo is neither a git checkout nor a bare clone: {path}")
        owner = args.owner or "local"
        name = args.name or path.resolve().name
        targets.append((path, functools.partial(local_descriptor, owner=owner, name=name)))
    else:
        api = GitHubApi(cache_dir=args.cache_dir)
        issue_fetcher = _issue_fetcher(api)
        clones = out_dir / "clones"
        clones.mkdir(parents=True, exist_ok=True)
        for repo in search_repositories(discovery, api):
            dest = clones / f"{repo.owner}__{repo.name}"
            if not dest.exists():
                run_git(clones, "clone", f"https://github.com/{repo.full_name}.git", str(dest))
            targets.append((dest, functools.partial(replace, repo)))

    total = FunnelCounts()
    combined = MineResult()
    try:
        for clone, describe in targets:
            # one reader per clone resolves the head, and serves the gate and the mine;
            # everything is read from git objects, so a bare clone serves as well
            with GitObjects(clone) as objects:
                try:
                    head = objects.resolve("HEAD")
                except GitError as exc:
                    if not args.local_repo:
                        raise
                    raise ConfigError(f"--local-repo has no commit at HEAD: {exc}") from exc
                gated = gate_with_runtime(
                    describe(head_sha=head), runtime, objects=objects,
                    cpus=limits.container_cpus, memory=limits.container_memory,
                )
                if not gated.passes_gate:
                    print(f"skipping {gated.full_name}: head does not build and pass its tests")
                    continue
                result = mine_repository(
                    gated, clone,
                    harvest_config=harvest, backend_config=backends, stat_config=stats,
                    limits=limits, runtime=runtime, backend=backend, objects=objects,
                    out_dir=out_dir, issue_fetcher=issue_fetcher,
                )
            total = total.merged(result.funnel)
            combined.stored_patch_ids.extend(result.stored_patch_ids)
            combined.skipped.extend(result.skipped)
    finally:
        # what the sessions kept for each other, spare trees and store files,
        # stays for the whole mine and goes once here
        runtime.close()

    for sha, reason in combined.skipped:
        print(f"skipped {sha[:10]}: {reason}")
    for patch_id in combined.stored_patch_ids:
        print(f"stored {patch_id}")
    print(total.line())
    return EXIT_OK


def _issue_fetcher(api: GitHubApi):
    def fetch(owner: str, name: str, number: int) -> str | None:
        payload = api.get_json(f"/repos/{owner}/{name}/issues/{number}")
        title = payload.get("title") or ""
        body = payload.get("body") or ""
        text = f"{title}\n\n{body}".strip()
        return text or None

    return fetch


# ---------------------------------------------------------------------------
# evaluate / inspect / verify


def cmd_evaluate(args) -> int:
    store_dir = Path(args.store)
    patch_file = Path(args.patch_file)
    if not patch_file.is_file():
        raise ConfigError(f"patch file does not exist: {patch_file}")
    try:
        with open(patch_file, encoding="utf-8", newline="") as handle:  # keep CRLF lines
            diff_text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"patch file is not UTF-8: {patch_file}: {exc}") from exc
    runtime = _make_runtime(args, store_dir)
    report = evaluate(args.patch_id, diff_text, store_dir, runtime, runs=args.runs)
    for evidence in report.timing:
        r = evidence.result
        print(
            f"test {evidence.series.test_name}: p={r.p_value:.6g} "
            f"improvement={r.relative_improvement:+.2%} "
            f"{'significant' if r.significant else 'not significant'}"
        )
    print(f"verdict: {report.verdict}")
    return _VERDICT_EXIT[report.verdict]


def cmd_inspect(args) -> int:
    store_dir = Path(args.store)
    if not store_dir.is_dir():
        raise StoreError(f"store directory does not exist: {store_dir}")
    if args.patch_id:
        entries = [read_entry(store_dir, args.patch_id)]
        errors: list[tuple[str, str]] = []
    else:
        entry_filter = EntryFilter(
            repo=args.repo,
            multi_file=args.multi_file,
            has_significant_test=args.significant,
            verified=args.verified,
        )
        found = query(store_dir, entry_filter)
        entries, errors = list(found.entries), list(found.errors)
    for path, message in errors:
        print(f"warning: {path}: {message}", file=sys.stderr)
    if args.json:
        _print_json_array(entry_to_dict(e) for e in entries)
        return EXIT_OK
    if not entries:
        print("no entries")
        return EXIT_OK
    for e in entries:
        significant = "significant" if e.has_significant_test else "no-significant-test"
        files = len(e.commit.changes)
        print(f"{e.patch_id}  {e.repo_full_name}  files={files}  {significant}  {e.verified}")
    return EXIT_OK


def _print_json_array(items) -> None:
    """Print what ``json.dumps(list(items), indent=2, sort_keys=True)`` would,
    one item at a time, so that the whole array never sits in memory."""
    out = sys.stdout
    first = True
    for item in items:
        body = json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n  ")
        out.write(("[\n  " if first else ",\n  ") + body)
        first = False
    out.write("[]\n" if first else "\n]\n")


def cmd_verify(args) -> int:
    updated = mark_verified(Path(args.store), args.patch_id, args.decision, note=args.note)
    print(f"{updated.patch_id}: {updated.verified}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except AuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUTH
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StoreError, SchemaError, ReviewError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RuntimeUnavailableError, TransportError, RateLimitError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except PerfMineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
