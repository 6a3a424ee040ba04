"""Two-phase commit classification with a pair of chat models.

Phase 1 shows two models the commit message and any linked issue text,
never the diff, and collects a Yes/No/Maybe vote from each. Agreement on
Yes or on No settles the commit. Every other pair escalates to phase 2,
where a single model also sees the (possibly truncated) diff and must
answer Yes or No; that answer is final.

Prompts are packaged template files, fingerprinted so a stored entry can
pin exactly which wording produced its classification.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .backends import ChatBackend
from .errors import ConfigError, ContractViolation, UnparseableResponseError
from .harvest import CommitRecord

DEFAULT_PHASE1_BACKENDS = ("qwen2.5:7b", "qwen3:8b")
DEFAULT_PHASE2_BACKEND = "qwen3:8b"
DEFAULT_MAX_DIFF_BYTES = 64 * 1024
TRUNCATION_MARKER = "[... diff truncated ...]"
NO_ISSUE_PLACEHOLDER = "(no linked issue)"

_VOTE_TOKEN = re.compile(r"(?i)(?<!\w)(yes|no|maybe)(?!\w)")

_REPROMPT_PHASE1 = (
    "\n\nYour previous reply did not end with a clear answer. "
    "Reply with exactly one word: Yes, No, or Maybe."
)
_REPROMPT_PHASE2 = (
    "\n\nYour previous reply did not give a definite answer. "
    "Reply with exactly one word: Yes or No."
)


class VoteValue(str, Enum):
    YES = "yes"
    NO = "no"
    MAYBE = "maybe"


@dataclass(frozen=True)
class Vote:
    value: VoteValue
    backend_id: str
    raw_response: str

    def __post_init__(self) -> None:
        if not isinstance(self.value, VoteValue):
            raise ValueError(f"vote value must be a VoteValue, got {self.value!r}")
        if not self.backend_id:
            raise ValueError("backend_id must be non-empty")


@dataclass(frozen=True)
class ClassificationVerdict:
    phase1: tuple[Vote, Vote]
    phase2: Vote | None
    final: str
    decided_in_phase: int
    # (phase, sha256) of the prompts the votes were asked with
    prompt_fingerprints: tuple[tuple[str, str], ...] = field(
        default_factory=lambda: tuple(prompt_fingerprints().items())
    )

    def __post_init__(self) -> None:
        if self.final not in ("positive", "negative"):
            raise ValueError(f"final must be positive or negative, got {self.final!r}")
        if self.decided_in_phase not in (1, 2):
            raise ValueError("decided_in_phase must be 1 or 2")
        a, b = (v.value for v in self.phase1)
        agreed = a is b and a is not VoteValue.MAYBE
        if agreed != (self.decided_in_phase == 1):
            raise ValueError("decided_in_phase inconsistent with phase-1 agreement")
        if (self.phase2 is not None) != (self.decided_in_phase == 2):
            raise ValueError("phase2 vote present iff decided in phase 2")
        if self.phase2 is not None and self.phase2.value is VoteValue.MAYBE:
            raise ValueError("phase-2 vote cannot be Maybe")
        expect_positive = (
            a is VoteValue.YES and b is VoteValue.YES
            if self.decided_in_phase == 1
            else self.phase2.value is VoteValue.YES
        )
        if (self.final == "positive") != expect_positive:
            raise ValueError("final label inconsistent with votes")


@dataclass(frozen=True)
class BackendConfig:
    phase1_backends: tuple[str, str] = DEFAULT_PHASE1_BACKENDS
    phase2_backend: str = DEFAULT_PHASE2_BACKEND
    endpoint: str = ""
    temperature: float = 0.0
    max_diff_bytes: int = DEFAULT_MAX_DIFF_BYTES

    def __post_init__(self) -> None:
        if len(self.phase1_backends) != 2 or not all(self.phase1_backends):
            raise ConfigError("phase1_backends must be an ordered pair of non-empty ids")
        if not self.phase2_backend:
            raise ConfigError("phase2_backend must be non-empty")
        if self.temperature < 0:
            raise ConfigError("temperature must be non-negative")
        if self.max_diff_bytes < 1:
            raise ConfigError("max_diff_bytes must be positive")


# The packaged prompts cannot change while the process runs, so each is
# read once: every read builds fresh ``pathlib`` paths, and pathlib interns
# each component, spending slots of CPython's interned-string table.
@functools.cache
def _read_template(name: str) -> bytes:
    return resources.files("perfmine").joinpath("prompts", name).read_bytes()


def _load_template(name: str) -> str:
    return _read_template(name).decode("utf-8")


def prompt_fingerprints() -> dict[str, str]:
    """sha256 of each packaged prompt template, for embedding in manifests."""
    return {
        phase: hashlib.sha256(_read_template(name)).hexdigest()
        for phase, name in (("phase1", "phase1.txt"), ("phase2", "phase2.txt"))
    }


def parse_vote(text: str) -> VoteValue | None:
    """Last standalone yes/no/maybe token in the reply, or None."""
    matches = _VOTE_TOKEN.findall(text)
    if not matches:
        return None
    return VoteValue(matches[-1].lower())


def truncate_diff(diff_text: str, max_bytes: int) -> str:
    encoded = diff_text.encode("utf-8")
    if len(encoded) <= max_bytes:
        return diff_text
    head = encoded[:max_bytes].decode("utf-8", errors="ignore")
    return f"{head}\n{TRUNCATION_MARKER}"


def build_phase1_prompt(commit: CommitRecord) -> str:
    return _load_template("phase1.txt").format(
        message=commit.message.strip(),
        issue=(commit.linked_issue_text or NO_ISSUE_PLACEHOLDER).strip(),
    )


def build_phase2_prompt(commit: CommitRecord, diff_text: str, max_diff_bytes: int) -> str:
    return _load_template("phase2.txt").format(
        message=commit.message.strip(),
        issue=(commit.linked_issue_text or NO_ISSUE_PLACEHOLDER).strip(),
        diff=truncate_diff(diff_text, max_diff_bytes),
    )


def _ask(
    backend: ChatBackend,
    model: str,
    prompt: str,
    *,
    config: BackendConfig,
    context: dict,
    allowed: frozenset[VoteValue],
    reprompt_suffix: str,
) -> Vote:
    raw = backend.complete(
        model, prompt, temperature=config.temperature, context=dict(context, attempt=0)
    )
    value = parse_vote(raw)
    if value is None or value not in allowed:
        raw = backend.complete(
            model,
            prompt + reprompt_suffix,
            temperature=config.temperature,
            context=dict(context, attempt=1),
        )
        value = parse_vote(raw)
    if value is None or value not in allowed:
        raise UnparseableResponseError(
            f"backend {model} gave no usable answer after reprompt "
            f"(context {context}): {raw[:120]!r}"
        )
    return Vote(value=value, backend_id=model, raw_response=raw)


_PHASE1_ALLOWED = frozenset((VoteValue.YES, VoteValue.NO, VoteValue.MAYBE))
_PHASE2_ALLOWED = frozenset((VoteValue.YES, VoteValue.NO))


def classify_phase1(
    commit: CommitRecord, config: BackendConfig, backend: ChatBackend
) -> tuple[Vote, Vote]:
    """Collect one vote from each phase-1 model. The prompt has no diff."""
    prompt = build_phase1_prompt(commit)
    votes = []
    for slot, model in enumerate(config.phase1_backends):
        votes.append(
            _ask(
                backend,
                model,
                prompt,
                config=config,
                context={"sha": commit.sha, "phase": 1, "slot": slot},
                allowed=_PHASE1_ALLOWED,
                reprompt_suffix=_REPROMPT_PHASE1,
            )
        )
    return (votes[0], votes[1])


def classify_phase2(
    commit: CommitRecord, diff_text: str, config: BackendConfig, backend: ChatBackend
) -> Vote:
    """Tie-break with the diff included; Maybe is reprompted once, then an error."""
    prompt = build_phase2_prompt(commit, diff_text, config.max_diff_bytes)
    return _ask(
        backend,
        config.phase2_backend,
        prompt,
        config=config,
        context={"sha": commit.sha, "phase": 2, "slot": 0},
        allowed=_PHASE2_ALLOWED,
        reprompt_suffix=_REPROMPT_PHASE2,
    )


def phase1_agreement(phase1: tuple[Vote, Vote]) -> bool:
    a, b = (v.value for v in phase1)
    return a is b and a is not VoteValue.MAYBE


def decide(phase1: tuple[Vote, Vote], phase2: Vote | None) -> ClassificationVerdict:
    """Pure truth table over the phase-1 pair plus the optional tie-breaker."""
    agreed = phase1_agreement(phase1)
    if agreed and phase2 is not None:
        raise ContractViolation("phase2 vote supplied although phase 1 decided")
    if not agreed and phase2 is None:
        raise ContractViolation("phase2 vote required when phase-1 votes disagree")
    if agreed:
        final = "positive" if phase1[0].value is VoteValue.YES else "negative"
        return ClassificationVerdict(phase1=phase1, phase2=None, final=final, decided_in_phase=1)
    if phase2.value is VoteValue.MAYBE:
        raise ContractViolation("phase-2 vote must be Yes or No")
    final = "positive" if phase2.value is VoteValue.YES else "negative"
    return ClassificationVerdict(phase1=phase1, phase2=phase2, final=final, decided_in_phase=2)


DiffProvider = Callable[[CommitRecord], str]


def classify_commit(
    commit: CommitRecord,
    diff_provider: DiffProvider,
    config: BackendConfig,
    backend: ChatBackend,
) -> ClassificationVerdict:
    """Run the whole two-phase protocol for one structurally accepted commit.

    The diff is fetched lazily through ``diff_provider`` only when phase 1
    fails to agree, because most commits are settled without it.
    """
    phase1 = classify_phase1(commit, config, backend)
    if phase1_agreement(phase1):
        return decide(phase1, None)
    phase2 = classify_phase2(commit, diff_provider(commit), config, backend)
    return decide(phase1, phase2)


def verdict_to_dict(verdict: ClassificationVerdict) -> dict:
    """JSON-ready form used by the benchmark store."""

    def vote(v: Vote | None) -> dict | None:
        if v is None:
            return None
        return {"value": v.value.value, "backend_id": v.backend_id,
                "raw_response": v.raw_response}

    return {
        "phase1": [vote(v) for v in verdict.phase1],
        "phase2": vote(verdict.phase2),
        "final": verdict.final,
        "decided_in_phase": verdict.decided_in_phase,
        "prompt_fingerprints": dict(verdict.prompt_fingerprints),
    }


def verdict_from_dict(payload: Mapping) -> ClassificationVerdict:
    def vote(entry: Mapping | None) -> Vote | None:
        if entry is None:
            return None
        return Vote(
            value=VoteValue(entry["value"]),
            backend_id=entry["backend_id"],
            raw_response=entry["raw_response"],
        )

    phase1 = tuple(vote(v) for v in payload["phase1"])
    return ClassificationVerdict(
        phase1=phase1,
        phase2=vote(payload["phase2"]),
        final=payload["final"],
        decided_in_phase=payload["decided_in_phase"],
        prompt_fingerprints=tuple(payload["prompt_fingerprints"].items()),
    )
