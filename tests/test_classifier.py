from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfmine.backends import StubBackend
from perfmine.classifier import (
    BackendConfig,
    ClassificationVerdict,
    TRUNCATION_MARKER,
    Vote,
    VoteValue,
    build_phase1_prompt,
    classify_commit,
    classify_phase1,
    classify_phase2,
    decide,
    parse_vote,
    prompt_fingerprints,
    truncate_diff,
)
from perfmine.errors import (
    BackendError,
    ConfigError,
    ContractViolation,
    UnparseableResponseError,
)
from perfmine.harvest import CommitRecord, FileChange

SHA = "c" * 40
CFG = BackendConfig()


def make_commit(message="Speed up hot loop", issue=None) -> CommitRecord:
    return CommitRecord(
        sha=SHA,
        parent_sha="d" * 40,
        author_timestamp=datetime(2023, 1, 1, tzinfo=timezone.utc),
        message=message,
        changes=(FileChange(path="src/a.cpp", change_kind="modified"),),
        linked_issue_text=issue,
    )


def vote(value, backend="m", raw="raw") -> Vote:
    return Vote(value=VoteValue(value), backend_id=backend, raw_response=raw)


# ---------------------------------------------------------------------------
# parse_vote


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Yes", "yes"),
        ("no", "no"),
        ("MAYBE", "maybe"),
        ("I considered it carefully.\n\nYes", "yes"),
        ("Yes, at first glance. But on reflection: No", "no"),
        ("The word yesterday contains it. No", "no"),
        ("Answer: Maybe?", "maybe"),
        ("yes/no", "no"),
    ],
)
def test_parse_vote_finds_last_standalone_token(text, expected):
    assert parse_vote(text) is VoteValue(expected)


@pytest.mark.parametrize("text", ["", "I cannot决定", "Yesterday nothing", "nope", "yes_sir"])
def test_parse_vote_rejects_embedded_or_missing(text):
    assert parse_vote(text) is None


# ---------------------------------------------------------------------------
# decide: all 9 phase-1 pairs


@pytest.mark.parametrize(
    "a,b,tiebreak,final,phase",
    [
        ("yes", "yes", None, "positive", 1),
        ("no", "no", None, "negative", 1),
        ("yes", "no", "yes", "positive", 2),
        ("yes", "no", "no", "negative", 2),
        ("no", "yes", "yes", "positive", 2),
        ("yes", "maybe", "yes", "positive", 2),
        ("maybe", "yes", "no", "negative", 2),
        ("no", "maybe", "yes", "positive", 2),
        ("maybe", "no", "no", "negative", 2),
        ("maybe", "maybe", "yes", "positive", 2),
        ("maybe", "maybe", "no", "negative", 2),
    ],
)
def test_decide_truth_table(a, b, tiebreak, final, phase):
    phase2 = vote(tiebreak) if tiebreak else None
    verdict = decide((vote(a), vote(b)), phase2)
    assert verdict.final == final
    assert verdict.decided_in_phase == phase
    assert (verdict.phase2 is not None) == (phase == 2)


def test_decide_contract_violations():
    with pytest.raises(ContractViolation):
        decide((vote("yes"), vote("yes")), vote("no"))  # phase 1 already decided
    with pytest.raises(ContractViolation):
        decide((vote("yes"), vote("no")), None)  # tie-break required
    with pytest.raises(ContractViolation):
        decide((vote("maybe"), vote("maybe")), None)  # Maybe/Maybe escalates too
    with pytest.raises(ContractViolation):
        decide((vote("yes"), vote("no")), vote("maybe"))  # phase 2 must commit


def test_verdict_invariants_enforced():
    with pytest.raises(ValueError):
        ClassificationVerdict(
            phase1=(vote("yes"), vote("yes")), phase2=None, final="negative", decided_in_phase=1
        )
    with pytest.raises(ValueError):
        ClassificationVerdict(
            phase1=(vote("yes"), vote("no")), phase2=None, final="negative", decided_in_phase=1
        )


# ---------------------------------------------------------------------------
# phase 1


def test_phase1_agreement_yes():
    stub = StubBackend({SHA: "Yes"})
    votes = classify_phase1(make_commit(), CFG, stub)
    assert [v.value for v in votes] == [VoteValue.YES, VoteValue.YES]
    assert [v.backend_id for v in votes] == list(CFG.phase1_backends)


def test_phase1_scripted_maybe_pair():
    stub = StubBackend({SHA: {"phase1:0": "Maybe", "phase1:1": "Hmm. Maybe"}})
    votes = classify_phase1(make_commit(), CFG, stub)
    assert [v.value for v in votes] == [VoteValue.MAYBE, VoteValue.MAYBE]


def test_phase1_prompts_contain_message_and_issue_never_diff():
    stub = StubBackend({SHA: "Yes"})
    commit = make_commit(message="Cache token table", issue="lookup is slow on issue #9")
    classify_phase1(commit, CFG, stub)
    assert len(stub.calls) == 2
    for call in stub.calls:
        assert "Cache token table" in call.prompt
        assert "lookup is slow" in call.prompt
        assert "diff --git" not in call.prompt
        assert "Code diff" not in call.prompt


def test_phase1_unparseable_then_recovered():
    stub = StubBackend({SHA: {"phase1:0": ["word salad", "fine then: No"], "phase1:1": "No"}})
    votes = classify_phase1(make_commit(), CFG, stub)
    assert votes[0].value is VoteValue.NO
    # the reprompt went to the same backend with a sterner suffix
    assert stub.calls[1].context["attempt"] == 1
    assert "exactly one word" in stub.calls[1].prompt


def test_phase1_unparseable_twice_is_error():
    stub = StubBackend({SHA: ["nothing useful", "still nothing"]})
    with pytest.raises(UnparseableResponseError):
        classify_phase1(make_commit(), CFG, stub)


# ---------------------------------------------------------------------------
# phase 2


def test_phase2_prompt_includes_diff():
    stub = StubBackend({SHA: "No"})
    diff = "diff --git a/src/a.cpp b/src/a.cpp\n- old\n+ new\n"
    v = classify_phase2(make_commit(), diff, CFG, stub)
    assert v.value is VoteValue.NO
    assert v.backend_id == CFG.phase2_backend
    (call,) = stub.calls
    assert "diff --git a/src/a.cpp" in call.prompt
    assert TRUNCATION_MARKER not in call.prompt


def test_phase2_truncates_large_diff():
    cfg = BackendConfig(max_diff_bytes=200)
    stub = StubBackend({SHA: "Yes"})
    big_diff = "diff --git a/x b/x\n" + ("+" + "a" * 79 + "\n") * 50
    classify_phase2(make_commit(), big_diff, cfg, stub)
    (call,) = stub.calls
    assert TRUNCATION_MARKER in call.prompt
    assert ("a" * 79) not in call.prompt.split(TRUNCATION_MARKER)[1]


def test_phase2_maybe_reprompted_once():
    stub = StubBackend({SHA: ["Maybe", "OK: Yes"]})
    v = classify_phase2(make_commit(), "diff", CFG, stub)
    assert v.value is VoteValue.YES
    assert len(stub.calls) == 2
    assert "Yes or No" in stub.calls[1].prompt


def test_phase2_persistent_maybe_is_error():
    stub = StubBackend({SHA: ["Maybe", "Maybe"]})
    with pytest.raises(UnparseableResponseError):
        classify_phase2(make_commit(), "diff", CFG, stub)


# ---------------------------------------------------------------------------
# end to end


def test_classify_commit_agreeing_phase1_skips_diff():
    stub = StubBackend({SHA: "Yes"})
    fetched = []

    def provider(commit):
        fetched.append(commit.sha)
        return "diff"

    verdict = classify_commit(make_commit(), provider, CFG, stub)
    assert verdict.final == "positive"
    assert verdict.decided_in_phase == 1
    assert fetched == []


def test_classify_commit_disagreement_fetches_diff():
    stub = StubBackend({SHA: {"phase1:0": "Yes", "phase1:1": "No", "phase2": "No"}})
    verdict = classify_commit(make_commit(), lambda c: "the diff body", CFG, stub)
    assert verdict.final == "negative"
    assert verdict.decided_in_phase == 2
    assert "the diff body" in stub.calls[-1].prompt


def test_classify_commit_deterministic_with_stub():
    script = {SHA: {"phase1:0": "Maybe", "phase1:1": "No", "phase2": "Yes"}}
    results = set()
    for _ in range(3):
        verdict = classify_commit(make_commit(), lambda c: "d", CFG, StubBackend(script))
        results.add((verdict.final, verdict.decided_in_phase))
    assert results == {("positive", 2)}


# ---------------------------------------------------------------------------
# config, fingerprints, stub mechanics


def test_backend_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(phase1_backends=("only-one",))
    with pytest.raises(ConfigError):
        BackendConfig(temperature=-0.5)
    with pytest.raises(ConfigError):
        BackendConfig(max_diff_bytes=0)


def test_default_backends_match_shipped_models():
    assert CFG.phase1_backends == ("qwen2.5:7b", "qwen3:8b")
    assert CFG.phase2_backend == "qwen3:8b"
    assert CFG.temperature == 0
    assert CFG.max_diff_bytes == 65536


def test_prompt_fingerprints_stable_and_distinct():
    first = prompt_fingerprints()
    assert set(first) == {"phase1", "phase2"}
    assert all(len(v) == 64 for v in first.values())
    assert first["phase1"] != first["phase2"]
    assert prompt_fingerprints() == first


def test_packaged_prompts_are_read_once(monkeypatch):
    first = prompt_fingerprints()
    build_phase1_prompt(make_commit())

    def unreadable(package):
        raise AssertionError("a packaged prompt was read again")

    monkeypatch.setattr("perfmine.classifier.resources.files", unreadable)
    assert prompt_fingerprints() == first
    assert build_phase1_prompt(make_commit())


def test_stub_missing_script_is_backend_error():
    stub = StubBackend({})
    with pytest.raises(BackendError):
        classify_phase1(make_commit(), CFG, stub)


def test_stub_default_fallback():
    stub = StubBackend({"default": "No"})
    votes = classify_phase1(make_commit(), CFG, stub)
    assert [v.value for v in votes] == [VoteValue.NO, VoteValue.NO]


@given(st.text(max_size=300), st.integers(1, 100))
def test_truncate_diff_respects_budget(text, limit):
    out = truncate_diff(text, limit)
    if out == text:
        assert len(text.encode()) <= limit
    else:
        assert out.endswith(TRUNCATION_MARKER)
        body = out[: -len(TRUNCATION_MARKER) - 1]
        assert len(body.encode()) <= limit
