"""Chat-model backends used by the commit classifier.

Two implementations of one small protocol: an HTTP client for an
OpenAI-style chat-completions endpoint, and a scripted stub that replays
canned responses keyed by commit sha. The stub records every prompt it
receives so tests can assert what each phase was shown.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .errors import BackendError, ConfigError

ENDPOINT_ENV_VAR = "LLM_ENDPOINT"
TEMPERATURE = 0.0  # every request perfmine sends, classification and repair alike


class ChatBackend(Protocol):
    def complete(
        self,
        model: str,
        prompt: str,
        *,
        temperature: float = TEMPERATURE,
        context: Mapping[str, object] | None = None,
    ) -> str:
        """Send one user prompt to ``model`` and return the reply text."""
        ...


class HttpChatBackend:
    """Client for a chat-completions endpoint (POST /v1/chat/completions).

    The endpoint is resolved lazily, on the first request: mining fails
    on its earliest missing prerequisite, and repository discovery runs
    long before any model is consulted.
    """

    def __init__(self, endpoint: str | None = None, timeout: float = 120.0) -> None:
        self._endpoint = endpoint
        self.timeout = timeout

    @property
    def endpoint(self) -> str:
        resolved = self._endpoint or os.environ.get(ENDPOINT_ENV_VAR, "")
        if not resolved:
            raise ConfigError(
                f"no model endpoint: pass one explicitly or set {ENDPOINT_ENV_VAR}"
            )
        return resolved.rstrip("/")

    def complete(
        self,
        model: str,
        prompt: str,
        *,
        temperature: float = TEMPERATURE,
        context: Mapping[str, object] | None = None,
    ) -> str:
        import requests

        url = f"{self.endpoint}/v1/chat/completions"
        payload = {
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        try:
            response = requests.post(url, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendError(f"request to {url} failed: {exc}") from exc
        if response.status_code != 200:
            raise BackendError(f"HTTP {response.status_code} from {url}: {response.text[:200]}")
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload from {url}") from exc


@dataclass
class BackendCall:
    """One recorded request to a stub backend."""

    model: str
    prompt: str
    context: dict = field(default_factory=dict)


class StubBackend:
    """Replays scripted responses; the test double for ChatBackend.

    Scripts are keyed by commit sha (taken from the call context), with
    the literal key "default" as a fallback. The value for a sha is
    either a response, or a mapping from a finer key to a response. The
    finer keys tried, in order: "phase<k>:<slot>", "phase<k>", then the
    model name. A response is a string (repeatable) or a list of strings
    consumed one call at a time, which is how reprompt sequences are
    scripted; draining a list is an error because it means the test
    scripted fewer replies than the classifier asked for.
    """

    def __init__(self, scripts: Mapping[str, object]) -> None:
        self._scripts = dict(scripts)
        self._cursors: dict[int, int] = {}
        self.calls: list[BackendCall] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "StubBackend":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def complete(
        self,
        model: str,
        prompt: str,
        *,
        temperature: float = TEMPERATURE,
        context: Mapping[str, object] | None = None,
    ) -> str:
        context = dict(context or {})
        self.calls.append(BackendCall(model=model, prompt=prompt, context=context))
        sha = str(context.get("sha", ""))
        entry = self._scripts.get(sha, self._scripts.get("default"))
        if entry is None:
            raise BackendError(f"stub has no script for sha {sha!r} and no default")
        response = self._resolve(entry, model, context)
        if response is None:
            raise BackendError(f"stub script for sha {sha!r} has no entry for this call")
        return response

    def _resolve(self, entry: object, model: str, context: Mapping[str, object]) -> str | None:
        if isinstance(entry, dict):
            phase = context.get("phase")
            slot = context.get("slot")
            for key in (f"phase{phase}:{slot}", f"phase{phase}", model):
                if key in entry:
                    return self._consume(entry[key])
            return None
        return self._consume(entry)

    def _consume(self, value: object) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, list):
            cursor = self._cursors.get(id(value), 0)
            if cursor >= len(value):
                raise BackendError("stub script exhausted: more calls than scripted replies")
            self._cursors[id(value)] = cursor + 1
            return str(value[cursor])
        raise BackendError(f"stub script value must be string or list, got {type(value).__name__}")
