"""Minimal OpenAI-compatible chat-completion transport for bundle annotation.

POSTs to {base_url}/chat/completions with a system instruction plus the
bundle prompt at temperature 0, and reads the first choice's message
content. Re-asking, parsing and caching live in `annotate.py`, which
also reads the API key from the environment variable named in the config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SYSTEM_INSTRUCTION = (
    "You classify batches of text items. Reply with exactly one category "
    "name taken verbatim from the list in the user message, and nothing else."
)
REASK_SUFFIX = "\n\nAnswer with exactly one category name."


class TransportError(RuntimeError):
    """The endpoint could not be reached or returned a non-2xx status."""


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o"
    api_key_env_var: str = "OPENAI_API_KEY"
    max_retries: int = 2
    timeout: float = 60.0
    max_chars_per_item: int = 2000
    parallelism: int = 4

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_chars_per_item < 1:
            raise ValueError("max_chars_per_item must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def chat_completion(cfg: LlmEndpointConfig, api_key: str, user_content: str) -> str:
    """One POST to the chat-completions endpoint; returns the reply text."""
    # imported here, not at the top: urllib.request takes 18-30 ms to import,
    # which every process importing bundlesup would pay without a request
    import urllib.error
    import urllib.request

    body = {
        "model": cfg.model,
        "temperature": 0,
        "messages": [
            {"role": "system", "content": SYSTEM_INSTRUCTION},
            {"role": "user", "content": user_content},
        ],
    }
    req = urllib.request.Request(
        cfg.base_url.rstrip("/") + "/chat/completions",
        method="POST",
        data=json.dumps(body).encode("utf-8"),
        headers={
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        },
    )
    try:
        with urllib.request.urlopen(req, timeout=cfg.timeout) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", errors="replace")[:300]
        raise TransportError(f"HTTP {exc.code}: {detail}") from exc
    except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
        raise TransportError(str(exc)) from exc
    try:
        return str(payload["choices"][0]["message"]["content"])
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed completion payload: {payload!r}") from exc
