"""Chat-completion-backed oracle over a provider-agnostic HTTP wire format.

Configuration comes from a JSON file (endpoint, model, temperature, and
the name of the environment variable holding the API key).  One retry on
transport failure (a reply that is not a completion counts as one), then
:class:`OracleFailure`.  Before the retry the oracle waits: a random
delay of up to ``RETRY_JITTER_S`` ("full jitter"), or the ``Retry-After``
seconds of a 429 or 503 reply, never longer than ``RETRY_MAX_WAIT_S``.

The HTTP client (``requests``, the ``live`` extra) is imported when a
:class:`LiveOracle` is built, so runs that never use it do not load it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from random import random
from time import sleep
from urllib.parse import urlsplit

from treelayout.oracle.base import OracleFailure, PlacementOracle, Transport
from treelayout.oracle.queries import OracleQuery, OracleReply
from treelayout.oracle.templates import render_prompt_templates
from treelayout.sceneio import parse_json

DEFAULT_KEY_ENV = "TREELAYOUT_API_KEY"
RETRY_JITTER_S = 1.0
RETRY_MAX_WAIT_S = 30.0


@dataclass
class LiveConfig:
    endpoint: str
    model: str
    temperature: float = 0.2
    api_key_env: str = DEFAULT_KEY_ENV
    timeout_s: float = 60.0

    @classmethod
    def from_file(cls, path: str | Path) -> "LiveConfig":
        """Read a config file; a document that is not a JSON object, or a
        field that is missing, of the wrong type or out of range, raises
        ``ValueError`` naming the field."""
        doc = parse_json(Path(path).read_text("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("live config must be a JSON object")
        endpoint = doc.get("endpoint")
        if not _is_http_url(endpoint):
            raise ValueError("live config field 'endpoint' must be an http or https URL")
        model = doc.get("model")
        if not (isinstance(model, str) and model):
            raise ValueError("live config field 'model' must be a non-empty string")
        key_env = doc.get("api_key_env", DEFAULT_KEY_ENV)
        if not isinstance(key_env, str):
            raise ValueError("live config field 'api_key_env' must be a string")
        config = cls(endpoint, model, api_key_env=key_env)
        for name in ("temperature", "timeout_s"):
            try:
                setattr(config, name, float(doc.get(name, getattr(config, name))))
            except (TypeError, ValueError):
                raise ValueError(f"live config field {name!r} must be a number") from None
        if not math.isfinite(config.temperature):  # NaN cannot go into a JSON body
            raise ValueError("live config field 'temperature' must be finite")
        if not 0 < config.timeout_s < math.inf:
            raise ValueError("live config field 'timeout_s' must be a finite number above 0")
        return config


def _is_http_url(value) -> bool:
    if not isinstance(value, str):
        return False
    try:
        url = urlsplit(value)
    except ValueError:  # an unclosed IPv6 bracket, say
        return False
    return url.scheme in ("http", "https") and bool(url.netloc)


def _retry_wait(exc: Transport) -> float:
    """Seconds to wait before retrying after ``exc``."""
    wait = exc.retry_after if exc.retry_after is not None else random() * RETRY_JITTER_S
    return min(wait, RETRY_MAX_WAIT_S)


def _retry_after(resp) -> float | None:
    """The numeric ``Retry-After`` of a 429 or 503 reply, else None (an
    HTTP-date value, or none at all, falls back to the jittered wait)."""
    if resp.status_code not in (429, 503):
        return None
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return seconds if seconds >= 0 else None  # False for NaN too


class LiveOracle(PlacementOracle):
    def __init__(self, config: LiveConfig):
        try:
            import requests
        except ImportError:
            raise OracleFailure(
                "the live oracle needs the requests package: pip install 'treelayout[live]'"
            ) from None
        self._requests = requests
        self.config = config
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise OracleFailure(f"API key env var {config.api_key_env} is not set")
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post_once(self, body: dict) -> str:
        try:
            resp = self._requests.post(
                self.config.endpoint,
                headers=self._headers,
                json=body,
                timeout=self.config.timeout_s,
            )
        except self._requests.RequestException as exc:
            raise Transport(0, str(exc)) from exc
        if resp.status_code != 200:
            raise Transport(resp.status_code, resp.text[:500], _retry_after(resp))
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except ValueError as exc:
            raise Transport(200, f"reply is not JSON: {exc}") from exc
        except (KeyError, IndexError, TypeError) as exc:
            raise Transport(200, f"malformed completion payload: {exc}") from exc

    def query(self, q: OracleQuery) -> OracleReply:
        body = {
            "model": self.config.model,
            "messages": render_prompt_templates(q),
            "temperature": self.config.temperature,
        }
        try:
            return OracleReply(self._post_once(body))
        except Transport as exc:
            sleep(_retry_wait(exc))
        try:
            return OracleReply(self._post_once(body))
        except Transport as exc:
            raise OracleFailure(f"transport failed after retry: {exc}") from exc
