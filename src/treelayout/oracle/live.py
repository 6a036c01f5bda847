"""Chat-completion-backed oracle over a provider-agnostic HTTP wire format.

Configuration comes from a JSON file (endpoint, model, temperature, and
the name of the environment variable holding the API key).  One retry on
transport failure (a reply that is not a completion counts as one), then
:class:`OracleFailure`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import requests

from treelayout.oracle.base import OracleFailure, PlacementOracle, Transport
from treelayout.oracle.queries import OracleQuery, OracleReply
from treelayout.oracle.templates import render_prompt_templates

DEFAULT_KEY_ENV = "TREELAYOUT_API_KEY"


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
        field of the wrong type, raises ``ValueError`` naming the field."""
        doc = json.loads(Path(path).read_text("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("live config must be a JSON object")
        key_env = doc.get("api_key_env", DEFAULT_KEY_ENV)
        if not isinstance(key_env, str):
            raise ValueError("live config field 'api_key_env' must be a string")
        config = cls(doc["endpoint"], doc["model"], api_key_env=key_env)
        for name in ("temperature", "timeout_s"):
            try:
                setattr(config, name, float(doc.get(name, getattr(config, name))))
            except (TypeError, ValueError):
                raise ValueError(f"live config field {name!r} must be a number") from None
        return config


class LiveOracle(PlacementOracle):
    def __init__(self, config: LiveConfig):
        self.config = config
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise OracleFailure(f"API key env var {config.api_key_env} is not set")
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post_once(self, body: dict) -> str:
        try:
            resp = requests.post(
                self.config.endpoint,
                headers=self._headers,
                json=body,
                timeout=self.config.timeout_s,
            )
        except requests.RequestException as exc:
            raise Transport(0, str(exc)) from exc
        if resp.status_code != 200:
            raise Transport(resp.status_code, resp.text[:500])
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
        except Transport:
            pass
        try:
            return OracleReply(self._post_once(body))
        except Transport as exc:
            raise OracleFailure(f"transport failed after retry: {exc}") from exc
