"""Resource-tag registry (Figure 8, tag collection + smart-encoding).

Agents push Kubernetes tags (①→②); cloud resource tags arrive directly at
the server (③).  The registry keeps them keyed by (VPC, IP) — the only two
tags the agent injects into spans (④–⑥) — and pre-encodes every tag key
and value as an integer so the storage layer never touches strings (⑦).
Self-defined (custom) labels stay out of storage entirely and are joined
back in at query time (⑧).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional


class StringInterner:
    """Bidirectional string↔int dictionary used by the Int tag encoding."""

    def __init__(self) -> None:
        self._to_int: dict[str, int] = {}
        self._to_str: list[str] = []

    def __len__(self) -> int:
        return len(self._to_str)

    def intern(self, value: str) -> int:
        """Map a string to its stable integer code."""
        code = self._to_int.get(value)
        if code is None:
            code = len(self._to_str)
            self._to_int[value] = code
            self._to_str.append(value)
        return code

    def lookup(self, code: int) -> str:
        """Look up by key, or None."""
        return self._to_str[code]


#: Tags treated as *self-defined labels* (version, commit, ...) — injected
#: only at query time, never stored (Figure 8 step ⑧).
CUSTOM_TAG_HINTS = ("version", "commit", "team", "owner", "release")


class TagRegistry:
    """Server-side tag tables keyed by (vpc, ip)."""

    def __init__(self) -> None:
        self.keys = StringInterner()
        self.values = StringInterner()
        self._resource: dict[tuple[str, str], dict[str, str]] = {}
        self._custom: dict[tuple[str, str], dict[str, str]] = {}
        # Pre-encoded Int form of the resource tags (Figure 8 step ⑦).
        self._resource_encoded: dict[tuple[str, str],
                                     dict[int, int]] = {}
        # (vpc, ip) → tenant → the read-only tag map every span of that
        # endpoint and tenant shares: filled by span_tags, dropped by
        # register.
        self._span_tags: dict[tuple[str, str],
                              dict[Optional[str], Mapping[str, str]]] = {}

    @staticmethod
    def _split(tags: dict[str, str]) -> tuple[dict, dict]:
        resource = {}
        custom = {}
        for key, value in tags.items():
            if key in CUSTOM_TAG_HINTS:
                custom[key] = value
            else:
                resource[key] = value
        return resource, custom

    def register(self, vpc: str, ip: str, tags: dict[str, str]) -> None:
        """Register (or update) the tags for one endpoint."""
        resource, custom = self._split(tags)
        key = (vpc, ip)
        self._resource.setdefault(key, {}).update(resource)
        if custom:
            self._custom.setdefault(key, {}).update(custom)
        self._resource_encoded[key] = {
            self.keys.intern(tag_key): self.values.intern(tag_value)
            for tag_key, tag_value in self._resource[key].items()}
        self._span_tags.pop(key, None)

    def resource_tags(self, vpc: str, ip: str) -> dict[str, str]:
        """Registered resource tags for (vpc, ip)."""
        return dict(self._resource.get((vpc, ip), {}))

    def resource_tags_encoded(self, vpc: str, ip: str) -> dict[int, int]:
        """The pre-encoded Int form injected at storage time (step ⑦)."""
        return dict(self._resource_encoded.get((vpc, ip), {}))

    def span_tags(self, vpc: str, ip: str,
                  tenant: Optional[str] = None
                  ) -> Optional[Mapping[str, str]]:
        """What storage-time enrichment gives a span of (vpc, ip): the
        agent's pair, the Int form of step ⑦ run back through
        :meth:`decode`, and ``tenant`` when *tenant* is given (a decoded
        ``tenant`` tag wins).  None for an unregistered endpoint, which
        is not memoized.

        The result is one read-only map per endpoint and tenant, shared
        by every span given it until the endpoint's next
        :meth:`register`; spans stored earlier keep the map they hold.
        """
        try:
            return self._span_tags[vpc, ip][tenant]
        except KeyError:
            pass
        key = (vpc, ip)
        encoded = self._resource_encoded.get(key)
        if encoded is None:
            return None
        tags = {"vpc": vpc, "ip": ip, **self.decode(encoded)}
        if tenant is not None:
            tags.setdefault("tenant", tenant)
        by_tenant = self._span_tags.get(key)
        if by_tenant is None:
            by_tenant = self._span_tags[key] = {}
        shared = by_tenant[tenant] = MappingProxyType(tags)
        return shared

    def custom_tags(self, vpc: str, ip: str) -> dict[str, str]:
        """Self-defined labels, joined in at query time (step ⑧)."""
        return dict(self._custom.get((vpc, ip), {}))

    def custom_tag_table(self) -> dict[tuple[str, str], dict[str, str]]:
        """The live ``(vpc, ip)`` → self-defined labels table, empty
        until a custom tag is registered: what the query-time join reads
        per span.  Copy out of it (``dict.update``), never mutate or
        keep it."""
        return self._custom

    def decode(self, encoded: dict[int, int]) -> dict[str, str]:
        """Int-encoded tags back to strings."""
        return {self.keys.lookup(k): self.values.lookup(v)
                for k, v in encoded.items()}

    def full_tags(self, vpc: str, ip: str) -> dict[str, str]:
        """Resource + custom tags, as delivered to the front end."""
        tags = self.resource_tags(vpc, ip)
        tags.update(self.custom_tags(vpc, ip))
        return tags
