"""Local asset catalog: category -> default dimensions and dimension ranges.

Stands in for 3D-asset retrieval: instead of looking up meshes, object
categories resolve to a shipped table of typical furniture dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from treelayout.model import Dim3, q4


class UnknownCategory(KeyError):
    def __init__(self, category: str):
        super().__init__(category)
        self.category = category

    def __str__(self) -> str:
        return f"category not in asset catalog: {self.category!r}"


@dataclass(frozen=True)
class CatalogEntry:
    category: str
    dims: Dim3
    min_dims: Dim3
    max_dims: Dim3
    supportable: bool

    def __post_init__(self) -> None:
        for axis in ("length", "depth", "height"):
            lo = getattr(self.min_dims, axis)
            hi = getattr(self.max_dims, axis)
            v = getattr(self.dims, axis)
            if not lo <= v <= hi:
                raise ValueError(f"{self.category}: default {axis} {v} outside range [{lo}, {hi}]")

    def clamp(self, dims: Dim3) -> Dim3:
        def cl(v: float, lo: float, hi: float) -> float:
            return q4(min(max(v, lo), hi))

        return Dim3(
            cl(dims.length, self.min_dims.length, self.max_dims.length),
            cl(dims.depth, self.min_dims.depth, self.max_dims.depth),
            cl(dims.height, self.min_dims.height, self.max_dims.height),
        )


class AssetCatalog:
    """Immutable category table loaded from a JSON data file."""

    def __init__(self, entries: dict[str, CatalogEntry]):
        self._entries = dict(entries)

    def __contains__(self, category: str) -> bool:
        return category in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def categories(self) -> list[str]:
        return sorted(self._entries)

    def entry(self, category: str) -> CatalogEntry:
        try:
            return self._entries[category]
        except KeyError:
            raise UnknownCategory(category) from None

    def resolve(self, category: str, dims: Dim3 | None) -> tuple[Dim3, bool]:
        """The dims of a proposed object and whether it can support others.

        Given dims are clamped into the category's range; missing dims
        take the category's defaults.  Unknown categories raise
        :class:`UnknownCategory`.
        """
        entry = self.entry(category)
        return (entry.dims if dims is None else entry.clamp(dims)), entry.supportable

    @classmethod
    def from_file(cls, path: str | Path) -> "AssetCatalog":
        return cls._parse(json.loads(Path(path).read_text("utf-8")))

    @classmethod
    @lru_cache(maxsize=1)
    def default(cls) -> "AssetCatalog":
        """The shipped catalog, parsed once per process and shared by
        every caller (the catalog is immutable)."""
        text = resources.files("treelayout.data").joinpath("catalog.json").read_text("utf-8")
        return cls._parse(json.loads(text))

    @classmethod
    def _parse(cls, doc: dict) -> "AssetCatalog":
        entries = {}
        for cat, row in doc["entries"].items():
            entries[cat] = CatalogEntry(
                category=cat,
                dims=Dim3(*row["dims"]),
                min_dims=Dim3(*row["min_dims"]),
                max_dims=Dim3(*row["max_dims"]),
                supportable=bool(row["supportable"]),
            )
        return cls(entries)
