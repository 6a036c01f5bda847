import json

import pytest

from treelayout.catalog import AssetCatalog, UnknownCategory
from treelayout.model import Dim3
from treelayout.oracle.deterministic import load_room_templates

CATALOG = AssetCatalog.default()


class TestCatalog:
    def test_default_loads(self):
        assert len(CATALOG) >= 40
        assert "bed" in CATALOG

    def test_bed_default_dims(self):
        entry = CATALOG.entry("bed")
        assert (entry.dims.length, entry.dims.depth, entry.dims.height) == (2.0, 1.6, 0.5)

    def test_defaults_within_ranges(self):
        for cat in CATALOG.categories():
            e = CATALOG.entry(cat)
            for axis in ("length", "depth", "height"):
                assert getattr(e.min_dims, axis) <= getattr(e.dims, axis) <= getattr(e.max_dims, axis)

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            CATALOG.entry("zeppelin")

    def test_shipped_defaults_parsed_once(self):
        assert AssetCatalog.default() is CATALOG
        assert load_room_templates() is load_room_templates()

    def test_covers_all_template_categories(self):
        templates = load_room_templates()
        refs = set()
        for options in templates["region_objects"].values():
            for option in options:
                refs.update(o["category"] for o in option)
        for sup, options in templates["supported_sets"].items():
            refs.add(sup)
            for option in options:
                refs.update(option)
        missing = [c for c in refs if c not in CATALOG]
        assert missing == []


class TestResolveAssets:
    def test_fills_missing_dims(self):
        dims, _ = CATALOG.resolve("bed", None)
        assert dims == CATALOG.entry("bed").dims

    def test_clamps_below_min(self):
        dims, _ = CATALOG.resolve("bed", Dim3(0.1, 0.1, 0.1))
        assert dims == CATALOG.entry("bed").min_dims

    def test_overwrites_supportable(self):
        assert CATALOG.resolve("nightstand", None)[1] is True
        assert CATALOG.resolve("bed", Dim3(2.0, 1.6, 0.5))[1] is False

    def test_unknown_category_raises(self):
        with pytest.raises(UnknownCategory):
            CATALOG.resolve("zeppelin", None)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(
            json.dumps(
                {
                    "entries": {
                        "crate": {
                            "dims": [1, 1, 1],
                            "min_dims": [0.5, 0.5, 0.5],
                            "max_dims": [2, 2, 2],
                            "supportable": True,
                        }
                    }
                }
            )
        )
        cat = AssetCatalog.from_file(path)
        assert cat.entry("crate").supportable
