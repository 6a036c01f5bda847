"""Grid discretization, emoji naming, prompt round-trips, and predicates."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import brute_grid_prompt, brute_rasterize, brute_relation, brute_side_cells
from treelayout.grid import (
    ANCHOR_MARKER,
    ANCHOR_OCCUPIED,
    BOUNDARY_MARKER,
    FREE,
    FREE_MARKER,
    MARKERS,
    OCCUPIED,
    OCCUPIED_MARKER,
    WALL_MARKER,
    D_AROUND,
    D_BESIDE,
    D_FRONT,
    DegenerateDirection,
    EmojiMap,
    EmptyResponse,
    NonContiguousRun,
    OccupancyGrid,
    OutOfRegion,
    Side,
    UnknownEmoji,
    VocabularyExhausted,
    WrongCount,
    assign_emojis,
    candidate_cells,
    cells_of,
    contiguous_axis_run,
    load_vocabulary,
    orientation_from_rule,
    parse_emoji_selection,
    rasterize,
    relation_satisfied,
    serialize_grid_prompt,
    yaw_for_side,
)
from treelayout.model import (
    AABB,
    AnchorRule,
    Dim3,
    Edge,
    ObjectSpec,
    OrientationRule,
    Parent,
    PlacedObject,
    RegionPlan,
    SpatialRelation,
    Yaw,
    effective_aabb,
    extents,
    q4,
    units,
)

VOCAB = load_vocabulary()


def aabb_m(x0, y0, x1, y1) -> AABB:
    """An AABB from corners given in meters."""
    return AABB(units(x0), units(y0), units(x1), units(y1))


def centre_on_grid(u, extent, span):
    """``u`` moved to the nearest 0.1 mm step at which a box ``extent``
    wide lies inside ``[0, span]``; ``extent`` and ``span`` are on that grid."""
    e, s = round(extent * 1e4), round(span * 1e4)
    lo, hi = (e + 1) // 2, (2 * s - e) // 2
    return min(max(round(u * 1e4), lo), hi) / 1e4


def make_region(length, width, specs, anchor_id):
    return RegionPlan(
        id="r1",
        function="test",
        length=length,
        width=width,
        objects=tuple(specs),
        anchor_id=anchor_id,
        anchor_rule=AnchorRule.ALONG_WALL,
        edges=tuple(
            Edge(s.id, SpatialRelation.PLACE_AROUND, OrientationRule.SAME_AS_ANCHOR)
            for s in specs
            if s.id != anchor_id
        ),
    )


class TestVocabulary:
    def test_large_and_distinct(self):
        assert len(VOCAB) >= 512
        assert len(set(VOCAB)) == len(VOCAB)

    def test_markers_not_in_vocabulary(self):
        assert not set(MARKERS) & set(VOCAB)


class TestRasterize:
    def test_empty_region_all_free(self):
        region = make_region(3.0, 2.0, [ObjectSpec("a_1", "a", Dim3(1, 1, 1))], "a_1")
        grid = rasterize(region, [], 0.5)
        assert (grid.cols, grid.rows) == (6, 4)
        assert all(code == FREE for code in grid.codes)

    def test_anchor_row_marked(self):
        spec = ObjectSpec("bed_1", "bed", Dim3(2.0, 1.0, 0.5))
        region = make_region(2.0, 2.0, [spec], "bed_1")
        placed = [PlacedObject("bed_1", 1.0, 0.5, 0.0, Yaw.DEG_0, Parent.floor("r1"))]
        grid = rasterize(region, placed, 1.0)
        assert grid.codes == (ANCHOR_OCCUPIED, ANCHOR_OCCUPIED, FREE, FREE)

    def test_rotated_object_against_brute_force(self):
        # dims (1.2, 0.6) at yaw 90 centered (1.0, 1.0) in a 3x2 region at 0.5 cells
        a = ObjectSpec("a_1", "a", Dim3(0.2, 0.2, 0.2))
        b = ObjectSpec("b_1", "b", Dim3(1.2, 0.6, 0.5))
        region = make_region(3.0, 2.0, [a, b], "a_1")
        placed = [
            PlacedObject("a_1", 2.5, 1.7, 0.0, Yaw.DEG_0, Parent.floor("r1")),
            PlacedObject("b_1", 1.0, 1.0, 0.0, Yaw.DEG_90, Parent.floor("r1")),
        ]
        grid = rasterize(region, placed, 0.5)
        rects = []
        for p in placed:
            box = p.aabb(region.spec(p.spec_id).dims)
            code = ANCHOR_OCCUPIED if p.spec_id == "a_1" else OCCUPIED
            rects.append((box.x0, box.y0, box.x1, box.y1, code))
        assert list(grid.codes) == brute_rasterize(grid.cols, grid.rows, units(0.5), rects)

    def test_out_of_region_raises(self):
        spec = ObjectSpec("a_1", "a", Dim3(1.0, 1.0, 1.0))
        region = make_region(2.0, 2.0, [spec], "a_1")
        placed = [PlacedObject("a_1", 1.9, 1.0, 0.0, Yaw.DEG_0, Parent.floor("r1"))]
        with pytest.raises(OutOfRegion):
            rasterize(region, placed, 0.5)

    @given(st.integers(0, 2**32 - 1))
    @example(62790)  # an unsnapped centre here rounds to 5e-5 m past the region
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_random(self, seed):
        # Regions, dims and centres are drawn on the 0.1 mm grid that
        # RegionPlan, Dim3 and PlacedObject round to, so every box lies
        # inside its region after rounding.
        rng = random.Random(seed)
        length = q4(rng.uniform(1.0, 4.0))
        width = q4(rng.uniform(1.0, 4.0))
        cell = rng.choice([0.25, 0.5])
        specs, placed = [], []
        for i in range(rng.randint(0, 3)):
            dims = Dim3(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), 0.5)
            spec = ObjectSpec(f"o_{i}", "o", dims)
            yaw = rng.choice(list(Yaw))
            ex, ey = extents(dims, yaw)
            if ex > length or ey > width:
                continue
            cx = centre_on_grid(rng.uniform(ex / 2, length - ex / 2), ex, length)
            cy = centre_on_grid(rng.uniform(ey / 2, width - ey / 2), ey, width)
            specs.append(spec)
            placed.append(PlacedObject(spec.id, cx, cy, 0.0, yaw, Parent.floor("r1")))
        if not specs:
            specs = [ObjectSpec("o_0", "o", Dim3(0.2, 0.2, 0.2))]
            placed = []
        region = make_region(length, width, specs, specs[0].id)
        grid = rasterize(region, placed, cell)
        rects = []
        for p in placed:
            box = p.aabb(region.spec(p.spec_id).dims)
            code = ANCHOR_OCCUPIED if p.spec_id == specs[0].id else OCCUPIED
            rects.append((box.x0, box.y0, box.x1, box.y1, code))
        assert list(grid.codes) == brute_rasterize(grid.cols, grid.rows, units(cell), rects)


def assert_sides_match_brute_force(grid: OccupancyGrid, anchor: AABB, got: dict) -> None:
    """``got`` holds exactly the four sides, each the mask, laid out as
    ``grid.free_flat``, of the cells of the brute-force scan."""
    assert list(got) == list(Side)
    box = (anchor.x0, anchor.y0, anchor.x1, anchor.y1)
    for side in Side:
        want = brute_side_cells(grid.cols, grid.rows, units(grid.cell_size), list(grid.codes),
                                side.value, box)
        assert cells_of(grid, got[side]) == want, side
        assert got[side] == sum(1 << i // grid.cols * grid.stride + i % grid.cols
                                for i in want), side


class TestCandidateCells:
    def grid_4x4(self, occupied=()):
        codes = [FREE] * 16
        for idx in occupied:
            codes[idx] = OCCUPIED
        return OccupancyGrid(4, 4, 0.5, tuple(codes))

    def test_right_side(self):
        grid = self.grid_4x4()
        anchor = aabb_m(0.0, 0.0, 1.0, 2.0)  # cols 0-1, full height
        got = candidate_cells(grid, anchor)
        assert cells_of(grid, got[Side.RIGHT]) == [i for i in range(16) if i % 4 >= 2]
        assert got[Side.LEFT] == got[Side.BOTTOM] == got[Side.TOP] == 0
        assert_sides_match_brute_force(grid, anchor, got)

    def test_empty_when_anchor_at_edge(self):
        grid = self.grid_4x4()
        anchor = aabb_m(0.0, 0.0, 2.0, 2.0)
        got = candidate_cells(grid, anchor)
        assert all(mask == 0 for mask in got.values())
        assert_sides_match_brute_force(grid, anchor, got)

    def test_excludes_occupied(self):
        grid = self.grid_4x4(occupied=[3, 7])
        anchor = aabb_m(0.0, 0.0, 1.0, 2.0)
        got = candidate_cells(grid, anchor)
        right = cells_of(grid, got[Side.RIGHT])
        assert 3 not in right and 7 not in right
        assert set(right) == {i for i in range(16) if i % 4 >= 2} - {3, 7}
        assert_sides_match_brute_force(grid, anchor, got)

    def test_never_returns_occupied_property(self):
        rng = random.Random(3)
        for _ in range(50):
            codes = tuple(rng.choice([FREE, OCCUPIED]) for _ in range(24))
            grid = OccupancyGrid(6, 4, 0.5, codes)
            anchor = aabb_m(0.5, 0.5, 1.5, 1.0)
            got = candidate_cells(grid, anchor)
            for side in Side:
                for idx in cells_of(grid, got[side]):
                    assert grid.codes[idx] == FREE
            assert_sides_match_brute_force(grid, anchor, got)


class TestAssignEmojis:
    def test_row_col_order(self):
        emap = assign_emojis([9, 2, 3], VOCAB)
        assert list(emap.entries.keys()) == [2, 3, 9]
        assert list(emap.entries.values()) == list(VOCAB[:3])

    def test_empty(self):
        assert len(assign_emojis([], VOCAB)) == 0

    def test_injective_400(self):
        emap = assign_emojis(list(range(400)), VOCAB)
        names = list(emap.entries.values())
        assert len(set(names)) == 400

    def test_vocabulary_exhausted(self):
        with pytest.raises(VocabularyExhausted):
            assign_emojis(list(range(4)), ("a", "b", "c"))


class TestSerializeAndParse:
    def test_empty_grid_wall_ring(self):
        grid = OccupancyGrid(2, 2, 0.5, (FREE,) * 4)
        text = serialize_grid_prompt(grid, assign_emojis([], VOCAB))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == [WALL_MARKER] * 4
        assert lines[1].split() == [WALL_MARKER, FREE_MARKER, FREE_MARKER, WALL_MARKER]

    def test_markers_for_occupancy(self):
        grid = OccupancyGrid(2, 1, 0.5, (OCCUPIED, ANCHOR_OCCUPIED))
        text = serialize_grid_prompt(grid, assign_emojis([], VOCAB))
        row = text.splitlines()[1].split()
        assert row == [WALL_MARKER, OCCUPIED_MARKER, ANCHOR_MARKER, WALL_MARKER]

    def test_boundary_marker_on_interior_side(self):
        grid = OccupancyGrid(1, 1, 0.5, (FREE,))
        text = serialize_grid_prompt(
            grid, assign_emojis([], VOCAB), wall_sides=frozenset({Side.TOP, Side.BOTTOM, Side.LEFT})
        )
        row = text.splitlines()[1].split()
        assert row == [WALL_MARKER, FREE_MARKER, BOUNDARY_MARKER]

    def test_single_candidate_single_emoji(self):
        grid = OccupancyGrid(2, 2, 0.5, (FREE,) * 4)
        emap = assign_emojis([1], VOCAB)
        text = serialize_grid_prompt(grid, emap)
        assert list(emap.entries.values())[0] in text.split()

    def test_top_row_first(self):
        # cell (1, 0) occupied: appears on the first interior line (top)
        grid = OccupancyGrid(2, 2, 0.5, (FREE, FREE, OCCUPIED, FREE))
        lines = serialize_grid_prompt(grid, assign_emojis([], VOCAB)).splitlines()
        assert OCCUPIED_MARKER in lines[1]
        assert OCCUPIED_MARKER not in lines[2]

    def test_matches_token_by_token_reference(self):
        rng = random.Random(19)
        for _ in range(500):
            cols, rows = rng.randint(1, 10), rng.randint(1, 10)
            codes = [rng.choice([FREE, FREE, OCCUPIED, ANCHOR_OCCUPIED]) for _ in range(cols * rows)]
            grid = OccupancyGrid(cols, rows, 0.25, tuple(codes))
            walls = frozenset(side for side in Side if rng.random() < 0.5)
            wall_names = {side.value for side in walls}
            # any cells may be named, occupied ones too: the name wins
            named = rng.sample(range(cols * rows), rng.randint(0, cols * rows))
            for emap in (assign_emojis(named, VOCAB), assign_emojis([], VOCAB)):
                want = brute_grid_prompt(cols, rows, codes, emap.entries, wall_names)
                assert serialize_grid_prompt(grid, emap, walls) == want

    def test_serialization_reads_no_cell_index(self, monkeypatch):
        def no_index(self, row, col):
            raise AssertionError("serialize_grid_prompt called OccupancyGrid.index")

        monkeypatch.setattr(OccupancyGrid, "index", no_index)
        grid = OccupancyGrid(3, 2, 0.5, (FREE, OCCUPIED, ANCHOR_OCCUPIED, FREE, FREE, FREE))
        emap = assign_emojis([0, 4], VOCAB)
        want = brute_grid_prompt(3, 2, list(grid.codes), emap.entries, {s.value for s in Side})
        assert serialize_grid_prompt(grid, emap) == want

    def test_map_cell_outside_grid_rejected(self):
        grid = OccupancyGrid(2, 2, 0.5, (FREE,) * 4)
        for idx in (-1, 4):
            with pytest.raises(ValueError):
                serialize_grid_prompt(grid, EmojiMap({idx: VOCAB[0]}, VOCAB))

    def test_round_trip_1000_random_grids(self):
        rng = random.Random(42)
        for _ in range(1000):
            cols, rows = rng.randint(1, 12), rng.randint(1, 12)
            codes = [rng.choice([FREE, FREE, OCCUPIED, ANCHOR_OCCUPIED]) for _ in range(cols * rows)]
            grid = OccupancyGrid(cols, rows, 0.25, tuple(codes))
            free = [i for i, c in enumerate(codes) if c == FREE]
            chosen = sorted(rng.sample(free, rng.randint(0, len(free))))
            emap = assign_emojis(chosen, VOCAB)
            text = serialize_grid_prompt(grid, emap)
            emitted = [t for t in text.split() if t not in MARKERS]
            if not chosen:
                assert emitted == []
                continue
            cells = parse_emoji_selection(" ".join(emitted), emap, len(chosen))
            assert cells == chosen

    def test_parse_simple(self):
        emap = assign_emojis([7, 8], ("apple", "banana", "pear"))
        assert parse_emoji_selection("apple, banana", emap, 2) == [7, 8]

    def test_parse_case_insensitive_prose(self):
        emap = assign_emojis([7, 8], ("apple", "banana", "pear"))
        got = parse_emoji_selection("I would pick Apple and then BANANA.", emap, 2)
        assert got == [7, 8]

    def test_wrong_count(self):
        emap = assign_emojis([7, 8], ("apple", "banana", "pear"))
        with pytest.raises(WrongCount) as exc:
            parse_emoji_selection("apple", emap, 2)
        assert (exc.value.got, exc.value.expected) == (1, 2)

    def test_unknown_emoji(self):
        emap = assign_emojis([7], ("apple", "banana", "pear"))
        with pytest.raises(UnknownEmoji) as exc:
            parse_emoji_selection("pear", emap, 1)
        assert exc.value.name == "pear"

    def test_empty_response(self):
        emap = assign_emojis([7], ("apple", "banana", "pear"))
        with pytest.raises(EmptyResponse):
            parse_emoji_selection("no idea, sorry", emap, 1)

    def test_duplicate_mentions_count_once(self):
        emap = assign_emojis([7, 8], ("apple", "banana", "pear"))
        assert parse_emoji_selection("banana banana apple", emap, 2) == [7, 8]


class TestContiguousRun:
    def grid(self):
        return OccupancyGrid(4, 4, 0.5, (FREE,) * 16)

    def test_contiguous_columns(self):
        # cells in cols 1,2 (any rows)
        assert contiguous_axis_run(self.grid(), [1, 6], "cols") == [1, 2]

    def test_non_contiguous_raises(self):
        with pytest.raises(NonContiguousRun):
            contiguous_axis_run(self.grid(), [0, 2], "cols")

    def test_duplicate_axis_raises(self):
        with pytest.raises(NonContiguousRun):
            contiguous_axis_run(self.grid(), [1, 5], "cols")  # both col 1

    def test_rows(self):
        assert contiguous_axis_run(self.grid(), [0, 4], "rows") == [0, 1]


class TestRelations:
    def anchor(self, x=2.0, y=1.0, yaw=Yaw.DEG_0, dims=Dim3(1.0, 0.5, 0.5)):
        return PlacedObject("a", x, y, 0.0, yaw, Parent.floor("r")), dims

    def test_front_true(self):
        anchor, dims = self.anchor()
        cand = effective_aabb(Dim3(0.5, 0.5, 0.5), Yaw.DEG_0, (2.0, 2.0))
        assert relation_satisfied(SpatialRelation.PLACE_FRONT, cand, anchor, dims)

    def test_front_behind_false(self):
        anchor, dims = self.anchor()
        cand = effective_aabb(Dim3(0.5, 0.5, 0.5), Yaw.DEG_0, (2.0, 0.2))
        assert not relation_satisfied(SpatialRelation.PLACE_FRONT, cand, anchor, dims)

    @pytest.mark.parametrize("rel, limit", [
        (SpatialRelation.PLACE_FRONT, D_FRONT),
        (SpatialRelation.PLACE_BESIDE, D_BESIDE),
        (SpatialRelation.PLACE_AROUND, D_AROUND),
    ])
    def test_threshold_holds_to_the_unit(self, rel, limit):
        # a 0.5 m box ahead of the anchor (which faces +y), to its right,
        # or centred on its axis: an edge gap (around: a centre distance)
        # of exactly the constant holds, and one unit (0.01 mm) more fails
        anchor, dims = self.anchor()
        a, ax, ay, half = anchor.aabb(dims), units(anchor.x), units(anchor.y), units(0.25)

        def box(d):
            if rel is SpatialRelation.PLACE_FRONT:
                return AABB(ax - half, a.y1 + d, ax + half, a.y1 + d + 2 * half)
            if rel is SpatialRelation.PLACE_BESIDE:
                return AABB(a.x1 + d, ay - half, a.x1 + d + 2 * half, ay + half)
            return AABB(ax + d - half, ay - half, ax + d + half, ay + half)

        assert relation_satisfied(rel, box(units(limit)), anchor, dims)
        assert not relation_satisfied(rel, box(units(limit) + 1), anchor, dims)

    @given(
        st.floats(0.5, 4.0), st.floats(0.5, 4.0),
        st.floats(-3, 3), st.floats(-3, 3),
        st.sampled_from(list(Yaw)),
        st.sampled_from(list(SpatialRelation)),
    )
    @settings(max_examples=300)
    def test_matches_brute_force(self, ax, ay, dx, dy, yaw, rel):
        anchor = PlacedObject("a", ax, ay, 0.0, yaw, Parent.floor("r"))
        dims = Dim3(1.0, 0.6, 0.5)
        cand = effective_aabb(Dim3(0.4, 0.3, 0.3), Yaw.DEG_0, (anchor.x + dx, anchor.y + dy))
        got = relation_satisfied(rel, cand, anchor, dims)
        anchor_rect = anchor.aabb(dims)
        want = brute_relation(
            rel.value,
            (cand.x0, cand.y0, cand.x1, cand.y1),
            (anchor_rect.x0, anchor_rect.y0, anchor_rect.x1, anchor_rect.y1),
            (anchor.x, anchor.y),
            yaw.value,
        )
        assert got == want

    def test_front_implies_facing_half_plane(self):
        rng = random.Random(5)
        for _ in range(300):
            yaw = rng.choice(list(Yaw))
            anchor = PlacedObject("a", rng.uniform(0, 4), rng.uniform(0, 4), 0.0, yaw,
                                  Parent.floor("r"))
            dims = Dim3(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), 0.5)
            cand = effective_aabb(
                Dim3(0.3, 0.3, 0.3), Yaw.DEG_0,
                (anchor.x + rng.uniform(-3, 3), anchor.y + rng.uniform(-3, 3)),
            )
            if relation_satisfied(SpatialRelation.PLACE_FRONT, cand, anchor, dims):
                fx, fy = yaw.facing
                dx = cand.x0 + cand.x1 - 2 * units(anchor.x)  # doubled centre offset
                dy = cand.y0 + cand.y1 - 2 * units(anchor.y)
                assert dx * fx + dy * fy > 0


class TestOrientation:
    def test_face_anchor_right_of(self):
        assert orientation_from_rule(
            OrientationRule.FACE_ANCHOR, Yaw.DEG_0, (2, 2), (4, 2)
        ) is Yaw.DEG_270

    def test_same_and_opposite(self):
        assert orientation_from_rule(
            OrientationRule.SAME_AS_ANCHOR, Yaw.DEG_90, (0, 0), (1, 1)
        ) is Yaw.DEG_90
        assert orientation_from_rule(
            OrientationRule.OPPOSITE_ANCHOR, Yaw.DEG_0, (0, 0), (1, 1)
        ) is Yaw.DEG_180

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDirection):
            orientation_from_rule(OrientationRule.FACE_ANCHOR, Yaw.DEG_0, (1, 1), (1, 1))

    def test_exact_diagonal_tie_faces_along_x(self):
        # the float differences are -0.9249999999999998 and -0.925, so a
        # float comparison turned this tie toward y
        assert orientation_from_rule(
            OrientationRule.FACE_ANCHOR, Yaw.DEG_0, (2.325, 0.45), (3.25, 1.375)
        ) is Yaw.DEG_270

    @given(
        st.floats(-3, 3), st.floats(-3, 3),
        st.floats(-3, 3), st.floats(-3, 3),
        st.sampled_from(list(Yaw)),
    )
    def test_face_back_differ_by_180(self, ax, ay, ox, oy, yaw):
        if (units(ax), units(ay)) == (units(ox), units(oy)):  # the same centre in units
            with pytest.raises(DegenerateDirection):
                orientation_from_rule(OrientationRule.FACE_ANCHOR, yaw, (ax, ay), (ox, oy))
            return
        face = orientation_from_rule(OrientationRule.FACE_ANCHOR, yaw, (ax, ay), (ox, oy))
        back = orientation_from_rule(OrientationRule.BACK_TO_ANCHOR, yaw, (ax, ay), (ox, oy))
        assert back is face.opposite

    def test_yaw_for_side(self):
        assert yaw_for_side(OrientationRule.FACE_ANCHOR, Yaw.DEG_0, Side.RIGHT) is Yaw.DEG_270
        assert yaw_for_side(OrientationRule.BACK_TO_ANCHOR, Yaw.DEG_0, Side.RIGHT) is Yaw.DEG_90
        assert yaw_for_side(OrientationRule.SAME_AS_ANCHOR, Yaw.DEG_90, Side.TOP) is Yaw.DEG_90
        assert yaw_for_side(None, Yaw.DEG_180, Side.LEFT) is Yaw.DEG_180
        from bruteforce import yaw_for_side as brute_yaw_for_side

        for rule in (None, *OrientationRule):
            for yaw in Yaw:
                for side in Side:
                    want = brute_yaw_for_side(rule.value if rule else None, yaw.value, side.value)
                    assert yaw_for_side(rule, yaw, side).value == want

    def test_facing_yaw_points_toward_side(self):
        toward = {Side.LEFT: (-1, 0), Side.RIGHT: (1, 0), Side.BOTTOM: (0, -1), Side.TOP: (0, 1)}
        assert {side: side.facing_yaw.facing for side in Side} == toward


class TestCandidateCellsBlockerExample:
    def test_6x4_with_blocker_matches_brute_force(self):
        codes = [FREE] * 24
        # occupied blocker somewhere in cols 4-5
        for idx in (10, 11, 16):
            codes[idx] = OCCUPIED
        grid = OccupancyGrid(6, 4, 0.5, tuple(codes))
        anchor = aabb_m(0.0, 0.5, 1.0, 1.5)  # cols 0-1
        got = candidate_cells(grid, anchor)
        assert_sides_match_brute_force(grid, anchor, got)
        assert all(idx not in cells_of(grid, got[Side.RIGHT]) for idx in (10, 11, 16))
