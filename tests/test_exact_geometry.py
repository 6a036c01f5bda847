"""Exact geometry: no verdict depends on the frame it is computed in.

Every predicate compares whole length units (0.01 mm), so translating the
whole picture by whole units changes no verdict: not of the relation
test, not of a context's legality lattice (its masks and its verdict
at each pair), not of the validity metrics of a composed scene.  Translations go
up to kilometres, where a float test with a fixed tolerance would flip.
"""

import random
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from digest_sweep import load_prompts
from treelayout import pipeline
from treelayout.catalog import AssetCatalog
from treelayout.evaluate import validity_metrics
from treelayout.grid import rasterize, relation_satisfied
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
    RoomPlan,
    Scene,
    SearchConfig,
    SearchMode,
    SpatialRelation,
    Yaw,
    effective_aabb,
    extents,
    q4,
    units,
)
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.queries import run_center
from treelayout.oracle.queries import SpatialContext

M = 100_000  # units per meter

#: A translation in q4 steps (10 units), so poses stay on their lattice.
shifts = st.integers(-10**8, 10**8).map(lambda k: 10 * k)


def shifted(box, tx, ty):
    x0, y0, x1, y1 = box
    return (x0 + tx, y0 + ty, x1 + tx, y1 + ty)


def moved(p: PlacedObject, tx: int, ty: int) -> PlacedObject:
    """``p`` translated by (tx, ty) units, which are whole q4 steps."""
    return replace(p, x=q4(p.x + tx / M), y=q4(p.y + ty / M))


class TestRelations:
    @given(
        st.integers(0, 40_000), st.integers(0, 40_000),
        st.integers(-30_000, 30_000), st.integers(-30_000, 30_000),
        st.sampled_from(list(Yaw)), st.sampled_from(list(SpatialRelation)),
        shifts, shifts,
    )
    @example(10_000, 5_000, 12_000, 2_750, Yaw.DEG_0, SpatialRelation.PLACE_BESIDE,
             261_000, 0)  # a beside gap of exactly 0.5 m, moved by a region offset of 2.61 m
    @settings(max_examples=400, deadline=None)
    def test_relation_satisfied_is_translation_invariant(self, ax, ay, dx, dy, yaw, rel, tx, ty):
        anchor = PlacedObject("a", ax / 10_000, ay / 10_000, 0.0, yaw, Parent.floor("r"))
        dims = Dim3(1.0, 0.5, 0.5)
        cand = effective_aabb(Dim3(0.4, 0.3, 0.3), Yaw.DEG_0,
                              (anchor.x + dx / 10_000, anchor.y + dy / 10_000))
        got = relation_satisfied(rel, cand, anchor, dims)
        box = AABB(*shifted((cand.x0, cand.y0, cand.x1, cand.y1), tx, ty))
        assert relation_satisfied(rel, box, moved(anchor, tx, ty), dims) == got

    @given(st.integers(0, 2**32 - 1), shifts, shifts)
    @settings(max_examples=100, deadline=None)
    def test_relation_rows_is_translation_invariant(self, seed, tx, ty):
        # relation_satisfied on a block of boxes given in whole units, moved
        # with the anchor by up to 10**9 units (ten kilometres); the anchor's
        # pose and dims are q4, so its centre and extents are whole q4 steps
        rng = random.Random(seed)
        ax, ay = 10 * rng.randint(0, 20_000), 10 * rng.randint(0, 20_000)
        half_x, half_y = 5 * rng.randint(1, 12_000), 5 * rng.randint(1, 12_000)
        yaw = rng.choice(list(Yaw))
        anchor_box = (ax - half_x, ay - half_y, ax + half_x, ay + half_y)
        along_x, along_y = 2 * half_x / M, 2 * half_y / M
        dims = Dim3(along_y, along_x, 0.5) if yaw.swaps_extents else Dim3(along_x, along_y, 0.5)
        xspans = [(x, x + rng.randint(1, 80_000)) for x in
                  (rng.randint(-100_000, 400_000) for _ in range(6))]
        yspans = [(y, y + rng.randint(1, 80_000)) for y in
                  (rng.randint(-100_000, 400_000) for _ in range(6))]

        def verdicts(rel, tx, ty):
            anchor = PlacedObject("a", (ax + tx) / M, (ay + ty) / M, 0.0, yaw, Parent.floor("r"))
            assert anchor.aabb(dims) == shifted(anchor_box, tx, ty)
            return [relation_satisfied(rel, AABB(x0 + tx, y0 + ty, x1 + tx, y1 + ty), anchor, dims)
                    for y0, y1 in yspans for x0, x1 in xspans]

        for rel in SpatialRelation:
            assert verdicts(rel, tx, ty) == verdicts(rel, 0, 0)


def random_context(rng) -> SpatialContext:
    """A floor region at cell 0.25 or a supporter top at 0.05 with an
    anchor, an object to place and up to three blockers."""
    cell = rng.choice([0.25, 0.05])
    scale = 1.0 if cell == 0.25 else 0.2
    length = q4(rng.choice([2.0, 3.0, 2.9]) * scale)
    width = q4(rng.choice([1.5, 2.0, 1.85]) * scale)
    anchor_dims = Dim3(1.0 * scale, 0.5 * scale, 0.5)
    specs = [ObjectSpec("anchor_1", "a", anchor_dims)]
    placed = []
    for i in range(rng.randint(0, 3) + 1):
        dims = anchor_dims if i == 0 else Dim3(rng.choice([0.25, 0.3, 0.5]) * scale,
                                               rng.choice([0.25, 0.5]) * scale, 0.5)
        yaw = rng.choice(list(Yaw))
        ex, ey = extents(dims, yaw)
        cx = q4(rng.uniform(ex / 2, length - ex / 2))
        cy = q4(rng.uniform(ey / 2, width - ey / 2))
        if i:
            specs.append(ObjectSpec(f"blk_{i}", "b", dims))
        placed.append(PlacedObject(specs[-1].id, cx, cy, 0.0, yaw, Parent.floor("r1")))
    region = RegionPlan(
        id="r1", function="t", length=length, width=width, objects=tuple(specs),
        anchor_id="anchor_1", anchor_rule=AnchorRule.ALONG_WALL,
        edges=tuple(Edge(s.id, SpatialRelation.PLACE_AROUND) for s in specs[1:]),
    )
    boxes = []
    for p in placed:
        box = p.aabb(region.spec(p.spec_id).dims)
        boxes.append((box.x0, box.y0, box.x1, box.y1))
    relation = rng.choice([None, *SpatialRelation])
    return SpatialContext(
        scope="r1", object_id="obj_1", region_length=length, region_width=width,
        grid=rasterize(region, placed, cell), placed_boxes=tuple(boxes),
        anchor=placed[0], anchor_dims=anchor_dims,
        object_dims=Dim3(rng.choice([0.4, 0.5, 1.0]) * scale, rng.choice([0.4, 0.5]) * scale, 0.5),
        relation=relation, orientation_rule=rng.choice(list(OrientationRule)) if relation else None,
    )


def translated(ctx: SpatialContext, tx: int, ty: int) -> SpatialContext:
    """The context's whole content moved by (tx, ty) units, and its far
    region bounds with it; the near bounds stay at 0, so boxes that start
    inside the original region have the same bounds verdict."""
    return replace(
        ctx,
        region_length=q4(ctx.region_length + tx / M), region_width=q4(ctx.region_width + ty / M),
        anchor=moved(ctx.anchor, tx, ty),
        placed_boxes=tuple(shifted(b, tx, ty) for b in ctx.placed_boxes),
    )


class TestContextLegality:
    @given(st.integers(0, 2**32 - 1), shifts.map(abs), shifts.map(abs))
    @settings(max_examples=150, deadline=None)
    def test_lattice_and_rejection_are_translation_invariant(self, seed, tx, ty):
        # the lattice's masks and its verdict at every pair, the search's
        # final check
        from treelayout.oracle.queries import _Lattice

        rng = random.Random(seed)
        ctx = random_context(rng)
        moved_ctx = translated(ctx, tx, ty)
        s = ctx.grid.cell_size
        # Run centres of 1-4 cells and random q4 centres, each box starting
        # at or after the region's near walls.
        xs = [units(run_center(c, rng.randint(1, 4), s)) for c in range(ctx.grid.cols)]
        ys = [units(run_center(r, rng.randint(1, 4), s)) for r in range(ctx.grid.rows)]
        xs += [units(q4(rng.uniform(0, ctx.region_length + 0.5))) for _ in range(4)]
        ys += [units(q4(rng.uniform(0, ctx.region_width + 0.5))) for _ in range(4)]
        stride = ctx.grid.stride
        for swap in (False, True):
            hx, hy = ctx.half_extents(swap)
            cxs = tuple(sorted({x for x in xs if x >= hx}))
            cys = tuple(sorted({y for y in ys if y >= hy}))
            assert len(cxs) <= stride  # what a lattice holds
            lattice = _Lattice(ctx, cxs, cys, swap)
            moved = _Lattice(moved_ctx, tuple(x + tx for x in cxs), tuple(y + ty for y in cys), swap)
            assert moved.clear == lattice.clear
            full = (1 << len(cxs)) - 1
            for r in range(len(cys)):
                got = lattice.related(r, lattice.clear >> r * stride & full)
                assert moved.related(r, full) == lattice.related(r, full)
                for c in range(len(cxs)):
                    reason = lattice.verdict(c, r)
                    assert (reason is None) == bool(got >> c & 1)
                    assert moved.verdict(c, r) == reason


def region_local(scene: Scene, plan: RoomPlan):
    """Per region: its offset, its placed floor objects' local poses
    (the room pose moved back by the region offset), in plan order."""
    offset = 0
    for region in plan.regions:
        ids = {s.id for s in region.objects}
        local = [moved(p, -offset, 0) for p in scene.placements if p.spec_id in ids]
        yield region, offset, local
        offset += units(region.length)


def verdicts(region: RegionPlan, placed: list[PlacedObject], x0: int):
    """(bounds, relation) verdict per object of one region whose near wall is at ``x0``."""
    bounds = AABB(x0, 0, x0 + units(region.length), units(region.width))
    by_id = {p.spec_id: p for p in placed}
    anchor = by_id.get(region.anchor_id)
    out = {}
    for p in placed:
        box = p.aabb(region.spec(p.spec_id).dims)
        edge = region.edge_for(p.spec_id)
        related = None
        if edge is not None and anchor is not None:
            related = relation_satisfied(edge.relation, box, anchor,
                                         region.spec(region.anchor_id).dims)
        out[p.spec_id] = (bounds.contains(box), related)
    return out


def generated_scenes():
    """Det scenes of the first shipped prompts in every mode."""
    catalog = AssetCatalog.default()
    for prompt in load_prompts()[:8]:
        for mode in (SearchMode.TREE, SearchMode.COT, SearchMode.IO):
            for p_adv in (0.35, 1.0):
                cfg = SearchConfig(mode=mode, seed=3, p_adv=p_adv)
                oracle = DeterministicOracle(seed=3, p_adv=p_adv, catalog=catalog)
                yield cfg, pipeline.generate_scene(prompt, cfg, oracle, catalog)


class TestComposedScenes:
    def test_room_frame_verdicts_equal_region_frame(self):
        checked = 0
        for cfg, scene in generated_scenes():
            if cfg.mode is SearchMode.IO:
                continue
            for region, offset, local in region_local(scene, scene.plan):
                room = [p for p in scene.placements if p.spec_id in {q.spec_id for q in local}]
                assert verdicts(region, local, 0) == verdicts(region, room, offset)
                checked += len(local)
        assert checked > 0

    def test_validity_metrics_survive_translating_every_region(self):
        rng = random.Random(8)
        for cfg, scene in generated_scenes():
            before = validity_metrics(scene)
            tx = 10 * rng.randint(1, 10**7)  # a leading empty region up to 100 m long
            pad = RegionPlan(id="pad", function="pad", length=tx / M, width=scene.plan.width,
                             objects=(), anchor_id="", anchor_rule=AnchorRule.ALONG_WALL,
                             edges=())
            plan = replace(scene.plan, length=q4(scene.plan.length + tx / M),
                           regions=(pad, *scene.plan.regions))
            shifted_scene = replace(scene, plan=plan,
                                    placements=tuple(moved(p, tx, 0) for p in scene.placements))
            after = validity_metrics(shifted_scene)
            assert (after.overlap_pairs, after.relation_violations, after.placed_ratio) == (
                before.overlap_pairs, before.relation_violations, before.placed_ratio)
            specs = scene.spec_index()
            near_wall_escape = any(p.aabb(specs[p.spec_id].dims).x0 < 0 for p in scene.placements)
            if not near_wall_escape:
                assert after.oob_objects == before.oob_objects
