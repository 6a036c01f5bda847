"""Geometric validity metrics and search statistics.

These stand in for perceptual scoring: a sound engine must produce
zero overlap, zero out-of-bounds, and zero relation violations in
tree and CoT modes, and the ablation report compares modes on exactly
those grounds plus the placed-object ratio.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from treelayout.grid import relation_satisfied
from treelayout.model import (
    AABB,
    EventKind,
    Scene,
    SearchConfig,
    SearchTrace,
    local_anchor,
    units,
)


@dataclass(frozen=True)
class ValidityMetrics:
    overlap_pairs: int
    oob_objects: int
    relation_violations: int
    placed_ratio: float
    free_area_ratio: float

    def clean(self) -> bool:
        return self.overlap_pairs == 0 and self.oob_objects == 0 and self.relation_violations == 0


def validity_metrics(scene: Scene, config: SearchConfig | None = None) -> ValidityMetrics:
    """Count geometric violations of a composed scene.

    Overlaps are counted between objects at the same support level
    (floor vs floor, or siblings on the same supporter).  Out-of-bounds
    means a floor footprint escaping the room or a supported footprint
    escaping its supporter top face (or sitting at the wrong height).
    Every test is exact: boxes are in units, heights are q4 values.
    """
    cfg = config if config is not None else SearchConfig()
    specs = scene.spec_index()
    room = AABB(0, 0, units(scene.plan.length), units(scene.plan.width))
    by_id = {p.spec_id: p for p in scene.placements}

    boxes = {p.spec_id: p.aabb(specs[p.spec_id].dims) for p in scene.placements}
    overlap_pairs = 0
    placements = list(scene.placements)
    for i, a in enumerate(placements):
        for b in placements[i + 1:]:
            if a.parent != b.parent:
                continue
            if boxes[a.spec_id].overlaps(boxes[b.spec_id]):
                overlap_pairs += 1

    oob = 0
    for p in placements:
        if p.parent.kind == "floor":
            bounds, height = room, 0.0
        elif p.parent.ref in boxes:
            bounds, height = boxes[p.parent.ref], specs[p.parent.ref].dims.height
        else:
            oob += 1
            continue
        oob += not bounds.contains(boxes[p.spec_id]) or p.z != height

    anchored_edges = []  # (anchor id, edges that relate to it)
    for region in scene.plan.regions:
        anchored_edges.append((region.anchor_id, region.edges))
        for sub in region.supported.values():
            if sub.objects:
                anchored_edges.append((local_anchor(sub.objects).id, sub.edges))
    relation_violations = sum(
        not relation_satisfied(edge.relation, boxes[edge.object_id], by_id[anchor_id],
                               specs[anchor_id].dims, cfg.d_front, cfg.d_beside, cfg.d_around)
        for anchor_id, edges in anchored_edges if anchor_id in by_id
        for edge in edges if edge.object_id in by_id
    )

    total_specs = len(scene.plan.all_specs())
    placed_ratio = len(placements) / total_specs if total_specs else 1.0
    floor_area = sum(
        specs[p.spec_id].dims.footprint_area for p in placements if p.parent.kind == "floor"
    )
    room_area = scene.plan.length * scene.plan.width
    free_area_ratio = 1.0 - floor_area / room_area if room_area else 0.0
    return ValidityMetrics(
        overlap_pairs=overlap_pairs,
        oob_objects=oob,
        relation_violations=relation_violations,
        placed_ratio=placed_ratio,
        free_area_ratio=free_area_ratio,
    )


@dataclass(frozen=True)
class SearchStats:
    oracle_calls: int
    backtracks: int
    attempts_per_layer: dict[tuple[str, int], int]
    wall_events: int


def search_stats(trace: SearchTrace) -> SearchStats:
    """Aggregate a trace: per (scope, layer, visit) attempt maxima are
    collapsed to the per-(scope, layer) maximum over visits."""
    attempts: dict[tuple[str, int, int], int] = {}
    for e in trace.events:
        if e.visit is None or e.layer < 1:
            continue
        key = (e.scope, e.layer, e.visit)
        attempts[key] = max(attempts.get(key, 0), e.attempt_no)
    per_layer: dict[tuple[str, int], int] = {}
    for (scope, layer, _visit), n in attempts.items():
        per_layer[(scope, layer)] = max(per_layer.get((scope, layer), 0), n)
    return SearchStats(
        oracle_calls=trace.oracle_calls,
        backtracks=trace.count(EventKind.BACKTRACK),
        attempts_per_layer=per_layer,
        wall_events=len(trace.events),
    )


def anchor_visits(trace: SearchTrace, scope: str) -> int:
    """Number of anchor-layer visits in one scope: distinct visit ordinals
    on layer-1 attempt events (backtracks mark the end of a visit)."""
    return len({
        e.visit for e in trace.events
        if e.layer == 1 and e.kind is not EventKind.BACKTRACK
        and e.scope == scope and e.visit is not None
    })


class MismatchedSeeds(ValueError):
    pass


@dataclass(frozen=True)
class AblationRow:
    mode: str
    runs: int
    placed_ratio_mean: float
    placed_ratio_std: float
    overlap_mean: float
    oob_mean: float
    relation_mean: float
    free_area_mean: float


def ablation_report(
    scenes_per_mode: dict[str, list[tuple[int, Scene]]],
    config: SearchConfig | None = None,
    required_modes: tuple[str, ...] = ("io", "cot", "tree"),
) -> list[AblationRow]:
    """Mode-by-mode means over identical seed sets, rows ordered IO, CoT, Tree."""
    expected = tuple(m for m in ("io", "cot", "tree") if m in required_modes)
    for mode in expected:
        if mode not in scenes_per_mode:
            raise MismatchedSeeds(f"missing mode {mode}")
    seed_sets = {mode: sorted(seed for seed, _ in rows) for mode, rows in scenes_per_mode.items()}
    baseline = seed_sets[expected[0]]
    for mode, seeds in seed_sets.items():
        if seeds != baseline:
            raise MismatchedSeeds(f"seed set of {mode} differs from {expected[0]}")
    out: list[AblationRow] = []
    for mode in expected:
        metrics = [validity_metrics(scene, config) for _, scene in scenes_per_mode[mode]]
        ratios = [m.placed_ratio for m in metrics]
        out.append(
            AblationRow(
                mode=mode,
                runs=len(metrics),
                placed_ratio_mean=statistics.fmean(ratios),
                placed_ratio_std=statistics.pstdev(ratios) if len(ratios) > 1 else 0.0,
                overlap_mean=statistics.fmean(m.overlap_pairs for m in metrics),
                oob_mean=statistics.fmean(m.oob_objects for m in metrics),
                relation_mean=statistics.fmean(m.relation_violations for m in metrics),
                free_area_mean=statistics.fmean(m.free_area_ratio for m in metrics),
            )
        )
    return out


def format_ablation_table(rows: list[AblationRow]) -> tuple[str, str]:
    """(csv, human-readable) renderings of an ablation report."""
    header = "mode,runs,placed_ratio_mean,placed_ratio_std,overlap_mean,oob_mean,relation_mean,free_area_mean"
    csv_lines = [header]
    for r in rows:
        csv_lines.append(
            f"{r.mode},{r.runs},{r.placed_ratio_mean:.4f},{r.placed_ratio_std:.4f},"
            f"{r.overlap_mean:.4f},{r.oob_mean:.4f},{r.relation_mean:.4f},{r.free_area_mean:.4f}"
        )
    text_lines = [
        f"{'mode':<6} {'runs':>4} {'placed':>14} {'overlap':>8} {'oob':>6} {'relation':>9} {'free':>6}"
    ]
    for r in rows:
        text_lines.append(
            f"{r.mode:<6} {r.runs:>4} {r.placed_ratio_mean:>7.3f}±{r.placed_ratio_std:<6.3f}"
            f" {r.overlap_mean:>8.3f} {r.oob_mean:>6.3f} {r.relation_mean:>9.3f}"
            f" {r.free_area_mean:>6.3f}"
        )
    return "\n".join(csv_lines) + "\n", "\n".join(text_lines) + "\n"
