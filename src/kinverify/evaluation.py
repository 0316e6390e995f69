"""Scoring, threshold calibration, accuracy reports, histograms, AUC, tri fusion.

Verification accuracy is reported per relation with an unweighted macro
average, at a single global threshold calibrated to maximize either that
macro average (default) or plain micro accuracy. The calibrator sweeps the
midpoints of consecutive distinct scores plus one sentinel below and above,
which is exhaustively optimal among all real thresholds for either
objective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .comparator import Activation, ComparatorConfig, ComparatorParams, forward
from .data import EmbeddingStore, KinPair, PairLabel, PairSet, TriSample, TriSet
from .relations import RELATION_ORDER, Gender, KinshipRelation
from .training import TrainConfig, train

# Published RFIW-2020 challenge results for this comparator architecture,
# kept as reference points only. They come from the real challenge data and
# pretrained face features, and are not reproducible from synthetic worlds.
REFERENCE_VERIFICATION_ACCURACY = {
    "Average": 0.736,
    "BB": 0.664,
    "SIBS": 0.760,
    "SS": 0.653,
    "FD": 0.769,
    "FS": 0.801,
    "MD": 0.767,
    "MS": 0.782,
    "GFGD": 0.700,
    "GFGS": 0.734,
    "GMGD": 0.639,
    "GMGS": 0.603,
}
REFERENCE_TRI_ACCURACY = {"Average": 0.73, "FMD": 0.72, "FMS": 0.74}
REFERENCE_RELATION_PREDICTION_ACCURACY = 0.65


class Scorer(enum.Enum):
    COMPARATOR = "comparator"
    COSINE = "cosine"


class Objective(enum.Enum):
    MACRO = "macro"
    MICRO = "micro"


class Direction(enum.Enum):
    HIGHER_IS_KIN = "higher"
    LOWER_IS_KIN = "lower"


@dataclass(frozen=True)
class ScoredPair:
    pair: KinPair
    score: float


def score_pairs(
    params: ComparatorParams | None,
    store: EmbeddingStore,
    pairs: PairSet | list[KinPair],
    scorer: Scorer = Scorer.COMPARATOR,
) -> list[ScoredPair]:
    """Attach a score to every pair.

    Comparator scores are each pair's selected expert probability from an
    eval-mode forward (higher means kin). Cosine scores are cosine
    distances (lower means kin); calibration handles the direction.
    """
    plist = list(pairs)
    if not plist:
        return []
    rows1 = np.array([store.row(p.id1) for p in plist])
    rows2 = np.array([store.row(p.id2) for p in plist])
    m1 = store.matrix[rows1]
    m2 = store.matrix[rows2]
    if scorer is Scorer.COSINE:
        n1 = np.linalg.norm(m1, axis=1)
        n2 = np.linalg.norm(m2, axis=1)
        if np.any(n1 == 0.0) or np.any(n2 == 0.0):
            raise ValueError("cosine distance is undefined for zero-norm embeddings")
        scores = 1.0 - np.sum(m1 * m2, axis=1) / (n1 * n2)
    else:
        if params is None:
            raise ValueError("comparator scoring needs model parameters")
        features = np.concatenate([m1, m2], axis=1)
        pos = np.array([params.config.relation_position(p.relation) for p in plist])
        scores, _ = forward(params, features, mode="eval", positions=pos)
    return [ScoredPair(p, float(s)) for p, s in zip(plist, scores)]


def scorer_direction(scorer: Scorer) -> Direction:
    return Direction.LOWER_IS_KIN if scorer is Scorer.COSINE else Direction.HIGHER_IS_KIN


def filter_relations(
    scored: list[ScoredPair], relations: set[KinshipRelation] | frozenset[KinshipRelation]
) -> list[ScoredPair]:
    return [s for s in scored if s.pair.relation in relations]


def _split_scores(scored: list[ScoredPair]) -> tuple[np.ndarray, np.ndarray]:
    kin = np.array([s.score for s in scored if s.pair.label is PairLabel.KIN])
    non = np.array([s.score for s in scored if s.pair.label is PairLabel.NONKIN])
    return kin, non


def _decisions(scores: np.ndarray, threshold: float, direction: Direction) -> np.ndarray:
    """Kin decisions; ties count as kin in both directions."""
    if direction is Direction.HIGHER_IS_KIN:
        return scores >= threshold
    return scores <= threshold


def calibrate_threshold(
    scored: list[ScoredPair],
    objective: Objective = Objective.MACRO,
    direction: Direction = Direction.HIGHER_IS_KIN,
) -> tuple[float, float]:
    """Best single threshold over all candidate cuts, and its objective value.

    Candidates are the midpoints between consecutive distinct scores plus
    one sentinel below the minimum and one above the maximum. Ties are
    broken toward the smallest threshold.
    """
    if not scored:
        raise ValueError("cannot calibrate on an empty score set")
    kin, non = _split_scores(scored)
    if kin.size == 0 or non.size == 0:
        raise ValueError("calibration needs both kin and nonkin samples")

    distinct = np.unique(np.array([s.score for s in scored]))
    candidates = np.concatenate(
        [[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0]]
    )

    if objective is Objective.MICRO:
        total = kin.size + non.size
        correct = _correct_counts(kin, non, candidates, direction)
        values = correct / total
    else:
        groups: dict[KinshipRelation, list[ScoredPair]] = {}
        for s in scored:
            groups.setdefault(s.pair.relation, []).append(s)
        acc_sum = np.zeros(candidates.size)
        n_groups = 0
        for relation_scored in groups.values():
            k, n = _split_scores(relation_scored)
            acc_sum += _correct_counts(k, n, candidates, direction) / (k.size + n.size)
            n_groups += 1
        values = acc_sum / n_groups

    best = int(np.argmax(values))  # argmax takes the first, i.e. smallest threshold
    return float(candidates[best]), float(values[best])


def calibrate_per_relation(
    scored: list[ScoredPair],
    direction: Direction = Direction.HIGHER_IS_KIN,
) -> dict[str, float]:
    """One threshold per relation, each micro-optimal on its own pairs.

    Extension beyond the published protocol, which calibrates a single
    global threshold; useful as a ceiling when comparing scorers.
    """
    groups: dict[str, list[ScoredPair]] = {}
    for s in scored:
        groups.setdefault(s.pair.relation.value, []).append(s)
    return {
        code: calibrate_threshold(group, Objective.MICRO, direction)[0]
        for code, group in groups.items()
    }


def _correct_counts(
    kin: np.ndarray, non: np.ndarray, thresholds: np.ndarray, direction: Direction
) -> np.ndarray:
    kin_sorted = np.sort(kin)
    non_sorted = np.sort(non)
    if direction is Direction.HIGHER_IS_KIN:
        kin_correct = kin.size - np.searchsorted(kin_sorted, thresholds, side="left")
        non_correct = np.searchsorted(non_sorted, thresholds, side="left")
    else:
        kin_correct = np.searchsorted(kin_sorted, thresholds, side="right")
        non_correct = non.size - np.searchsorted(non_sorted, thresholds, side="right")
    return kin_correct + non_correct


@dataclass(frozen=True)
class ReportRow:
    relation: str
    accuracy: float
    count: int
    auc: float | None = None


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[ReportRow, ...]
    macro_accuracy: float
    threshold: float | dict[str, float]
    direction: Direction
    missing: tuple[str, ...] = ()

    def save_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("relation,accuracy,count\n")
            for row in self.rows:
                fh.write(f"{row.relation},{repr(row.accuracy)},{row.count}\n")
            total = sum(r.count for r in self.rows)
            fh.write(f"macro,{repr(self.macro_accuracy)},{total}\n")


def accuracy_report(
    scored: list[ScoredPair],
    threshold: float | dict[str, float],
    direction: Direction = Direction.HIGHER_IS_KIN,
    include_auc: bool = False,
) -> EvaluationReport:
    """Per-relation accuracies at a fixed threshold, in canonical row order.

    ``threshold`` is normally one global cut; a per-relation mapping (from
    :func:`calibrate_per_relation`) is accepted as the extension mode.
    Relations absent from the input are left out of the macro mean and
    listed under ``missing`` instead of being counted as zero.
    """
    rows: list[ReportRow] = []
    missing: list[str] = []
    for relation in RELATION_ORDER:
        rel_scored = [s for s in scored if s.pair.relation is relation]
        if not rel_scored:
            missing.append(relation.value)
            continue
        cut = threshold[relation.value] if isinstance(threshold, dict) else threshold
        scores = np.array([s.score for s in rel_scored])
        is_kin = np.array([s.pair.label is PairLabel.KIN for s in rel_scored])
        decisions = _decisions(scores, cut, direction)
        acc = float(np.mean(decisions == is_kin))
        rel_auc = None
        if include_auc and is_kin.any() and (~is_kin).any():
            rel_auc = auc(rel_scored, direction)
        rows.append(ReportRow(relation.value, acc, len(rel_scored), rel_auc))
    if not rows:
        raise ValueError("no scored pairs to report on")
    macro = float(np.mean([r.accuracy for r in rows]))
    return EvaluationReport(
        rows=tuple(rows),
        macro_accuracy=macro,
        threshold=threshold,
        direction=direction,
        missing=tuple(missing),
    )


@dataclass(frozen=True)
class HistogramTable:
    edges: np.ndarray  # length n_bins + 1, linear in the range
    kin_counts: np.ndarray
    nonkin_counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.kin_counts)

    def overlap(self) -> float:
        """Sum over bins of the smaller per-class frequency; 0 disjoint, 1 equal."""
        kin_total = self.kin_counts.sum()
        non_total = self.nonkin_counts.sum()
        if kin_total == 0 or non_total == 0:
            raise ValueError("overlap needs both classes")
        return float(
            np.minimum(self.kin_counts / kin_total, self.nonkin_counts / non_total).sum()
        )

    def save_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_lo,bin_hi,kin,nonkin\n")
            for i in range(self.n_bins):
                fh.write(
                    f"{repr(float(self.edges[i]))},{repr(float(self.edges[i + 1]))},"
                    f"{int(self.kin_counts[i])},{int(self.nonkin_counts[i])}\n"
                )


def histogram(
    scored: list[ScoredPair],
    n_bins: int = 50,
    value_range: tuple[float, float] = (0.0, 1.0),
    relations: set[KinshipRelation] | None = None,
) -> HistogramTable:
    """Per-bin kin and nonkin counts over a fixed linear range.

    Use range (0, 1) for comparator scores and (0, 2) for cosine distances.
    Every score must fall inside the range so that counts stay conserved.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, got {n_bins}")
    if relations is not None:
        scored = filter_relations(scored, relations)
    if not scored:
        raise ValueError("cannot build a histogram from no scores")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError(f"invalid range ({lo}, {hi})")
    kin, non = _split_scores(scored)
    values = np.concatenate([kin, non])
    if values.min() < lo or values.max() > hi:
        raise ValueError("scores fall outside the histogram range")
    edges = np.linspace(lo, hi, n_bins + 1)
    kin_counts, _ = np.histogram(kin, bins=edges)
    nonkin_counts, _ = np.histogram(non, bins=edges)
    return HistogramTable(edges=edges, kin_counts=kin_counts, nonkin_counts=nonkin_counts)


def auc(scored: list[ScoredPair], direction: Direction = Direction.HIGHER_IS_KIN) -> float:
    """Probability a random kin pair outranks a random nonkin pair.

    Computed from midrank sums, which equals the pairwise count with ties
    worth one half.
    """
    kin, non = _split_scores(scored)
    if kin.size == 0 or non.size == 0:
        raise ValueError("AUC needs both kin and nonkin samples")
    if direction is Direction.LOWER_IS_KIN:
        kin, non = -kin, -non
    values = np.concatenate([kin, non])
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = ends - (counts - 1) / 2.0
    ranks = midranks[inverse]
    u = ranks[: kin.size].sum() - kin.size * (kin.size + 1) / 2.0
    return float(u / (kin.size * non.size))


def tri_score(
    params: ComparatorParams, store: EmbeddingStore, sample: TriSample
) -> tuple[float, float, float]:
    """Score a (father, mother, child) triple; the fusion is the exact mean.

    The triple splits into a father-child and a mother-child pair whose
    relations follow the child's gender (FS/FD and MS/MD).
    """
    fc, mc = _tri_relations(sample.child_gender)
    cfg = params.config
    z_f, _ = forward(
        params,
        _concat_rows(store, sample.father_id, sample.child_id),
        positions=cfg.relation_position(fc),
    )
    z_m, _ = forward(
        params,
        _concat_rows(store, sample.mother_id, sample.child_id),
        positions=cfg.relation_position(mc),
    )
    z_fc, z_mc = float(z_f), float(z_m)
    return z_fc, z_mc, (z_fc + z_mc) / 2.0


def _tri_relations(child_gender: Gender) -> tuple[KinshipRelation, KinshipRelation]:
    if child_gender is Gender.MALE:
        return KinshipRelation.FS, KinshipRelation.MS
    return KinshipRelation.FD, KinshipRelation.MD


def _concat_rows(store: EmbeddingStore, id1: str, id2: str) -> np.ndarray:
    return np.concatenate([store.embedding(id1), store.embedding(id2)])


def score_tris(
    params: ComparatorParams, store: EmbeddingStore, tris: TriSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tri scoring: (father scores, mother scores, fused, targets)."""
    samples = list(tris)
    if not samples:
        raise ValueError("empty tri set")
    rows_f = np.array([store.row(t.father_id) for t in samples])
    rows_m = np.array([store.row(t.mother_id) for t in samples])
    rows_c = np.array([store.row(t.child_id) for t in samples])
    feats_f = np.concatenate([store.matrix[rows_f], store.matrix[rows_c]], axis=1)
    feats_m = np.concatenate([store.matrix[rows_m], store.matrix[rows_c]], axis=1)
    pos_f = np.array(
        [params.config.relation_position(_tri_relations(t.child_gender)[0]) for t in samples]
    )
    pos_m = np.array(
        [params.config.relation_position(_tri_relations(t.child_gender)[1]) for t in samples]
    )
    z_fc, _ = forward(params, feats_f, mode="eval", positions=pos_f)
    z_mc, _ = forward(params, feats_m, mode="eval", positions=pos_m)
    targets = np.array([1.0 if t.label is PairLabel.KIN else 0.0 for t in samples])
    return z_fc, z_mc, (z_fc + z_mc) / 2.0, targets


def binary_accuracy_best_threshold(scores: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Best micro accuracy for raw kin-probability scores (higher is kin)."""
    dummy = [
        ScoredPair(
            KinPair("a", "b", KinshipRelation.BB, PairLabel.KIN if t else PairLabel.NONKIN),
            float(s),
        )
        for s, t in zip(scores, targets)
    ]
    return calibrate_threshold(dummy, objective=Objective.MICRO)


@dataclass(frozen=True)
class AblationCell:
    activation: str
    dropout_p: float
    hidden: int


@dataclass(frozen=True)
class AblationResult:
    cell: AblationCell
    accuracy: float


def default_ablation_grid() -> tuple[AblationCell, ...]:
    """The standard sweep: activations, dropout rates, layer sizes, default.

    One cell per row of the published parameter study: three alternative
    activations at the default dropout/size, four alternative dropout rates,
    five alternative hidden sizes, then the default setting itself.
    """
    cells = [AblationCell(a, 0.2, 192) for a in ("relu", "prelu", "tanh")]
    cells += [AblationCell("lrelu", p, 192) for p in (0.0, 0.1, 0.3, 0.4)]
    cells += [AblationCell("lrelu", 0.2, h) for h in (64, 128, 256, 512, 1024)]
    cells.append(AblationCell("lrelu", 0.2, 192))
    return tuple(cells)


def ablation_run(
    store: EmbeddingStore,
    kin_pairs: PairSet,
    val_pairs: PairSet,
    input_dim: int,
    train_config: TrainConfig,
    grid: tuple[AblationCell, ...] | None = None,
    objective: Objective = Objective.MACRO,
) -> list[AblationResult]:
    """Train one model per grid cell with a shared seed; report val accuracy.

    Cells are independent (each gets a fresh model from the same seed) and
    run in grid order, so the output is deterministic row for row.
    """
    grid = grid if grid is not None else default_ablation_grid()
    if not grid:
        raise ValueError("empty ablation grid")
    results: list[AblationResult] = []
    for cell in grid:
        cfg = ComparatorConfig(
            input_dim=input_dim,
            hidden=cell.hidden,
            activation=Activation(cell.activation),
            dropout_p=cell.dropout_p,
        )
        params, _ = train(store, kin_pairs, val_pairs, cfg, train_config)
        scored = score_pairs(params, store, val_pairs)
        _, acc = calibrate_threshold(scored, objective=objective)
        results.append(AblationResult(cell, acc))
    return results


def save_ablation_csv(results: list[AblationResult], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("activation,dropout,hidden,accuracy\n")
        for r in results:
            fh.write(
                f"{r.cell.activation},{repr(r.cell.dropout_p)},{r.cell.hidden},{repr(r.accuracy)}\n"
            )
