"""Scoring, threshold calibration, accuracy reports, histograms, AUC, tri fusion.

Verification accuracy is reported per relation with an unweighted macro
average, at a single global threshold calibrated to maximize either that
macro average (default) or plain micro accuracy. The calibrator sweeps the
midpoints of consecutive distinct scores, the smallest score and the next
float above the largest, which is exhaustively optimal among all real
thresholds for either objective.

Scores are higher-is-kin everywhere: a pair whose score is at or above the
threshold is called kin (ties count as kin), and AUC ranks kin above
nonkin. Cosine distances run the other way, so callers that calibrate or
rank them pass the negated distances; negation is exact, so the midpoints,
accuracies and AUC are those of a lower-is-kin rule.

``score_pairs`` returns a :class:`ScoredSet`: the scored ``PairSet`` and
its score column, which iterates as :class:`ScoredPair` objects built one
at a time. Every other public function here takes a ``ScoredSet`` or a
list of ``ScoredPair`` and runs on three columns: the scores and the pair
set's relation index and kin bit.
Nothing here trains: the ablation grid, which trains and then scores one
model per cell, lives in :mod:`kinverify.training`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .comparator import EVAL_BLOCK_ROWS, ComparatorParams, _cascade, stable_sigmoid
from .data import EmbeddingStore, KinPair, PairSet, TriSample, TriSet
from .data import _KIN, _LABELS, _gather_features, _pair_rows, _write_rows
from .relations import CANONICAL_RELATION_CODES, PARENT_CHILD_INDEX, RELATION_ORDER, Gender


class Scorer(enum.Enum):
    COMPARATOR = "comparator"
    COSINE = "cosine"


class Objective(enum.Enum):
    MACRO = "macro"
    MICRO = "micro"


@dataclass(frozen=True, slots=True)
class ScoredPair:
    pair: KinPair
    score: float


@dataclass(frozen=True, eq=False)
class ScoredSet:
    """A scored ``PairSet``: pair ``i`` of ``pairs`` has score ``scores[i]``.

    The scores column is taken over without a copy and marked read-only.
    Iteration yields ``ScoredPair`` objects one at a time, from the pair
    set's ``KinPair`` tuple.
    """

    pairs: PairSet
    scores: np.ndarray  # float64

    def __post_init__(self):
        self.scores.setflags(write=False)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return map(ScoredPair, self.pairs, self.scores.tolist())


def score_pairs(
    params: ComparatorParams | None,
    store: EmbeddingStore,
    pairs: PairSet | list[KinPair],
    scorer: Scorer = Scorer.COMPARATOR,
) -> ScoredSet:
    """Attach a score to every pair.

    Comparator scores are each pair's selected expert probability from an
    eval-mode forward (higher means kin), gathered one block at a time
    (see ``_selected_probs``). Cosine scores are cosine distances (lower
    means kin), computed one block of ``EVAL_BLOCK_ROWS`` pairs at a time;
    negate them before calibrating or ranking. The result keeps a
    ``PairSet`` itself; a list is scored as the ``PairSet`` of its pairs.
    """
    pairs = pairs if isinstance(pairs, PairSet) else PairSet(tuple(pairs))
    if scorer is Scorer.COSINE:
        rows1, rows2, _, _ = _pair_rows(store, pairs, CANONICAL_RELATION_CODES)
        scores = _cosine_distances(store.matrix, rows1, rows2)
    else:
        if params is None:
            raise ValueError("comparator scoring needs model parameters")
        rows1, rows2, pos, _ = _pair_rows(store, pairs, params.config.relations)
        scores = _selected_probs(params, store.matrix, rows1, rows2, pos)
    return ScoredSet(pairs, scores)


def _cosine_distances(matrix: np.ndarray, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """1 - cos of the embeddings of each row pair, one block of pairs at a time.

    Each block takes only its two sides' rows of ``matrix``. Every step is
    row-wise, so a block's distances have the bits of one pass over all pairs.
    """
    out = np.empty(len(rows1), dtype=np.float64)
    for b0 in range(0, len(rows1), EVAL_BLOCK_ROWS):
        b = slice(b0, b0 + EVAL_BLOCK_ROWS)
        m1, m2 = matrix[rows1[b]], matrix[rows2[b]]
        n1 = np.linalg.norm(m1, axis=1)
        n2 = np.linalg.norm(m2, axis=1)
        if np.any(n1 == 0.0) or np.any(n2 == 0.0):
            raise ValueError("cosine distance is undefined for zero-norm embeddings")
        out[b] = 1.0 - np.sum(m1 * m2, axis=1) / (n1 * n2)
    return out


def _selected_probs(params: ComparatorParams, matrix, rows1, rows2, pos) -> np.ndarray:
    """Selected eval probability of each pair, given by the store rows of ``_pair_rows``.

    The probabilities are those of ``forward`` on the ``pairs_to_arrays``
    features, bit for bit, but ``_cascade`` gathers each block's rows
    from ``matrix``, the store's embeddings, and applies ``stable_sigmoid``
    block by block.
    """

    def gather(rows):
        return _gather_features(matrix, rows1[rows], rows2[rows])

    return _cascade(params, len(pos), gather, pos, lambda _, logits: stable_sigmoid(logits))[2]


# The array core: each public function taking ``scored`` gets its aligned
# (scores, rel, is_kin) columns once and works only on those.


def _columns(scored: ScoredSet | list[ScoredPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, canonical relation index, is_kin) of scored pairs.

    A ``ScoredSet`` hands over its scores and its pairs' columns; a list is
    converted to one first. A NaN or infinite score raises ValueError naming
    the first such pair: it would be ranked, binned or calibrated as if it
    were a score.
    """
    if not isinstance(scored, ScoredSet):
        scores = np.array([s.score for s in scored], dtype=np.float64)
        scored = ScoredSet(PairSet(tuple(s.pair for s in scored)), scores)
    scores, rel, is_kin = scored.scores, scored.pairs.rel, scored.pairs.label == _KIN
    if not np.isfinite(scores).all():
        i = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise ValueError(f"scored pair {i} has a non-finite score {float(scores[i])!r}")
    return scores, rel, is_kin


def _first_appearance(rel: np.ndarray) -> np.ndarray:
    """The distinct relation labels, in the order each first appears."""
    present, first = np.unique(rel, return_index=True)
    return present[np.argsort(first)]


def _correct_counts(kin: np.ndarray, non: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Correct calls at each threshold: kin at or above it, nonkin below it."""
    kin_correct = kin.size - np.searchsorted(np.sort(kin), thresholds, side="left")
    return kin_correct + np.searchsorted(np.sort(non), thresholds, side="left")


def _calibrate(
    scores: np.ndarray,
    is_kin: np.ndarray,
    rel: np.ndarray | None,
    objective: Objective,
) -> tuple[float, float]:
    """Best cut over all candidate cuts, and its objective value.

    MACRO adds the per-``rel``-group accuracies in the order in which each
    group first appears, as a dict of groups would; MICRO ignores ``rel``.
    """
    if scores.size == 0:
        raise ValueError("cannot calibrate on an empty score set")
    if is_kin.all() or not is_kin.any():
        raise ValueError("calibration needs both kin and nonkin samples")

    distinct = np.unique(scores)
    candidates = np.concatenate(
        [distinct[:1], (distinct[:-1] + distinct[1:]) / 2.0, [np.nextafter(distinct[-1], np.inf)]]
    )
    if objective is Objective.MICRO:
        correct = _correct_counts(scores[is_kin], scores[~is_kin], candidates)
        values = correct / scores.size
    else:
        groups = _first_appearance(rel)
        acc_sum = np.zeros(candidates.size)
        for g in groups:
            mask = rel == g
            k, n = scores[mask & is_kin], scores[mask & ~is_kin]
            acc_sum += _correct_counts(k, n, candidates) / (k.size + n.size)
        values = acc_sum / groups.size

    best = int(np.argmax(values))  # argmax takes the first, i.e. smallest threshold
    return float(candidates[best]), float(values[best])


def _auc(scores: np.ndarray, is_kin: np.ndarray) -> float:
    kin, non = scores[is_kin], scores[~is_kin]
    if kin.size == 0 or non.size == 0:
        raise ValueError("AUC needs both kin and nonkin samples")
    values = np.concatenate([kin, non])
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = ends - (counts - 1) / 2.0
    ranks = midranks[inverse]
    u = ranks[: kin.size].sum() - kin.size * (kin.size + 1) / 2.0
    return float(u / (kin.size * non.size))


def calibrate_threshold(
    scored: ScoredSet | list[ScoredPair], objective: Objective = Objective.MACRO
) -> tuple[float, float]:
    """Best single threshold over all candidate cuts, and its objective value.

    Candidates are the midpoints between consecutive distinct scores, the
    smallest score, which calls every pair kin, and the next float above the
    largest, which calls none kin. So a probability's cut lies in [0, 1]
    unless a score is exactly 1.0.
    Ties are broken toward the smallest threshold.
    """
    scores, rel, is_kin = _columns(scored)
    return _calibrate(scores, is_kin, rel, objective)


def calibrate_per_relation(scored: ScoredSet | list[ScoredPair]) -> dict[str, float]:
    """One threshold per relation, each micro-optimal on its own pairs.

    Extension beyond the published protocol, which calibrates a single
    global threshold; useful as a ceiling when comparing scorers.
    """
    scores, rel, is_kin = _columns(scored)
    thresholds = {}
    for g in _first_appearance(rel):
        mask = rel == g
        code = RELATION_ORDER[g].value
        try:
            thresholds[code], _ = _calibrate(scores[mask], is_kin[mask], None, Objective.MICRO)
        except ValueError as exc:
            raise ValueError(f"relation {code}: {exc}") from None
    return thresholds


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
    missing: tuple[str, ...] = ()

    def save_csv(self, path: str | Path) -> None:
        rows = [(r.relation, repr(r.accuracy), str(r.count)) for r in self.rows]
        total = sum(r.count for r in self.rows)
        rows.append(("macro", repr(self.macro_accuracy), str(total)))
        _write_rows(path, "relation,accuracy,count", rows)


def accuracy_report(
    scored: ScoredSet | list[ScoredPair],
    threshold: float | dict[str, float],
    include_auc: bool = False,
) -> EvaluationReport:
    """Per-relation accuracies at a fixed threshold, in canonical row order.

    ``threshold`` is normally one global cut; a per-relation mapping (from
    :func:`calibrate_per_relation`) is accepted as the extension mode; it
    must hold every relation present, or a ValueError names those it lacks.
    A NaN threshold, global or for a relation, raises ValueError; finite
    thresholds outside [0, 1] are legal, as negated cosine distances need.
    Relations absent from the input are left out of the macro mean and
    listed under ``missing`` instead of being counted as zero.
    """
    scores, rel, is_kin = _columns(scored)
    counts = np.bincount(rel, minlength=len(RELATION_ORDER))
    present = np.flatnonzero(counts)
    if present.size == 0:
        raise ValueError("no scored pairs to report on")
    cut = threshold
    if isinstance(threshold, dict):
        codes = [RELATION_ORDER[i].value for i in present]
        lacking = [code for code in codes if code not in threshold]
        if lacking:
            raise ValueError(f"no threshold for relation(s) {', '.join(lacking)}")
        nan = [code for code in codes if np.isnan(threshold[code])]
        if nan:
            raise ValueError(f"NaN threshold for relation(s) {', '.join(nan)}")
        cut_of = np.zeros(len(RELATION_ORDER))
        cut_of[present] = [threshold[code] for code in codes]
        cut = cut_of[rel]
    elif np.isnan(threshold):
        raise ValueError("NaN threshold")
    correct = (scores >= cut) == is_kin  # ties count as kin
    hits = np.bincount(rel, weights=correct, minlength=len(RELATION_ORDER))

    rows: list[ReportRow] = []
    for i in present:
        rel_auc = None
        if include_auc:
            mask = rel == i
            if is_kin[mask].any() and not is_kin[mask].all():
                rel_auc = _auc(scores[mask], is_kin[mask])
        rows.append(
            ReportRow(RELATION_ORDER[i].value, float(hits[i] / counts[i]), int(counts[i]), rel_auc)
        )
    return EvaluationReport(
        rows=tuple(rows),
        macro_accuracy=float(np.mean([r.accuracy for r in rows])),
        threshold=threshold,
        missing=tuple(r.value for r, c in zip(RELATION_ORDER, counts) if c == 0),
    )


@dataclass(frozen=True)
class HistogramTable:
    edges: np.ndarray  # length n_bins + 1, linear in the range
    kin_counts: np.ndarray
    nonkin_counts: np.ndarray

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
        bins = zip(self.edges, self.edges[1:], self.kin_counts, self.nonkin_counts)
        rows = ((repr(float(a)), repr(float(b)), str(int(k)), str(int(n))) for a, b, k, n in bins)
        _write_rows(path, "bin_lo,bin_hi,kin,nonkin", rows)


def histogram(
    scored: ScoredSet | list[ScoredPair], n_bins: int, value_range: tuple[float, float]
) -> HistogramTable:
    """Per-bin kin and nonkin counts over a fixed, finite linear range.

    Use range (0, 1) for comparator scores and (0, 2) for cosine distances.
    Every score must fall inside the range so that counts stay conserved.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, got {n_bins}")
    scores, _, is_kin = _columns(scored)
    if scores.size == 0:
        raise ValueError("cannot build a histogram from no scores")
    lo, hi = value_range
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):  # inf gives NaN edges
        raise ValueError(f"invalid range ({lo}, {hi})")
    if scores.min() < lo or scores.max() > hi:
        raise ValueError("scores fall outside the histogram range")
    edges = np.linspace(lo, hi, n_bins + 1)
    kin_counts, _ = np.histogram(scores[is_kin], bins=edges)
    nonkin_counts, _ = np.histogram(scores[~is_kin], bins=edges)
    return HistogramTable(edges=edges, kin_counts=kin_counts, nonkin_counts=nonkin_counts)


def auc(scored: ScoredSet | list[ScoredPair]) -> float:
    """Probability a random kin pair outranks a random nonkin pair.

    Computed from midrank sums, which equals the pairwise count with ties
    worth one half.
    """
    scores, _, is_kin = _columns(scored)
    return _auc(scores, is_kin)


def score_tris(
    params: ComparatorParams, store: EmbeddingStore, tris: TriSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tri scoring: (father scores, mother scores, fused, targets).

    A triple splits into a father-child and a mother-child pair (FS/FD and
    MS/MD by the child's gender); all of them run stacked through one
    relation-prefix eval loop (``_selected_probs``). The fusion is the exact mean.
    """
    samples = list(tris)
    if not samples:
        raise ValueError("empty tri set")
    n = len(samples)
    male = [t.child_gender is Gender.MALE for t in samples]
    pairs = PairSet._from_columns(  # the father-child pairs, then the mother-child pairs
        tuple(t.father_id for t in samples) + tuple(t.mother_id for t in samples),
        tuple(t.child_id for t in samples) * 2,
        np.array([PARENT_CHILD_INDEX[parent][child] for parent in (1, 0) for child in male]),
        np.array([_LABELS.index(t.label) for t in samples] * 2, dtype=np.int8),
    )
    rows1, rows2, pos, targets = _pair_rows(store, pairs, params.config.relations)
    z = _selected_probs(params, store.matrix, rows1, rows2, pos)
    z_fc, z_mc = z[:n], z[n:]
    return z_fc, z_mc, (z_fc + z_mc) / 2.0, targets[:n]


def tri_score(
    params: ComparatorParams, store: EmbeddingStore, sample: TriSample
) -> tuple[float, float, float]:
    """Score one (father, mother, child) triple: (z_fc, z_mc, fused)."""
    z_fc, z_mc, fused, _ = score_tris(params, store, TriSet((sample,)))
    return float(z_fc[0]), float(z_mc[0]), float(fused[0])
