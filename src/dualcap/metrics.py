"""Caption quality metrics: BLEU-1..4, ROUGE-L, METEOR, CIDEr.

All metrics share one tokenization (the decoder's) and one container, a
:class:`ScoredCorpus` of (candidate, references) pairs per image.  On
first use the corpus counts every caption once, all n-gram orders in
one call (:func:`_ngram_counts`), into plain dicts that keep each
order's n-grams in order of first occurrence; BLEU-1..4 and CIDEr all
read those counts (:meth:`ScoredCorpus.ngrams`), so :func:`score_report`
counts every caption once.  Float sums run in a fixed order (CIDEr's
over a candidate's n-grams in order of first occurrence), so every value
is reproducible bit for bit.  Definitions follow the standard formulations:

* BLEU: corpus-level clipped modified n-gram precision with the closest
  reference length for the brevity penalty (ties go to the shorter
  reference).  Unsmoothed: an order with no clipped match scores zero.
* ROUGE-L: per image, the max over references of the LCS-based F-score
  with beta = 1.2 (ROUGE_BETA); the corpus score is the mean over images.
  The LCS is the dynamic program's table, kept one row at a time.
* METEOR: exact unigram matching only (no stems or synonyms).  The
  fragmentation penalty uses the minimal chunk count over all maximum
  alignments.  When neither side repeats a word the maximum alignment
  is unique and one pass counts it; otherwise an exact search branches
  only where a maximum alignment can still be reached (exponential in
  the worst case).
* CIDEr: TF-IDF weighted n-gram cosine similarity, n = 1..4
  (CIDER_MAX_N), averaged over n and references, scaled by 10.  IDF
  comes from the corpus itself, so a single-image corpus degenerates to
  all-zero IDF and a warning is raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import ContractError
from .textdec import tokenize

ROUGE_BETA = 1.2
CIDER_MAX_N = 4


@dataclass(frozen=True)
class CorpusEntry:
    image_id: str
    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class NgramCounts:
    """One n-gram order over a corpus, counted once and read by every metric.

    Lists run over the corpus entries; each count is a dict from n-gram
    (a tuple of tokens) to count, in order of first occurrence.
    ``ref_max`` holds each n-gram's largest count in any one reference;
    ``clipped`` and ``total`` are BLEU's corpus numerator and
    denominator for this order.
    """

    candidates: list[dict]
    references: list[list[dict]]
    ref_max: list[dict]
    clipped: int
    total: int


class ScoredCorpus:
    """Candidate and reference token sequences, one entry per image."""

    def __init__(self, entries: Sequence[CorpusEntry]):
        if not entries:
            raise ContractError("ScoredCorpus: need at least one entry")
        seen = set()
        for e in entries:
            if e.image_id in seen:
                raise ContractError(f"ScoredCorpus: duplicate image id {e.image_id!r}")
            seen.add(e.image_id)
            if not e.references:
                raise ContractError(f"ScoredCorpus: image {e.image_id!r} has no references")
            if any(len(r) == 0 for r in e.references):
                raise ContractError(f"ScoredCorpus: image {e.image_id!r} has an empty reference")
        self.entries = list(entries)
        self._counts: list[NgramCounts] | None = None

    @classmethod
    def from_texts(cls, items: Mapping[str, tuple[str, Sequence[str]]]) -> "ScoredCorpus":
        """Build from raw strings: image_id -> (candidate, references)."""
        entries = []
        for image_id, (candidate, references) in items.items():
            if isinstance(references, str):
                raise ContractError(
                    f"ScoredCorpus: image {str(image_id)!r} references must be a list of strings, "
                    f"not the string {references!r}")
            entries.append(CorpusEntry(
                image_id=str(image_id),
                candidate=tuple(tokenize(candidate)),
                references=tuple(tuple(tokenize(r)) for r in references),
            ))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def ngrams(self, n: int) -> NgramCounts:
        """The order-n counts of every caption, n in 1..CIDER_MAX_N.

        The first call counts every order of every caption and keeps
        them, so the entries must not change once a metric has read them.
        """
        if not 1 <= n <= CIDER_MAX_N:
            raise ContractError(f"ngrams: n must be in 1..{CIDER_MAX_N}, got {n}")
        if self._counts is None:
            self._counts = _count_orders(self.entries)
        return self._counts[n - 1]


def _ngram_counts(tokens: Sequence[str]) -> list[dict]:
    """One caption's n-gram counts for n = 1..CIDER_MAX_N, each order's
    n-grams in order of first occurrence (the order Counter(zip(...)) gives)."""
    tokens = tuple(tokens)
    orders = []
    for n in range(1, CIDER_MAX_N + 1):
        counts: dict[tuple[str, ...], int] = {}
        for i in range(len(tokens) - n + 1):
            gram = tokens[i:i + n]
            counts[gram] = counts.get(gram, 0) + 1
        orders.append(counts)
    return orders


def _count_orders(entries: Sequence[CorpusEntry]) -> list[NgramCounts]:
    """Every order's NgramCounts, from one _ngram_counts call per caption."""
    cands = [_ngram_counts(e.candidate) for e in entries]
    refs = [list(zip(*map(_ngram_counts, e.references))) for e in entries]  # per entry, per order: its references' counts
    ref_max = [list(map(_max_counts, rs)) for rs in refs]
    orders = []
    for k in range(CIDER_MAX_N):
        clipped = 0
        for cand, maxima in zip(cands, ref_max):
            most = maxima[k]
            for gram, count in cand[k].items():
                cap = most.get(gram)
                if cap:
                    clipped += count if count < cap else cap
        total = sum(max(len(e.candidate) - k, 0) for e in entries)
        orders.append(NgramCounts([c[k] for c in cands], [list(r[k]) for r in refs], [m[k] for m in ref_max], clipped, total))
    return orders


def _max_counts(counts: Sequence[dict]) -> dict:
    """Each n-gram's largest count in any one of ``counts``."""
    if len(counts) == 1:
        return counts[0]
    most = dict(counts[0])
    for other in counts[1:]:
        for gram, count in other.items():
            if count > most.get(gram, 0):
                most[gram] = count
    return most


# ---------------------------------------------------------------------------
# BLEU


def _closest_ref_length(cand_len: int, ref_lens: Sequence[int]) -> int:
    """Reference length closest to the candidate's; ties to the shorter."""
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def bleu(corpus: ScoredCorpus, n: int = 4) -> float:
    """Corpus-level BLEU-n: geometric mean of clipped k-gram precisions.

    Numerators and denominators accumulate over the whole corpus before
    the ratio (they are the corpus's :class:`NgramCounts`, shared by
    every BLEU order), and the brevity penalty compares total candidate
    length against the summed closest reference lengths.
    """
    if not 1 <= n <= 4:
        raise ContractError(f"bleu: n must be in 1..4, got {n}")
    cand_total = 0
    ref_total = 0
    for e in corpus.entries:
        cand_total += len(e.candidate)
        ref_total += _closest_ref_length(len(e.candidate), [len(r) for r in e.references])
    if cand_total == 0:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        counts = corpus.ngrams(k)
        num, den = counts.clipped, counts.total
        if num == 0:
            return 0.0  # no clipped k-gram match, or a candidate too short for any k-gram
        log_sum += math.log(num / den)
    brevity = 1.0 if cand_total > ref_total else math.exp(1.0 - ref_total / cand_total)
    return brevity * math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# ROUGE-L


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length: the dynamic program's table, one row at a time."""
    row = [0] * (len(b) + 1)  # row[j]: LCS of the words of a so far and b[:j]
    for x in a:
        diagonal = 0  # row[j - 1] before this word's update
        for j, y in enumerate(b, 1):
            above = row[j]
            if x == y:
                row[j] = diagonal + 1
            elif row[j - 1] > above:
                row[j] = row[j - 1]
            diagonal = above
    return row[-1]


def rouge_l(corpus: ScoredCorpus) -> float:
    """Mean over images of the best LCS F-score against any reference."""
    beta2 = ROUGE_BETA * ROUGE_BETA
    total = 0.0
    for e in corpus.entries:
        best = 0.0
        for ref in e.references:
            lcs = _lcs_length(e.candidate, ref)
            if lcs == 0:
                continue
            precision = lcs / len(e.candidate)
            recall = lcs / len(ref)
            best = max(best, (1 + beta2) * precision * recall / (recall + beta2 * precision))
        total += best
    return total / len(corpus.entries)


# ---------------------------------------------------------------------------
# METEOR


def _best_alignment(cand: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """(max matches, min chunks over all maximum alignments).

    An alignment matches candidate positions to distinct reference
    positions with equal tokens.  A chunk is a maximal run of matches
    that is contiguous and in order on both sides.  Exact search in one
    forward pass over candidate positions, keeping the best (matches,
    -chunks) of each (used reference positions, previous match) state.
    Every maximum alignment matches min(count in cand, count in ref) of
    each word, so the search leaves candidate position i (word w)
    unmatched only if the occurrences of w at i or later outnumber the
    unused reference positions holding w; otherwise i must take one of
    them.  Still exponential in the worst case (many repeats of one
    word), fine at caption scale.
    """
    slots: dict[str, list[int]] = {}  # word -> reference positions holding it
    for j, w in enumerate(ref):
        slots.setdefault(w, []).append(j)
    rest, seen = [0] * len(cand), {}  # rest[i]: occurrences of cand[i] at i or later, counted in one reverse pass
    for i in range(len(cand) - 1, -1, -1):
        rest[i] = seen[cand[i]] = seen.get(cand[i], 0) + 1

    @lru_cache(maxsize=None)
    def moves(ci: int, used: int) -> list[tuple[int, int]]:
        """Each way to place cand[ci]: (used after, matched reference position, or -2 for none)."""
        free = [j for j in slots.get(cand[ci], ()) if not used >> j & 1]
        placed = [(used | 1 << j, j) for j in free]
        if rest[ci] > len(free):  # leaving cand[ci] unmatched can still reach the maximum
            placed.append((used, -2))
        return placed  # never empty: one of the two always holds

    states = {(0, -2): (0, 0)}  # (used, previous match) -> best (matches, -chunks) so far
    for ci in range(len(cand)):
        reached: dict[tuple[int, int], tuple[int, int]] = {}
        for (used, prev), (m, c) in states.items():
            for state in moves(ci, used):
                j = state[1]
                score = (m, c) if j == -2 else (m + 1, c - (prev != j - 1))
                if score > reached.get(state, (-1, 0)):
                    reached[state] = score
        states = reached
    moves.cache_clear()
    matches, chunks = max(states.values())
    return matches, -chunks


def _alignment(cand: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """(max matches, min chunks) as :func:`_best_alignment` finds them.

    When neither side repeats a word the maximum alignment is unique:
    each candidate word in the reference matches its one position there.
    One pass then counts it.  A chunk needs adjacent positions on both
    sides, so a candidate word without a match ends the chunk before it.
    """
    position = {w: j for j, w in enumerate(ref)}
    if len(position) < len(ref) or len(set(cand)) < len(cand):
        return _best_alignment(cand, ref)
    matches = chunks = 0
    previous = -2  # reference position of the previous candidate word's match; -2 when it had none
    for w in cand:
        j = position.get(w, -2)
        if j >= 0:
            matches += 1
            chunks += previous != j - 1
        previous = j
    return matches, chunks


def meteor(corpus: ScoredCorpus) -> float:
    """Exact-match METEOR: harmonic mean weighted toward recall, with a
    fragmentation penalty from the minimal chunk count."""
    total = 0.0
    for e in corpus.entries:
        best_score = 0.0
        for ref in e.references:
            matches, chunks = _alignment(e.candidate, ref)
            if matches == 0:
                continue
            precision = matches / len(e.candidate)
            recall = matches / len(ref)
            f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
            penalty = 0.5 * (chunks / matches) ** 3
            best_score = max(best_score, f_mean * (1.0 - penalty))
        total += best_score
    return total / len(corpus.entries)


# ---------------------------------------------------------------------------
# CIDEr


def cider(corpus: ScoredCorpus) -> float:
    """TF-IDF n-gram cosine similarity, averaged over n and references.

    IDF(g) = ln(N / max(1, df(g))) where df counts images whose
    references contain g.  With a single image every IDF is zero and the
    score degenerates to 0; a warning flags that case.  Each caption's
    TF-IDF vector and its norm are built once per order; the cosine sums
    the candidate's n-grams in their order of first occurrence.
    """
    n_images = len(corpus.entries)
    if n_images == 1:
        warnings.warn("cider: single-image corpus has degenerate IDF (all zeros)", stacklevel=2)
    unseen_idf = math.log(n_images)  # df = 0 clamps to 1 in the denominator
    per_order = []  # per order, each image's mean cosine over its references
    for k in range(1, CIDER_MAX_N + 1):
        counts = corpus.ngrams(k)
        df: dict[tuple[str, ...], int] = {}
        for ref_max in counts.ref_max:
            for gram in ref_max:  # every n-gram of any reference, once per image
                df[gram] = df.get(gram, 0) + 1
        idf = {gram: math.log(n_images / c) for gram, c in df.items()}
        means = []
        for cand, refs in zip(counts.candidates, counts.references):
            weights = [count * idf.get(gram, unseen_idf) for gram, count in cand.items()]
            norm = math.sqrt(sum(w * w for w in weights))
            sims = []
            for ref in refs:
                ref_vec = {gram: count * idf[gram] for gram, count in ref.items()}
                ref_norm = math.sqrt(sum(w * w for w in ref_vec.values()))
                if norm == 0.0 or ref_norm == 0.0:
                    sims.append(0.0)
                    continue
                dot = sum(w * ref_vec.get(gram, 0.0) for gram, w in zip(cand, weights))
                sims.append(dot / (norm * ref_norm))
            means.append(sum(sims) / len(sims))
        per_order.append(means)
    total = 0.0
    for per_n in zip(*per_order):
        total += 10.0 * sum(per_n) / CIDER_MAX_N
    return total / n_images


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class ScoreReport:
    """All seven metric values for one system on one corpus."""

    b1: float
    b2: float
    b3: float
    b4: float
    rouge_l: float
    meteor: float
    cider: float

    COLUMNS = ("B-1", "B-2", "B-3", "B-4", "R-L", "M", "C")

    def values(self) -> tuple[float, ...]:
        return (self.b1, self.b2, self.b3, self.b4, self.rouge_l, self.meteor, self.cider)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.COLUMNS, self.values()))


def score_report(corpus: ScoredCorpus) -> ScoreReport:
    """Run every metric over the corpus; BLEU-1..4 and CIDEr share its n-gram counts."""
    return ScoreReport(
        b1=bleu(corpus, 1),
        b2=bleu(corpus, 2),
        b3=bleu(corpus, 3),
        b4=bleu(corpus, 4),
        rouge_l=rouge_l(corpus),
        meteor=meteor(corpus),
        cider=cider(corpus),
    )


def format_reports(reports: Mapping[str, ScoreReport]) -> str:
    """Aligned table of one row per system, then machine-readable lines.

    The key=value section uses ``<row>.<metric>=<value>`` with full
    float precision.
    """
    if not reports:
        raise ContractError("format_reports: nothing to format")
    name_width = max(len("system"), max(len(n) for n in reports))
    header = "system".ljust(name_width) + "".join(c.rjust(9) for c in ScoreReport.COLUMNS)
    lines = [header]
    for name, report in reports.items():
        lines.append(name.ljust(name_width) + "".join(f"{v:9.4f}" for v in report.values()))
    lines.append("")
    for name, report in reports.items():
        for column, value in report.as_dict().items():
            lines.append(f"{name}.{column}={value!r}")
    return "\n".join(lines) + "\n"
