"""Caption quality metrics: BLEU-1..4, ROUGE-L, METEOR, CIDEr.

All metrics share one tokenization (the decoder's) and one container, a
:class:`ScoredCorpus` of (candidate, references) pairs per image.  The
corpus counts each caption's n-grams once per order, on first use
(:meth:`ScoredCorpus.ngrams`), and BLEU-1..4 and CIDEr all read those
counts, so :func:`score_report` counts every caption once.
Definitions follow the standard formulations:

* BLEU: corpus-level clipped modified n-gram precision with the closest
  reference length for the brevity penalty (ties go to the shorter
  reference).  Unsmoothed by default; optional add-epsilon smoothing
  rescues zero match counts (a candidate with no k-grams at all still
  scores zero).
* ROUGE-L: per image, the max over references of the LCS-based F-score
  with beta = 1.2; the corpus score is the mean over images.
* METEOR: exact unigram matching only (no stems or synonyms).  The
  fragmentation penalty uses the minimal chunk count over all maximum
  alignments, found by exact search that branches only where a maximum
  alignment can still be reached (exponential in the worst case).
* CIDEr: TF-IDF weighted n-gram cosine similarity, n = 1..4, averaged
  over n and references, scaled by 10.  IDF comes from the corpus
  itself, so a single-image corpus degenerates to all-zero IDF and a
  warning is raised.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping, Sequence

from .errors import ContractError
from .textdec import tokenize

ROUGE_BETA = 1.2
CIDER_MAX_N = 4
BLEU_EPSILON = 1e-9


@dataclass(frozen=True)
class CorpusEntry:
    image_id: str
    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class NgramCounts:
    """One n-gram order over a corpus, counted once and read by every metric.

    Lists run over the corpus entries.  ``ref_max`` holds each n-gram's
    largest count in any one reference; ``clipped`` and ``total`` are
    BLEU's corpus numerator and denominator for this order.
    """

    candidates: list[Counter]
    references: list[list[Counter]]
    ref_max: list[Counter]
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
        self._counts: dict[int, NgramCounts] = {}

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
        """The n-gram counts of every caption, built on first use and kept,
        so the entries must not change once a metric has read them."""
        counts = self._counts.get(n)
        if counts is None:
            candidates = [_ngrams(e.candidate, n) for e in self.entries]
            references = [[_ngrams(r, n) for r in e.references] for e in self.entries]
            ref_max = [reduce(operator.or_, refs) for refs in references]
            clipped = sum(min(c, m[g]) for cand, m in zip(candidates, ref_max) for g, c in cand.items())
            total = sum(cand.total() for cand in candidates)
            counts = self._counts[n] = NgramCounts(candidates, references, ref_max, clipped, total)
        return counts


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


# ---------------------------------------------------------------------------
# BLEU


def _closest_ref_length(cand_len: int, ref_lens: Sequence[int]) -> int:
    """Reference length closest to the candidate's; ties to the shorter."""
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def bleu(corpus: ScoredCorpus, n: int = 4, smoothing: bool = False) -> float:
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
        if den == 0:
            return 0.0  # candidate too short for any k-gram
        if num == 0:
            if not smoothing:
                return 0.0
            num = BLEU_EPSILON  # add-epsilon rescue for zero match counts
        log_sum += math.log(num / den)
    brevity = 1.0 if cand_total > ref_total else math.exp(1.0 - ref_total / cand_total)
    return brevity * math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# ROUGE-L


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by dynamic programming."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def rouge_l(corpus: ScoredCorpus, beta: float = ROUGE_BETA) -> float:
    """Mean over images of the best LCS F-score against any reference."""
    total = 0.0
    for e in corpus.entries:
        best = 0.0
        for ref in e.references:
            lcs = _lcs_length(e.candidate, ref)
            if lcs == 0 or not e.candidate:
                continue
            precision = lcs / len(e.candidate)
            recall = lcs / len(ref)
            denominator = recall + beta * beta * precision
            if denominator > 0:
                best = max(best, (1 + beta * beta) * precision * recall / denominator)
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


def meteor(corpus: ScoredCorpus) -> float:
    """Exact-match METEOR: harmonic mean weighted toward recall, with a
    fragmentation penalty from the minimal chunk count."""
    total = 0.0
    for e in corpus.entries:
        best_score = 0.0
        for ref in e.references:
            matches, chunks = _best_alignment(e.candidate, ref)
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


def cider(corpus: ScoredCorpus, max_n: int = CIDER_MAX_N) -> float:
    """TF-IDF n-gram cosine similarity, averaged over n and references.

    IDF(g) = ln(N / max(1, df(g))) where df counts images whose
    references contain g.  With a single image every IDF is zero and the
    score degenerates to 0; a warning flags that case.
    """
    n_images = len(corpus.entries)
    if n_images == 1:
        warnings.warn("cider: single-image corpus has degenerate IDF (all zeros)", stacklevel=2)
    orders = [corpus.ngrams(k) for k in range(1, max_n + 1)]
    idf: list[dict] = []
    for counts in orders:
        df = Counter()
        for ref_max in counts.ref_max:
            df.update(ref_max.keys())  # every n-gram of any reference, once per image
        idf.append({g: math.log(n_images / c) for g, c in df.items()})

    unseen_idf = math.log(n_images)  # df = 0 clamps to 1 in the denominator

    def tfidf(grams, weights):
        return {gram: count * weights.get(gram, unseen_idf) for gram, count in grams.items()}

    def cosine(a, b):
        dot = sum(w * b.get(g, 0.0) for g, w in a.items())
        na = math.sqrt(sum(w * w for w in a.values()))
        nb = math.sqrt(sum(w * w for w in b.values()))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return dot / (na * nb)

    total = 0.0
    for i in range(n_images):
        per_n = []
        for counts, weights in zip(orders, idf):
            cand_vec = tfidf(counts.candidates[i], weights)
            sims = [cosine(cand_vec, tfidf(ref, weights)) for ref in counts.references[i]]
            per_n.append(sum(sims) / len(sims))
        total += 10.0 * sum(per_n) / max_n
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


def score_report(corpus: ScoredCorpus, smoothing: bool = False) -> ScoreReport:
    """Run every metric over the corpus; BLEU-1..4 and CIDEr share its n-gram counts."""
    return ScoreReport(
        b1=bleu(corpus, 1, smoothing),
        b2=bleu(corpus, 2, smoothing),
        b3=bleu(corpus, 3, smoothing),
        b4=bleu(corpus, 4, smoothing),
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
