"""Caption metrics against brute-force oracles and hand-computed values."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcap import metrics
from dualcap.errors import ContractError
from dualcap.metrics import (
    CorpusEntry,
    _alignment,
    _best_alignment,
    _lcs_length,
    _ngram_counts,
    ScoredCorpus,
    ScoreReport,
    bleu,
    cider,
    format_reports,
    meteor,
    rouge_l,
    score_report,
)


# ---------------------------------------------------------------------------
# oracles: naive enumeration-based implementations, shared nothing with src


def o_ngrams(tokens, k):
    return [tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]


def oracle_bleu(entries, n):
    numer = [0.0] * n
    denom = [0.0] * n
    c_total = 0
    r_total = 0
    for cand, refs in entries:
        c_total += len(cand)
        diffs = sorted((abs(len(r) - len(cand)), len(r)) for r in refs)
        r_total += diffs[0][1]
        for k in range(1, n + 1):
            grams = o_ngrams(cand, k)
            for g in set(grams):
                best = max(o_ngrams(r, k).count(g) for r in refs)
                numer[k - 1] += min(grams.count(g), best)
            denom[k - 1] += len(grams)
    if c_total == 0:
        return 0.0
    product = 1.0
    for k in range(n):
        num, den = numer[k], denom[k]
        if den == 0 or num == 0:
            return 0.0
        product *= num / den
    bp = 1.0 if c_total > r_total else math.exp(1 - r_total / c_total)
    return bp * product ** (1.0 / n)


def oracle_lcs(a, b):
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + oracle_lcs(a[:-1], b[:-1])
    return max(oracle_lcs(a[:-1], b), oracle_lcs(a, b[:-1]))


def oracle_rouge(entries, beta=1.2):
    total = 0.0
    for cand, refs in entries:
        best = 0.0
        for ref in refs:
            lcs = oracle_lcs(tuple(cand), tuple(ref))
            if lcs == 0:
                continue
            p, r = lcs / len(cand), lcs / len(ref)
            if r + beta * beta * p > 0:
                best = max(best, (1 + beta * beta) * p * r / (r + beta * beta * p))
        total += best
    return total / len(entries)


def oracle_alignments(cand, ref):
    """Every injective same-token alignment, as lists of (ci, rj) pairs."""
    results = []

    def walk(ci, used, pairs):
        if ci == len(cand):
            results.append(list(pairs))
            return
        walk(ci + 1, used, pairs)
        for j, w in enumerate(ref):
            if j not in used and w == cand[ci]:
                walk(ci + 1, used | {j}, pairs + [(ci, j)])

    walk(0, set(), [])
    return results


def oracle_best_alignment(cand, ref):
    """(max matches, min chunks over the maximum alignments), by enumeration."""
    alignments = oracle_alignments(cand, ref)
    m = max(len(a) for a in alignments)
    chunks = min(
        1 + sum(not (c2 == c1 + 1 and r2 == r1 + 1) for (c1, r1), (c2, r2) in zip(a, a[1:]))
        for a in alignments if len(a) == m
    )
    return m, chunks if m else 0


def alignment_count(cand, ref):
    """How many alignments oracle_alignments enumerates for one pair."""
    total = 1
    for w in set(cand):
        c, r = cand.count(w), ref.count(w)
        total *= sum(math.comb(c, k) * math.perm(r, k) for k in range(min(c, r) + 1))
    return total


def oracle_meteor(entries):
    total = 0.0
    for cand, refs in entries:
        best_score = 0.0
        for ref in refs:
            alignments = oracle_alignments(cand, ref)
            m = max(len(a) for a in alignments)
            if m == 0:
                continue
            chunks = None
            for a in alignments:
                if len(a) != m:
                    continue
                runs = 1
                for (c1, r1), (c2, r2) in zip(a, a[1:]):
                    if not (c2 == c1 + 1 and r2 == r1 + 1):
                        runs += 1
                chunks = runs if chunks is None else min(chunks, runs)
            p, r = m / len(cand), m / len(ref)
            f_mean = 10 * p * r / (r + 9 * p)
            score = f_mean * (1 - 0.5 * (chunks / m) ** 3)
            best_score = max(best_score, score)
        total += best_score
    return total / len(entries)


def oracle_cider(entries, max_n=4):
    n_images = len(entries)
    totals = 0.0
    for cand, refs in entries:
        over_n = 0.0
        for k in range(1, max_n + 1):
            def idf(gram):
                df = 0
                for _, other_refs in entries:
                    if any(gram in o_ngrams(r, k) for r in other_refs):
                        df += 1
                return math.log(n_images / max(1, df))

            def vec(tokens):
                grams = o_ngrams(tokens, k)
                return {g: grams.count(g) * idf(g) for g in set(grams)}

            cv = vec(cand)
            sims = []
            for ref in refs:
                rv = vec(ref)
                dot = sum(w * rv.get(g, 0.0) for g, w in cv.items())
                na = math.sqrt(sum(w * w for w in cv.values()))
                nb = math.sqrt(sum(w * w for w in rv.values()))
                sims.append(0.0 if na == 0 or nb == 0 else dot / (na * nb))
            over_n += sum(sims) / len(sims)
        totals += 10.0 * over_n / max_n
    return totals / n_images


def corpus_of(entries):
    return ScoredCorpus([
        CorpusEntry(image_id=f"img{i}", candidate=tuple(c), references=tuple(tuple(r) for r in refs))
        for i, (c, refs) in enumerate(entries)
    ])


def random_corpus(rng, allow_empty_cand=False):
    vocab = ["a", "b", "c", "d"]
    entries = []
    for _ in range(int(rng.integers(2, 4))):
        lo = 0 if allow_empty_cand else 1
        cand = [vocab[i] for i in rng.integers(0, 4, size=int(rng.integers(lo, 6)))]
        refs = [
            [vocab[i] for i in rng.integers(0, 4, size=int(rng.integers(1, 6)))]
            for _ in range(int(rng.integers(1, 3)))
        ]
        entries.append((cand, refs))
    return entries


class TestHandComputedValues:
    def test_bleu1_clipping_hand_case(self):
        """'the the the' vs 'the cat': clipped 1/3, BP = 1 since c > r."""
        corpus = corpus_of([(["the", "the", "the"], [["the", "cat"]])])
        assert abs(bleu(corpus, 1) - 1.0 / 3.0) < 1e-12

    def test_rouge_hand_case(self):
        """LCS 4 of 5 on both sides gives P = R = F = 0.8."""
        corpus = corpus_of([(["a", "b", "c", "d", "e"], [["a", "b", "c", "d", "f"]])])
        assert abs(rouge_l(corpus) - 0.8) < 1e-12

    def test_meteor_hand_case(self):
        """Identical two-token caption: Fmean 1, penalty 0.5*(1/2)^3."""
        corpus = corpus_of([(["red", "square"], [["red", "square"]])])
        assert abs(meteor(corpus) - 0.9375) < 1e-12

    def test_perfect_candidate_bleu_is_one(self):
        entries = [
            (["a", "red", "square"], [["a", "red", "square"]]),
            (["a", "blue", "circle", "here"], [["a", "blue", "circle", "here"]]),
        ]
        corpus = corpus_of(entries)
        for n in (1, 2, 3):
            assert abs(bleu(corpus, n) - 1.0) < 1e-12

    def test_brevity_penalty_hand_case(self):
        """One matching word of four: p1 = 1, BP = exp(1 - 4/1)."""
        corpus = corpus_of([(["a"], [["a", "b", "c", "d"]])])
        assert abs(bleu(corpus, 1) - math.exp(1 - 4.0)) < 1e-12

    def test_bleu_closest_length_ties_go_shorter(self):
        # candidate length 3; refs of length 2 and 4 tie; shorter wins -> BP = 1
        corpus = corpus_of([(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])])
        assert abs(bleu(corpus, 1) - 1.0) < 1e-12

    def test_meteor_fragmentation_orders_candidates(self):
        contiguous = corpus_of([(["a", "b", "c", "d"], [["a", "b", "c", "d"]])])
        scrambled = corpus_of([(["b", "a", "d", "c"], [["a", "b", "c", "d"]])])
        assert meteor(contiguous) > meteor(scrambled)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_all_metrics_match_oracles(self, seed):
        rng = np.random.default_rng(seed)
        entries = random_corpus(rng)
        corpus = corpus_of(entries)
        for n in (1, 2, 3, 4):
            assert abs(bleu(corpus, n) - oracle_bleu(entries, n)) < 1e-9
        assert abs(rouge_l(corpus) - oracle_rouge(entries)) < 1e-9
        assert abs(meteor(corpus) - oracle_meteor(entries)) < 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert abs(cider(corpus) - oracle_cider(entries)) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_empty_candidates_degrade_gracefully(self, seed):
        rng = np.random.default_rng(1000 + seed)
        entries = random_corpus(rng, allow_empty_cand=True)
        entries[0] = ([], entries[0][1])
        corpus = corpus_of(entries)
        for value in (bleu(corpus, 1), rouge_l(corpus), meteor(corpus)):
            assert 0.0 <= value <= 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert abs(cider(corpus) - oracle_cider(entries)) < 1e-9


class TestRangesAndEdges:
    @pytest.mark.parametrize("seed", range(10))
    def test_metric_ranges(self, seed):
        rng = np.random.default_rng(2000 + seed)
        corpus = corpus_of(random_corpus(rng))
        for n in (1, 2, 3, 4):
            assert 0.0 <= bleu(corpus, n) <= 1.0
        assert 0.0 <= rouge_l(corpus) <= 1.0
        assert 0.0 <= meteor(corpus) <= 1.0
        assert 0.0 <= cider(corpus) <= 10.0

    def test_single_image_cider_warns_and_degenerates(self):
        corpus = corpus_of([(["a", "b"], [["a", "b"]])])
        with pytest.warns(UserWarning, match="degenerate"):
            assert cider(corpus) == 0.0

    def test_multi_image_identical_captions_score_high(self):
        entries = [
            (["a", "red", "square"], [["a", "red", "square"]]),
            (["a", "blue", "circle"], [["a", "blue", "circle"]]),
        ]
        assert cider(corpus_of(entries)) > 5.0

    def test_disjoint_candidate_scores_zero(self):
        entries = [
            (["x", "y"], [["a", "b"]]),
            (["z", "w"], [["c", "d"]]),
        ]
        corpus = corpus_of(entries)
        assert bleu(corpus, 1) == 0.0
        assert rouge_l(corpus) == 0.0
        assert meteor(corpus) == 0.0
        assert cider(corpus) == 0.0

    def test_unsmoothed_bleu4_is_zero_without_a_4gram_match(self):
        corpus = corpus_of([(["a", "b"], [["a", "b"]])])  # no 3-grams at all
        assert bleu(corpus, 4) == 0.0
        longer = corpus_of([(["a", "b", "c", "x"], [["a", "b", "c", "d"]])])
        assert bleu(longer, 4) == 0.0  # no matching 4-gram
        assert bleu(longer, 3) > 0.0

    def test_validation(self):
        with pytest.raises(ContractError):
            ScoredCorpus([])
        with pytest.raises(ContractError):
            corpus_of([(["a"], [])])
        with pytest.raises(ContractError):
            corpus_of([(["a"], [[]])])
        entry = CorpusEntry(image_id="x", candidate=("a",), references=(("a",),))
        with pytest.raises(ContractError):
            ScoredCorpus([entry, entry])
        with pytest.raises(ContractError):
            bleu(corpus_of([(["a"], [["a"]])]), 5)
        with pytest.raises(ContractError, match="ngrams: n must be in 1..4"):
            corpus_of([(["a"], [["a"]])]).ngrams(5)


class TestReporting:
    def test_from_texts_tokenizes(self):
        corpus = ScoredCorpus.from_texts({
            "i0": ("A red Square!", ["a red square", "the red square"]),
            "i1": ("blue circle", ["a blue circle"]),
        })
        assert corpus.entries[0].candidate == ("a", "red", "square")
        assert len(corpus.entries[0].references) == 2

    def test_score_report_and_table(self):
        corpus = corpus_of([
            (["a", "red", "square"], [["a", "red", "square"]]),
            (["a", "blue", "circle"], [["a", "blue", "circle"]]),
        ])
        report = score_report(corpus)
        text = format_reports({"dual": report, "global": report})
        for column in ScoreReport.COLUMNS:
            assert column in text
        assert "dual.B-1=" in text and "global.C=" in text
        assert report.b1 == 1.0 and report.rouge_l == 1.0

    def test_report_values_round_trip_via_repr(self):
        corpus = corpus_of([
            (["a", "b", "c"], [["a", "b", "d"]]),
            (["c", "d"], [["c", "d", "e"]]),
        ])
        report = score_report(corpus)
        text = format_reports({"run": report})
        line = next(l for l in text.splitlines() if l.startswith("run.R-L="))
        assert float(line.split("=", 1)[1]) == report.rouge_l


    def test_from_texts_rejects_a_plain_string_of_references(self):
        # "abc" would score against the references a, b and c; "a red square"
        # would fail as an empty reference (its spaces tokenize to nothing)
        for references in ("abc", "a red square"):
            with pytest.raises(ContractError, match="image 'i1' references"):
                ScoredCorpus.from_texts({"i0": ("cap", ["cap"]), "i1": ("cap", references)})


ONE_PASS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
ORACLE_ALIGNMENTS = 20_000  # enumeration budget per pair for oracle_meteor


@st.composite
def branching_corpora(draw):
    """2-6 images, captions of 1-9 tokens over 1-4 words, 1-3 references each."""
    words = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    sentence = st.lists(st.sampled_from(words), min_size=1, max_size=9)
    entry = st.tuples(sentence, st.lists(sentence, min_size=1, max_size=3))
    return draw(st.lists(entry, min_size=2, max_size=6))


class TestOnePass:
    @ONE_PASS
    @given(entries=branching_corpora())
    def test_score_report_equals_standalone_metrics_and_oracles(self, entries):
        report = score_report(corpus_of(entries))
        standalone = (
            *(bleu(corpus_of(entries), n) for n in (1, 2, 3, 4)),
            rouge_l(corpus_of(entries)),
            meteor(corpus_of(entries)),
            cider(corpus_of(entries)),
        )
        assert report.values() == standalone
        for n in (1, 2, 3, 4):
            assert abs(report.values()[n - 1] - oracle_bleu(entries, n)) < 1e-9
        assert abs(report.rouge_l - oracle_rouge(entries)) < 1e-9
        assert abs(report.cider - oracle_cider(entries)) < 1e-9
        # the brute force enumerates up to 17M alignments for 9 equal tokens a
        # side; test_best_alignment_matches_brute_force covers those exhaustively
        # up to 5 tokens
        if all(alignment_count(c, r) <= ORACLE_ALIGNMENTS for c, refs in entries for r in refs):
            assert abs(report.meteor - oracle_meteor(entries)) < 1e-9

    def test_score_report_counts_each_caption_once_per_order(self, monkeypatch):
        calls = []
        real = metrics._ngram_counts
        monkeypatch.setattr(metrics, "_ngram_counts", lambda tokens: calls.append(tokens) or real(tokens))
        entries = [(["a", "b", "a"], [["a", "b"], ["b", "a", "a"]]), (["c"], [["c", "a"]])]
        score_report(corpus_of(entries))
        # 2 candidates and 3 references, each counted once, every order n = 1..4 in that one call
        captions = [tuple(c) for c, _ in entries] + [tuple(r) for _, refs in entries for r in refs]
        assert sorted(calls) == sorted(captions)


class TestAlignmentSearch:
    def test_distinct_words_take_one_state_per_position(self, monkeypatch):
        states = 0
        real_cache = metrics.lru_cache

        def counting_cache(maxsize=None):
            def wrap(search):
                def counted(*key):
                    nonlocal states
                    states += 1
                    return search(*key)
                return real_cache(maxsize=maxsize)(counted)
            return wrap

        monkeypatch.setattr(metrics, "lru_cache", counting_cache)
        words = tuple(f"w{i}" for i in range(16))
        assert _best_alignment(words, words) == (16, 1)
        assert states <= 17

    def test_a_1000_token_candidate_gets_its_closed_form_score(self):
        words = [f"w{i}" for i in range(1000)]
        # its last 500 words are the reference, in order: 500 matches in one chunk
        f_mean = 10 * 0.5 * 1.0 / (1.0 + 9 * 0.5)
        assert meteor(corpus_of([(words, [words[500:]])])) == pytest.approx(f_mean * (1 - 0.5 / 500**3), rel=1e-12)
        # one word repeated, as an untrained model captions: one match in one chunk
        p, r = 1 / 1000, 1 / 3
        f_mean = 10 * p * r / (r + 9 * p)
        assert meteor(corpus_of([(["a"] * 1000, [["a", "red", "square"]])])) == pytest.approx(f_mean * 0.5, rel=1e-12)

    def test_best_alignment_matches_brute_force(self):
        sequences = [s for n in range(6) for s in itertools.product("ab", repeat=n)]
        for cand in sequences:
            for ref in sequences:
                assert _best_alignment(cand, ref) == oracle_best_alignment(cand, ref), (cand, ref)


PINNED_CORPUS = [
    # several references per image
    ("a red square at the top", ["a red square at top left", "the red square is at the top", "a square"]),
    # repeated words on both sides: METEOR's search path
    ("a a blue circle a blue circle", ["a blue circle and a blue square", "blue circle"]),
    # 4-grams, none of them in a reference
    ("the green triangle sits at bottom", ["a green triangle at the bottom", "green triangle at bottom right"]),
    ("", ["a small circle"]),
]
# a corpus whose CIDEr rounds differently if its dot products or norms are
# summed in any other order than over the candidate's n-grams as they occur
ORDER_SENSITIVE_CORPUS = [
    ("a circle the triangle of green right near a large blue",
     ["a top blue small large bottom right left green left", "at left right top"]),
    ("and circle of top green of bottom red",
     ["red left green small red bottom triangle green of at triangle the", "large triangle red square the",
      "square small bottom", "green and red circle circle square and small right bottom left"]),
    ("top red small green green a red left bottom near",
     ["circle red left of a the left bottom near bottom", "large of", "bottom", "circle of bottom"]),
]
# score_report on each corpus as the Counter-based scorer computed it, to the last bit
PINNED_REPRS = [
    (PINNED_CORPUS, {
        "B-1": "0.7191070868408715",
        "B-2": "0.6195129464367595",
        "B-3": "0.4654591082037754",
        "B-4": "0.3046266865054295",
        "R-L": "0.5717532467532468",
        "M": "0.5729901960784314",
        "C": "2.6723359719516533",
    }),
    (ORDER_SENSITIVE_CORPUS, {
        "B-1": "0.5517241379310345",
        "B-2": "0.29134281629169195",
        "B-3": "0.1545350264085983",
        "B-4": "0.0",
        "R-L": "0.3330576547059134",
        "M": "0.3218717565722089",
        "C": "0.6285045202452142",
    }),
]


def table_lcs(a, b):
    """LCS length from the full dynamic-programming table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


WORDS = [f"w{i}" for i in range(12)]


class TestCountOnce:
    @pytest.mark.parametrize("texts, reprs", PINNED_REPRS, ids=["cases", "order"])
    def test_score_report_values_are_pinned_to_the_bit(self, texts, reprs):
        corpus = corpus_of([(c.split(), [r.split() for r in refs]) for c, refs in texts])
        assert {k: repr(v) for k, v in score_report(corpus).as_dict().items()} == reprs

    @ONE_PASS
    @given(tokens=st.lists(st.sampled_from(WORDS[:4]), max_size=12))
    def test_one_call_counts_every_order_as_counter_does(self, tokens):
        counts = _ngram_counts(tokens)
        assert len(counts) == metrics.CIDER_MAX_N
        for n, grams in enumerate(counts, 1):
            expected = Counter(zip(*(tokens[i:] for i in range(n))))
            assert list(grams.items()) == list(expected.items())  # same keys, counts and key order

    @ONE_PASS
    @given(cand=st.lists(st.sampled_from(WORDS), max_size=12, unique=True),
           ref=st.lists(st.sampled_from(WORDS), max_size=12, unique=True))
    def test_one_pass_alignment_equals_the_search_on_distinct_words(self, cand, ref):
        assert _alignment(cand, ref) == _best_alignment(cand, ref)

    @ONE_PASS
    @given(a=st.lists(st.sampled_from(WORDS[:3]), max_size=10), b=st.lists(st.sampled_from(WORDS[:3]), max_size=10))
    def test_rolling_lcs_equals_the_table(self, a, b):
        assert _lcs_length(a, b) == table_lcs(a, b)
