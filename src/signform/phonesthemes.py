"""Mining affixes that carry meaning: pointwise form-meaning MI per affix.

A word's k-prefix pointwise MI is the average per-phone saving of the
meaning-conditioned model over the unconditional one across the first k
positions. An affix is a phonestheme candidate when the words carrying it
average a higher pointwise MI than random same-sized word sets; the null
distribution comes from Monte Carlo draws without replacement from all
eligible words, and candidates are corrected jointly with Benjamini-
Hochberg.

The draws for one k form a single stream of uniform permutations of the
eligible words, keyed by (seed, k) alone: the first n words of each
permutation are the random set for every candidate of size n, prefix and
suffix alike. Candidates of one k therefore share their null draws. Each
p-value is still a valid add-one-smoothed Monte Carlo p; the candidates'
p-values were already dependent, since nested affixes such as g- and gl-
share words, so the joint correction stays Benjamini-Hochberg.

Suffixes are handled by the same machinery on reversed word forms scored
by a model pair trained on reversed forms: the last k positions of a word
are the first k of its reversal, where prediction is causal. A suffix
reads the same permutations as the equal reversed-form prefix, so mining
the reversed lexicon for prefixes reproduces its p-value exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import check_fields
from .errors import SignSetMismatchError
from .lexicon import Lexicon, Phone, Sign
from .phonolm import LossTable
from .seeding import derive_rng
from .stats import bh_correct


@dataclass(frozen=True)
class MiningSettings:
    """What a phonestheme run mines: a config's phonesthemes section.

    Affixes of each length in k_range held by at least min_count words are
    tested with n_samples null draws per length, then corrected jointly
    with Benjamini-Hochberg at level alpha. k_range is kept as a tuple.
    """

    k_range: tuple[int, ...] = (1, 2, 3)
    min_count: int = 20
    alpha: float = 0.05
    n_samples: int = 100_000

    def __post_init__(self):
        check_fields(self)
        if not self.k_range or min(self.k_range) < 1:
            raise ValueError("k_range must be non-empty, every k >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass
class AffixCandidate:
    """One word-initial or word-final phone sequence and its evidence."""

    phones: tuple[Phone, ...]
    side: str
    word_indices: np.ndarray
    count: int
    avg_pmi: float | None = None
    p_value: float | None = None
    p_adjusted: float | None = None
    bh_significant: bool = False
    example_lemmata: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.phones)

    def affix_string(self) -> str:
        joined = "".join(self.phones)
        return joined + "-" if self.side == "prefix" else "-" + joined


def pointwise_mi_table(lex: Lexicon, uncond: LossTable, cond: LossTable,
                       k: int) -> np.ndarray:
    """Per-sign k-prefix pointwise MI; NaN for words shorter than k.

    A word's value is the mean of its first k per-position savings,
    uncond bits minus cond bits. Both tables must hold lex.signs in order
    and come from the evaluation orientation that makes the affix
    word-initial: forward models for prefixes, reversed-form models for
    suffixes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    keys = tuple(s.key for s in lex.signs)
    counts = np.array([len(s.form) + 1 for s in lex.signs], dtype=np.int64)
    for table in (uncond, cond):
        if table.keys != keys or not np.array_equal(table.token_count,
                                                    counts):
            raise SignSetMismatchError(
                "loss table does not hold the lexicon's signs in order")
    # Row means over a padded matrix reduce each row's first k values as
    # the mean of that row alone would; a cumsum rounds differently from
    # k = 8 on.
    row = np.repeat(np.arange(counts.size), counts)
    padded = np.zeros((counts.size, int(counts.max(initial=0))))
    padded[row, np.arange(row.size) - uncond.offsets[row]] = (
        uncond.bits - cond.bits)
    out = np.full(counts.size, np.nan)
    eligible = counts > k
    out[eligible] = padded[eligible, :k].mean(axis=1)
    return out


def enumerate_candidates(lex: Lexicon, k_range,
                         min_count: int) -> list[AffixCandidate]:
    """All distinct k-initial sequences held by >= min_count signs, for each
    k in k_range. Words shorter than k never contribute. Suffixes are the
    prefixes of reverse_forms(lex)."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    out = []
    for k in sorted(set(int(k) for k in k_range)):
        if k < 1:
            raise ValueError("k must be >= 1")
        groups: dict[tuple, list[int]] = {}
        for i, sign in enumerate(lex.signs):
            if len(sign.form) < k:
                continue
            groups.setdefault(sign.form[:k], []).append(i)
        for affix in sorted(groups):
            idx = groups[affix]
            if len(idx) >= min_count:
                out.append(AffixCandidate(
                    phones=tuple(affix), side="prefix",
                    word_indices=np.array(idx, dtype=np.int64),
                    count=len(idx)))
    return out


# Null samples are drawn in blocks of about this many permutation entries:
# a 512 KiB int64 index block, with a value block and a gather copy no
# larger, so the sampler's working set stays near the L2 cache and its peak
# memory does not grow with n_samples. rng.permuted draws row by row, so
# the block's row count does not change the stream.
_CHUNK_ELEMS = 1 << 16


def _permutation_sums(pops: np.ndarray, widths, n_samples: int,
                      rng: np.random.Generator):
    """Running sums of each row of pops along shared uniform permutations.

    pops is (n_rows, N), every row over the same N words in the same order.
    Draws n_samples uniform permutations of the words and yields, block by
    block and row by row, (row, sums): sums[s, i] adds the row's values at
    the first i + 1 words of sample s's permutation, for i < widths[row].
    The first n words of a uniform permutation are a uniform n-subset, so
    sums[:, n - 1] / n are null means for every size n at once. Rows of
    width 0 are skipped. sums is a buffer that the next yield overwrites.

    A block holds max(1, _CHUNK_ELEMS // N) permutations (81 of 800
    words), so the buffers stay cache-sized and bounded whatever n_samples
    is; the permutations, and so every sum, do not depend on the block.
    """
    n_rows, big = pops.shape
    widths = [int(w) for w in widths]
    if (len(widths) != n_rows or not all(0 <= w <= big for w in widths)
            or max(widths) < 1):
        raise ValueError(f"widths {widths} out of range for {big} words")
    rows = min(n_samples, max(1, _CHUNK_ELEMS // big))
    base = np.arange(big, dtype=np.intp)
    perm = np.empty((rows, big), dtype=np.intp)
    buf = np.empty(rows * max(widths))
    done = 0
    while done < n_samples:
        take = min(rows, n_samples - done)
        idx = perm[:take]
        idx[:] = base
        rng.permuted(idx, axis=1, out=idx)
        for row, w in enumerate(widths):
            if w == 0:
                continue
            sums = buf[:take * w].reshape(take, w)
            # Every index is in range by construction; "clip" skips the
            # bounds check. np.take still makes one contiguous copy of the
            # strided idx[:, :w], which the block bounds.
            np.take(pops[row], idx[:, :w], out=sums, mode="clip")
            np.cumsum(sums, axis=1, out=sums)
            yield row, sums
        done += take


def _test_k(tables, candidates, k: int, n_samples: int, seed: int):
    """(p_value, observed_mean) of each (orientation, candidate) pair of
    one k, all read from the k's single permutation stream.

    tables holds one PMI-at-k vector per orientation, all with NaN at the
    same ineligible words. A candidate counts the samples whose mean is at
    least its observed mean, ties extreme, add-one smoothed. p = 1 without
    sampling when it holds every eligible word or its orientation's values
    are constant: every same-sized draw then has the observed mean.
    """
    if not candidates:
        return []
    eligible = ~np.isnan(tables[0])
    pops = np.stack([t[eligible] for t in tables])
    big = pops.shape[1]
    constant = pops.min(axis=1) == pops.max(axis=1)
    out = []
    sampled = []
    widths = [0] * len(tables)
    for i, (row, cand) in enumerate(candidates):
        if cand.count != int(cand.word_indices.shape[0]):
            raise ValueError("candidate count does not match its word set")
        vals = tables[row][cand.word_indices]
        if np.any(np.isnan(vals)):
            raise ValueError("candidate includes words without a PMI value")
        observed = float(vals.mean())
        if cand.count > big:
            raise ValueError(f"candidate count {cand.count} exceeds "
                             f"population {big}")
        out.append((1.0, observed))
        if cand.count < big and not constant[row]:
            sampled.append((i, row, cand.count, observed))
            widths[row] = max(widths[row], cand.count)
    if sampled:
        # Grouped by row once, so that a block's counts for all of a row's
        # candidates are one compare.
        ii, rows, ns, obs = (np.array(col) for col in zip(*sampled))
        by_row = {row: (ii[rows == row], ns[rows == row], obs[rows == row])
                  for row in set(rows.tolist())}
        counts = np.zeros(len(candidates), dtype=np.int64)
        rng = derive_rng(seed, "phonesthemes", k)
        for row, sums in _permutation_sums(pops, widths, n_samples, rng):
            ii, ns, obs = by_row[row]
            counts[ii] += np.count_nonzero(sums[:, ns - 1] / ns >= obs,
                                           axis=0)
        for i, _, _, observed in sampled:
            out[i] = ((int(counts[i]) + 1) / (n_samples + 1), observed)
    return out


def reverse_forms(lex: Lexicon) -> Lexicon:
    """The same lexicon with every phone sequence reversed (involutive)."""
    signs = [Sign(lemma=s.lemma, form=tuple(reversed(s.form)),
                  meaning=s.meaning, pos=s.pos, concept_id=s.concept_id)
             for s in lex.signs]
    return Lexicon(language=lex.language, inventory=lex.inventory,
                   signs=signs, classes=lex.classes, stats=lex.stats)


def mine(lex: Lexicon, forward, settings: MiningSettings, seed: int,
         reverse=None) -> list[AffixCandidate]:
    """Full mining pass: enumerate, test, BH-correct, rank.

    forward is the (uncond, cond) pair of loss tables over lex.signs in
    order. reverse, when given, is the pair from models trained on
    reversed forms, over reverse_forms(lex).signs in order: suffixes are
    mined as prefixes of the reversed forms and reported in surface
    orientation. All candidates from both sides share one BH correction;
    the result is sorted by adjusted then raw p-value, with up to five
    example lemmata per candidate (the earliest signs carrying the affix).
    """
    jobs = [(lex, *forward, "prefix")]
    if reverse is not None:
        jobs.append((reverse_forms(lex), *reverse, "suffix"))

    ks = sorted(set(settings.k_range))
    tables = [{k: pointwise_mi_table(job_lex, job_u, job_c, k) for k in ks}
              for job_lex, job_u, job_c, _ in jobs]
    stubs = [enumerate_candidates(job_lex, ks, settings.min_count)
             for job_lex, _, _, _ in jobs]
    candidates: list[AffixCandidate] = []
    for k in ks:
        batch = [(row, cand) for row, side_stubs in enumerate(stubs)
                 for cand in side_stubs if cand.k == k]
        results = _test_k([t[k] for t in tables], batch, k,
                          settings.n_samples, seed)
        for (row, cand), (p, observed) in zip(batch, results):
            job_lex, _, _, side = jobs[row]
            surface = (cand.phones if side == "prefix"
                       else tuple(reversed(cand.phones)))
            lemmata = tuple(job_lex.signs[i].lemma
                            for i in cand.word_indices[:5])
            candidates.append(AffixCandidate(
                phones=surface, side=side,
                word_indices=cand.word_indices, count=cand.count,
                avg_pmi=observed, p_value=p,
                example_lemmata=lemmata))

    if candidates:
        reject, adjusted = bh_correct([c.p_value for c in candidates],
                                      alpha=settings.alpha)
        for cand, r, a in zip(candidates, reject, adjusted):
            cand.p_adjusted = float(a)
            cand.bh_significant = bool(r)
        candidates.sort(key=lambda c: (c.p_adjusted, c.p_value, c.side,
                                       c.k, c.phones))
    return candidates
