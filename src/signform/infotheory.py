"""Headline quantities from per-word code lengths.

Given loss tables from an unconditional and a meaning-conditioned model,
the mutual information between form and meaning is estimated as a
difference of cross-entropies, both micro-averaged in bits per phone.
The same machinery, applied to class-conditioned tables, yields the
class-controlled MI. Per-word per-phone deltas are retained because the
significance test and the effect size both operate on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroVarianceError
from .phonolm import LossTable


@dataclass(frozen=True)
class EntropyEstimate:
    """Micro-averaged cross-entropy of a loss table."""

    bits_per_phone: float
    total_bits: float
    total_tokens: int
    n_words: int


def _entropy(total_bits: np.ndarray,
             token_count: np.ndarray) -> EntropyEstimate:
    if total_bits.size == 0:
        raise ValueError("empty loss table")
    # Python's sum() adds in row order; numpy's pairwise sum would round
    # the total differently.
    bits = float(sum(total_bits.tolist()))
    tokens = int(token_count.sum())
    return EntropyEstimate(bits_per_phone=bits / tokens, total_bits=bits,
                           total_tokens=tokens, n_words=total_bits.size)


def entropy_estimate(table: LossTable) -> EntropyEstimate:
    return _entropy(table.total_bits, table.token_count)


@dataclass(frozen=True)
class MIEstimate:
    """Difference of two cross-entropy bounds plus per-word evidence.

    deltas[i] is the per-phone saving on word i when conditioning:
    (uncond bits − cond bits) / token count. The headline mi is the
    difference of micro-averages, not the mean of deltas.
    """

    mi: float
    uncond: EntropyEstimate
    cond: EntropyEstimate
    deltas: np.ndarray

    def __post_init__(self):
        expected = self.uncond.bits_per_phone - self.cond.bits_per_phone
        if abs(self.mi - expected) > 1e-12:
            raise ValueError("mi does not match entropy difference")


def mi_estimate(unconditional: LossTable,
                conditional: LossTable) -> MIEstimate:
    """MI(W;V) in bits/phone from paired loss tables, with per-word deltas.

    Both tables must hold the same signs in the same order; otherwise
    SignSetMismatchError. Applied to the class-conditioned pair of tables,
    the same arithmetic gives MI(W;V|C).
    """
    unconditional.require_same_signs(conditional)
    tokens = unconditional.token_count
    h_u = _entropy(unconditional.total_bits, tokens)
    h_c = _entropy(conditional.total_bits, tokens)
    return MIEstimate(mi=h_u.bits_per_phone - h_c.bits_per_phone,
                      uncond=h_u, cond=h_c,
                      deltas=(unconditional.total_bits
                              - conditional.total_bits) / tokens)


def uncertainty_coefficient(mi: float, h: float) -> float:
    """Fraction of predictable bits, MI / H(W); negative estimates allowed."""
    if h <= 0:
        raise ValueError(f"entropy must be positive, got {h}")
    return mi / h


def cohens_d(deltas) -> float:
    """Standardized mean of the per-word deltas: mean / sample std (ddof 1)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size < 2:
        raise ValueError("need at least 2 deltas")
    sd = float(deltas.std(ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("deltas have zero sample variance")
    return float(deltas.mean()) / sd


@dataclass(frozen=True)
class MIReport:
    """Per-language summary row: entropies, MI with and without class
    control, uncertainty coefficients, effect sizes, significance."""

    language: str
    n_words: int
    h_w: EntropyEstimate
    h_w_given_v: EntropyEstimate
    mi: float
    uncertainty: float
    cohens_d: float
    p_value: float | None = None
    h_w_given_c: EntropyEstimate | None = None
    h_w_given_vc: EntropyEstimate | None = None
    mi_given_pos: float | None = None
    uncertainty_given_pos: float | None = None
    cohens_d_given_pos: float | None = None
    p_value_given_pos: float | None = None

    def to_dict(self) -> dict:
        d = {
            "language": self.language,
            "n_words": self.n_words,
            "h_w": self.h_w.bits_per_phone,
            "h_w_given_v": self.h_w_given_v.bits_per_phone,
            "mi": self.mi,
            "uncertainty": self.uncertainty,
            "cohens_d": self.cohens_d,
            "p_value": self.p_value,
        }
        d["h_w_given_c"] = (None if self.h_w_given_c is None
                            else self.h_w_given_c.bits_per_phone)
        d["h_w_given_vc"] = (None if self.h_w_given_vc is None
                             else self.h_w_given_vc.bits_per_phone)
        d["mi_given_pos"] = self.mi_given_pos
        d["uncertainty_given_pos"] = self.uncertainty_given_pos
        d["cohens_d_given_pos"] = self.cohens_d_given_pos
        d["p_value_given_pos"] = self.p_value_given_pos
        return d


def build_report(language: str, plain: MIEstimate,
                 classed: MIEstimate | None = None,
                 p_value: float | None = None,
                 p_value_given_pos: float | None = None) -> MIReport:
    """Assemble an MIReport from the two MI estimates and test results.

    Effect sizes are Cohen's d of the respective delta vectors.
    """
    kwargs = {}
    if classed is not None:
        kwargs = {
            "h_w_given_c": classed.uncond,
            "h_w_given_vc": classed.cond,
            "mi_given_pos": classed.mi,
            "uncertainty_given_pos": uncertainty_coefficient(
                classed.mi, classed.uncond.bits_per_phone),
            "cohens_d_given_pos": cohens_d(classed.deltas),
            "p_value_given_pos": p_value_given_pos,
        }
    return MIReport(
        language=language,
        n_words=plain.uncond.n_words,
        h_w=plain.uncond,
        h_w_given_v=plain.cond,
        mi=plain.mi,
        uncertainty=uncertainty_coefficient(plain.mi,
                                            plain.uncond.bits_per_phone),
        cohens_d=cohens_d(plain.deltas),
        p_value=p_value,
        **kwargs,
    )
