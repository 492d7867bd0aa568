"""Synthetic lexica with exactly computable entropies and mutual information.

Words are drawn from a mixture of meaning clusters; each cluster emits forms
from a first-order Markov chain over phones with per-phone stopping
probabilities and a hard length cap. Meaning vectors are cluster centroids
plus isotropic Gaussian noise, so the cluster label is the only channel
between form and meaning. Everything about these lexica can be enumerated:
H(W), H(W|cluster), MI, and per-position code lengths under the true
predictive distributions, which makes this module the ground-truth oracle
for the estimation pipeline.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationBoundError, InfeasibleSpecError
from .lexicon import Lexicon, Phone, PhoneInventory, Sign
from .seeding import derive_rng

ENUM_CAP = 10_000_000


def _check_dist(name: str, arr: np.ndarray, axis: int | None = None):
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
        raise InfeasibleSpecError(f"{name} has entries outside [0, 1]")
    if axis is not None:
        sums = arr.sum(axis=axis)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise InfeasibleSpecError(f"{name} rows must sum to 1")


@dataclass(frozen=True)
class ClusterChain:
    """First-order Markov form model: start, transition, stop probabilities.

    stop[i] is the probability of ending the word after emitting phone i;
    at the spec's max length the stop is forced.
    """

    start: np.ndarray
    trans: np.ndarray
    stop: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=np.float64))
        object.__setattr__(self, "trans", np.asarray(self.trans, dtype=np.float64))
        object.__setattr__(self, "stop", np.asarray(self.stop, dtype=np.float64))
        s = self.start.shape[0]
        if self.trans.shape != (s, s) or self.stop.shape != (s,):
            raise InfeasibleSpecError("chain arrays have inconsistent shapes")
        _check_dist("start", self.start, axis=0)
        _check_dist("trans", self.trans, axis=1)
        _check_dist("stop", self.stop)


@dataclass(frozen=True)
class SyntheticSpec:
    """Cluster-mixture lexicon generator with enumerable form distribution."""

    alphabet: tuple[str, ...]
    prior: np.ndarray
    chains: tuple[ClusterChain, ...]
    centroids: np.ndarray
    noise_scale: float
    max_len: int
    planted: tuple[int, tuple[int, ...]] | None = None
    language: str = "synth"

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=np.float64))
        object.__setattr__(self, "chains", tuple(self.chains))
        object.__setattr__(self, "centroids",
                           np.asarray(self.centroids, dtype=np.float64))
        s = len(self.alphabet)
        m = self.prior.shape[0]
        if s < 1 or len(set(self.alphabet)) != s:
            raise InfeasibleSpecError("alphabet must be distinct, non-empty")
        _check_dist("prior", self.prior[None, :], axis=1)
        if len(self.chains) != m:
            raise InfeasibleSpecError("one chain per cluster required")
        for ch in self.chains:
            if ch.start.shape[0] != s:
                raise InfeasibleSpecError("chain size != alphabet size")
        if self.centroids.ndim != 2 or self.centroids.shape[0] != m:
            raise InfeasibleSpecError("centroids must be (clusters, dim)")
        if self.noise_scale < 0:
            raise InfeasibleSpecError("noise_scale must be nonnegative")
        if self.max_len < 1:
            raise InfeasibleSpecError("max_len must be >= 1")
        if s ** self.max_len > ENUM_CAP:
            raise InfeasibleSpecError(
                f"|alphabet|^max_len = {s ** self.max_len} exceeds {ENUM_CAP}")
        if self.planted is not None:
            c, prefix = self.planted
            prefix = tuple(int(p) for p in prefix)
            object.__setattr__(self, "planted", (int(c), prefix))
            if not (0 <= c < m):
                raise InfeasibleSpecError("planted cluster out of range")
            if not (1 <= len(prefix) <= self.max_len):
                raise InfeasibleSpecError("planted prefix length out of range")
            if any(not (0 <= p < s) for p in prefix):
                raise InfeasibleSpecError("planted prefix phone out of range")

    @property
    def n_clusters(self) -> int:
        return self.prior.shape[0]

    @property
    def meaning_dim(self) -> int:
        return self.centroids.shape[1]

    def encode_form(self, form) -> tuple[int, ...]:
        index = {p: i for i, p in enumerate(self.alphabet)}
        return tuple(index[p] for p in form)

    def to_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "prior": self.prior.tolist(),
            "chains": [{"start": c.start.tolist(), "trans": c.trans.tolist(),
                        "stop": c.stop.tolist()} for c in self.chains],
            "centroids": self.centroids.tolist(),
            "noise_scale": self.noise_scale,
            "max_len": self.max_len,
            "planted": None if self.planted is None
            else [self.planted[0], list(self.planted[1])],
            "language": self.language,
        }


def _cdf(p: np.ndarray) -> list[float]:
    """p's CDF as rng.choice(len(p), p=p) computes it: a cumsum divided by
    its last entry. For choice's one uniform double u, bisect_right(cdf, u)
    is the index its searchsorted(u, side="right") picks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _uniforms(rng: np.random.Generator, block: int = 4096):
    """rng's stream of doubles, as successive rng.random() calls give it."""
    while True:
        yield from rng.random(block).tolist()


def generate(spec: SyntheticSpec, n_words: int, seed: int):
    """Draw an i.i.d. lexicon from the spec; returns (lexicon, cluster labels).

    Forms follow the cluster's chain (planted prefix emitted verbatim first),
    stopping by the per-phone probability and forced at max_len. Meanings are
    centroid plus noise_scale * standard normal. Deterministic given seed.

    After the clusters and meanings, each phone is rng.choice(s, p=row) of
    its chain row and each stop test is rng.random() < stop: one double
    each. The forms replay that stream from blocks of doubles against CDFs
    computed once per chain row, so they are the forms those calls draw.
    """
    if n_words < 1:
        raise InfeasibleSpecError("n_words must be >= 1")
    rng = derive_rng(seed, "synth", spec.language)
    m, cap = spec.n_clusters, spec.max_len
    clusters = rng.choice(m, size=n_words, p=spec.prior)
    meanings = (spec.centroids[clusters]
                + spec.noise_scale * rng.standard_normal(
                    (n_words, spec.meaning_dim)))

    phones_of = tuple(Phone(p) for p in spec.alphabet)
    inventory = PhoneInventory.from_phones(phones_of)
    starts = [_cdf(chain.start) for chain in spec.chains]
    trans = [[_cdf(row) for row in chain.trans] for chain in spec.chains]
    stops = [chain.stop.tolist() for chain in spec.chains]
    planted, prefix = spec.planted or (-1, ())
    uniforms = _uniforms(rng)
    signs = []
    for i, c in enumerate(clusters.tolist()):
        if c == planted:
            phones = list(prefix)
        else:
            phones = [bisect_right(starts[c], next(uniforms))]
        stop, rows = stops[c], trans[c]
        while len(phones) < cap:
            if next(uniforms) < stop[phones[-1]]:
                break
            phones.append(bisect_right(rows[phones[-1]], next(uniforms)))
        signs.append(Sign(lemma=f"w{i:06d}",
                          form=tuple(phones_of[p] for p in phones),
                          meaning=meanings[i], pos="X"))
    lex = Lexicon(language=spec.language, inventory=inventory, signs=signs,
                  classes=("X",))
    return lex, clusters


def _sweep_cluster(spec: SyntheticSpec, c: int, mix: list[np.ndarray],
                   weight: float):
    """Add cluster c's word distribution into the per-length mixture arrays.

    Returns (total entropy bits, expected token count) for the cluster.
    Word-probability arrays are indexed lexicographically, first phone most
    significant, so strings sharing a prefix form contiguous blocks.
    """
    s, cap = len(spec.alphabet), spec.max_len
    chain = spec.chains[c]
    planted = spec.planted if spec.planted and spec.planted[0] == c else None

    h_bits = 0.0
    e_tokens = 0.0
    mass = 0.0
    if planted is None:
        alive = chain.start.copy()
        k0 = 1
        offset_len = 0
        offset_code = 0
    else:
        prefix = planted[1]
        alive = np.ones(1)
        k0 = len(prefix)
        offset_len = len(prefix)
        offset_code = 0
        for p in prefix:
            offset_code = offset_code * s + p
        # Within the continuation block the chain state starts at the
        # prefix's last phone.
        last_override = prefix[-1]

    for k in range(k0, cap + 1):
        width = k - offset_len
        if width == 0:
            last = np.array([last_override])
        else:
            last = np.tile(np.arange(s), s ** (width - 1)) \
                if width > 1 else np.arange(s)
        stop_p = chain.stop[last] if k < cap else np.ones_like(alive)
        w = alive * stop_p
        nz = w > 0
        if np.any(nz):
            h_bits -= float(np.sum(w[nz] * np.log2(w[nz])))
            total = float(w.sum())
            e_tokens += (k + 1) * total
            mass += total
            block = offset_code * (s ** width)
            mix[k - 1][block:block + w.shape[0]] += weight * w
        if k < cap:
            cont = alive * (1.0 - chain.stop[last])
            alive = (cont[:, None] * chain.trans[last, :]).ravel()
            if width == 0:
                last_override = None
    if not np.isclose(mass, 1.0, atol=1e-9):
        raise EnumerationBoundError(
            f"cluster {c} mass {mass} != 1; enumeration inconsistent")
    return h_bits, e_tokens


@dataclass(frozen=True)
class ExactEntropy:
    """Enumerated entropies of a spec, in bits per word and per phone.

    Token counts follow the micro-average convention: a word of length k
    contributes k+1 tokens (its phones plus the end marker), and per-phone
    quantities divide total bits by expected tokens.
    """

    total_bits: float
    expected_tokens: float
    cluster_bits: np.ndarray
    cluster_expected_tokens: np.ndarray

    @property
    def bits_per_phone(self) -> float:
        return self.total_bits / self.expected_tokens

    @property
    def conditional_total_bits(self) -> float:
        return float(self._prior @ self.cluster_bits)

    _prior: np.ndarray = field(repr=False, default=None)


def exact_entropy(spec: SyntheticSpec) -> ExactEntropy:
    """Enumerate all strings up to max_len and compute exact entropies;
    SyntheticSpec keeps their number within ENUM_CAP."""
    s, cap, m = len(spec.alphabet), spec.max_len, spec.n_clusters
    mix = [np.zeros(s ** k) for k in range(1, cap + 1)]
    cluster_bits = np.zeros(m)
    cluster_tokens = np.zeros(m)
    for c in range(m):
        cluster_bits[c], cluster_tokens[c] = _sweep_cluster(
            spec, c, mix, float(spec.prior[c]))

    h_bits = 0.0
    e_tokens = 0.0
    mass = 0.0
    for k, arr in enumerate(mix, start=1):
        nz = arr > 0
        if np.any(nz):
            h_bits -= float(np.sum(arr[nz] * np.log2(arr[nz])))
            total = float(arr.sum())
            e_tokens += (k + 1) * total
            mass += total
    if not np.isclose(mass, 1.0, atol=1e-9):
        raise EnumerationBoundError(f"mixture mass {mass} != 1")
    return ExactEntropy(total_bits=h_bits, expected_tokens=e_tokens,
                        cluster_bits=cluster_bits,
                        cluster_expected_tokens=cluster_tokens,
                        _prior=spec.prior.copy())


def exact_mi(spec: SyntheticSpec) -> float:
    """True MI(W; cluster) in bits per phone: H(W) − Σ_c prior·H(W|c).

    Both terms are normalized by the same expected token count, so the
    difference is exact and nonnegative.
    """
    ee = exact_entropy(spec)
    mi = (ee.total_bits - ee.conditional_total_bits) / ee.expected_tokens
    return max(mi, 0.0)


def _step_distributions(spec, chain, planted_prefix, t, prev):
    """True next-event distribution for one cluster at position t.

    Returns (phone_probs (S,), stop_prob) given that t phones were observed
    so far, the last being `prev` (None at t=0).
    """
    s, cap = len(spec.alphabet), spec.max_len
    if planted_prefix is not None and t < len(planted_prefix):
        probs = np.zeros(s)
        probs[planted_prefix[t]] = 1.0
        return probs, 0.0
    if t == cap:
        return np.zeros(s), 1.0
    if t == 0:
        return chain.start, 0.0
    stop = float(chain.stop[prev])
    return (1.0 - stop) * chain.trans[prev], stop


def oracle_word_bits(spec: SyntheticSpec, form_indices,
                     cluster: int | None = None) -> np.ndarray:
    """Per-token code lengths of a form under the true predictive model.

    With cluster=None the predictive distribution marginalizes over clusters
    with Bayesian posterior updating as phones are revealed; with a cluster
    given, it is that cluster's chain. Output has len(form)+1 entries, the
    last for the end-of-word event; impossible events give +inf bits.
    """
    form = [int(p) for p in form_indices]
    if not (1 <= len(form) <= spec.max_len):
        raise InfeasibleSpecError("form length out of range for spec")
    m = spec.n_clusters
    if cluster is None:
        weights = spec.prior.copy()
        active = list(range(m))
    else:
        weights = np.zeros(m)
        weights[cluster] = 1.0
        active = [cluster]

    prefixes = {c: (spec.planted[1] if spec.planted and spec.planted[0] == c
                    else None) for c in active}
    bits = np.empty(len(form) + 1)
    prev = None
    for t in range(len(form) + 1):
        total = weights.sum()
        if total <= 0:
            bits[t:] = np.inf
            break
        event_p = 0.0
        next_weights = np.zeros(m)
        for c in active:
            if weights[c] == 0:
                continue
            phone_probs, stop_p = _step_distributions(
                spec, spec.chains[c], prefixes[c], t, prev)
            if t == len(form):
                event_p += weights[c] * stop_p
            else:
                p = float(phone_probs[form[t]])
                event_p += weights[c] * p
                next_weights[c] = weights[c] * p
        bits[t] = np.inf if event_p <= 0 else -np.log2(event_p / total)
        if t < len(form):
            weights = next_weights
            prev = form[t]
    return bits


def two_cluster_spec(meaning_dim: int = 8, noise_scale: float = 0.1,
                     separation: float = 2.0) -> SyntheticSpec:
    """Two equiprobable clusters over {a, b}: the cluster fixes phone 1,
    phone 2 is uniform, every word has length exactly 2.

    Exact values: H(W) = 2 bits / 3 tokens, H(W|cluster) = 1 bit / 3 tokens,
    MI = 1/3 bits per phone.
    """
    def chain(first):
        return ClusterChain(start=np.eye(2)[first],
                            trans=np.full((2, 2), 0.5), stop=np.zeros(2))

    centroids = np.zeros((2, meaning_dim))
    centroids[0, 0] = +separation / 2
    centroids[1, 0] = -separation / 2
    return SyntheticSpec(alphabet=("a", "b"), prior=np.array([0.5, 0.5]),
                         chains=(chain(0), chain(1)), centroids=centroids,
                         noise_scale=noise_scale, max_len=2,
                         language="twoclust")


def independent_spec(meaning_dim: int = 8, noise_scale: float = 1.0,
                     alphabet: tuple[str, ...] = ("a", "e", "k", "s", "t"),
                     max_len: int = 6) -> SyntheticSpec:
    """Single-cluster spec: meanings are pure noise, true MI is exactly 0."""
    s = len(alphabet)
    rng = np.random.default_rng(20240917)
    start = rng.dirichlet(np.full(s, 4.0))
    trans = rng.dirichlet(np.full(s, 4.0), size=s)
    stop = np.full(s, 0.35)
    chain = ClusterChain(start=start, trans=trans, stop=stop)
    return SyntheticSpec(alphabet=alphabet, prior=np.array([1.0]),
                         chains=(chain,), centroids=np.zeros((1, meaning_dim)),
                         noise_scale=noise_scale, max_len=max_len,
                         language="indep")


def planted_prefix_spec(prefix: tuple[str, ...] = ("g", "l"),
                        meaning_dim: int = 8, noise_scale: float = 0.1,
                        planted_prior: float = 0.35,
                        alphabet: tuple[str, ...] = ("a", "g", "l", "m", "t"),
                        max_len: int = 6) -> SyntheticSpec:
    """Two clusters sharing one continuation chain; the planted cluster
    prepends a forced prefix and has its own meaning centroid, so the prefix
    carries meaning while all other affixes are uninformative beyond it.
    """
    s = len(alphabet)
    rng = np.random.default_rng(20241105)
    start = rng.dirichlet(np.full(s, 4.0))
    trans = rng.dirichlet(np.full(s, 4.0), size=s)
    stop = np.full(s, 0.4)
    chain = ClusterChain(start=start, trans=trans, stop=stop)
    index = {p: i for i, p in enumerate(alphabet)}
    prefix_idx = tuple(index[p] for p in prefix)
    centroids = np.zeros((2, meaning_dim))
    centroids[1, 0] = 2.0
    return SyntheticSpec(alphabet=alphabet,
                         prior=np.array([1 - planted_prior, planted_prior]),
                         chains=(chain, chain), centroids=centroids,
                         noise_scale=noise_scale, max_len=max_len,
                         planted=(1, prefix_idx), language="planted")
