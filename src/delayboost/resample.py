"""Randomized SMOTE oversampling of the minority class.

For each minority row x_i, two other minority rows x_a and x_b are drawn at
random.  k points y_j are linearly interpolated between x_a and x_b, and each
synthetic sample z_j is then interpolated between x_i and y_j:

    y_j = x_a + t_j * (x_b - x_a),   t_j ~ U[0, 1]
    z_j = x_i + u_j * (y_j - x_i),   u_j ~ U[0, 1]

so every z_j lands inside the triangle spanned by x_i, x_a, x_b.  The
oversampling percentage R must be a non-negative multiple of 100 and produces
k = R / 100 synthetic rows per minority row, multiplying the minority count
by exactly 1 + k.  R = 0 is Strategy 1: the input comes back as it is.

Interpolation happens in the encoded numeric space, one-hot and integer-code
columns included, so synthetic rows carry fractional indicator and code
values.  A one-hot group's sum survives the affine combination only up to
float rounding; the exact row-sum-of-1 invariant holds just for original
rows.

RNG contract, on the raw 64-bit words of NumPy's PCG64 seeded with the
config seed (`bit_generator.random_raw`, which NEP 19 keeps stable): one
block of m * (1 + 2k) words is read, 1 + 2k words per minority row in row
order.  A row's source positions a and b come from the low and high 32-bit
halves of its first word, each a Lemire draw c = (half * (m - 1)) >> 32
that skips the row's own position (c + (c >= position)).  Its other 2k
words give t_1, u_1, ..., t_k, u_k, each (word >> 11) * 2**-53.  A row is
irregular when a half is rejected ((half * (m - 1)) & 0xFFFFFFFF <
(2**32 - (m - 1)) % (m - 1)) or when a == b.  Irregular rows are redrawn
in row order, each try taking its pair from the next single word after
the block, until the pair is regular; their t and u stay as drawn.

The draws are recorded as the `SmoteTrace`.  `synthesize_point` then
interpolates one column at a time, each written straight into its column
of the preallocated column-major output: the same element-wise
expressions on the same operands, so every bit matches a row-at-a-time
loop, and no temporary is larger than one column of the synthetic rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encode import FeatureMatrix
from .errors import InvalidPercentError, MinorityTooSmallError


@dataclass(frozen=True)
class SmoteConfig:
    """Oversampling settings: percent must be a non-negative multiple of 100."""

    percent: int
    seed: int = 0

    def __post_init__(self):
        if self.percent < 0 or self.percent % 100 != 0:
            raise InvalidPercentError(
                f"percent must be a non-negative multiple of 100, got {self.percent}"
            )

    @property
    def k(self) -> int:
        return self.percent // 100

    @property
    def strategy(self) -> str:
        return "Strategy 1" if self.k == 0 else "Strategy 2"


@dataclass(frozen=True)
class SmoteTrace:
    """Per-synthetic-row provenance: source rows and interpolation draws.

    Row r of the trace describes synthetic row r (appended after the
    originals): it was built from original rows seed_row[r], first[r],
    second[r] with draws t[r], u[r].
    """

    seed_row: np.ndarray
    first: np.ndarray
    second: np.ndarray
    t: np.ndarray
    u: np.ndarray


def synthesize_point(x_i, x_a, x_b, t, u) -> np.ndarray:
    """The two-step interpolation, element-wise: z = x_i + u * ((x_a + t * (x_b - x_a)) - x_i)."""
    x_i = np.asarray(x_i, dtype=np.float64)
    y = np.asarray(x_a, dtype=np.float64) + t * (np.asarray(x_b, dtype=np.float64) - x_a)
    return x_i + u * (y - x_i)


def random_smote(fm: FeatureMatrix, cfg: SmoteConfig) -> FeatureMatrix:
    """Oversample the minority class; original rows first, synthetic appended.

    At percent 0 (Strategy 1) `fm` itself comes back, and nothing is checked or drawn.

    Raises:
        MinorityTooSmallError: fewer than 3 minority rows, at a positive percent.
    """
    out, _ = random_smote_with_trace(fm, cfg)
    return out


def random_smote_with_trace(fm: FeatureMatrix, cfg: SmoteConfig):
    """Like :func:`random_smote` but also returns the :class:`SmoteTrace`."""
    k = cfg.k
    if k == 0:
        empty = np.empty(0, dtype=np.int64)
        return fm, SmoteTrace(empty, empty, empty, np.empty(0), np.empty(0))
    minority_label = _minority_label(fm.labels)
    minority_idx = np.flatnonzero(fm.labels == minority_label)
    m = minority_idx.size
    if m < 3:
        raise MinorityTooSmallError(f"minority class has {m} row{'s' * (m != 1)}, need at least 3")

    firsts, seconds, draws = _draws(np.random.PCG64(cfg.seed), m, k)
    trace = SmoteTrace(
        seed_row=np.repeat(minority_idx, k),
        first=np.repeat(minority_idx[firsts], k),
        second=np.repeat(minority_idx[seconds], k),
        t=draws[:, 0::2].ravel(),
        u=draws[:, 1::2].ravel(),
    )

    n = fm.n_rows
    values = np.empty((n + m * k, fm.n_features), order="F")
    values[:n] = fm.values
    for j, x in enumerate(fm.values.T):
        values[n:, j] = synthesize_point(
            x.take(trace.seed_row), x.take(trace.first), x.take(trace.second), trace.t, trace.u
        )
    labels = np.concatenate([fm.labels, np.full(m * k, minority_label, dtype=np.int64)])
    return replace(fm, values=values, labels=labels), trace


def _minority_label(labels: np.ndarray) -> int:
    ones = int((labels == 1).sum())
    zeros = labels.size - ones
    # On a tie there is no minority; default to label 1, the delayed class.
    return 1 if ones <= zeros else 0


def _draws(bit_generator, m: int, k: int):
    """Every minority row's draws, by the RNG contract, from `bit_generator`.

    Returns (firsts, seconds, draws): each row's a and b, positions in
    [0, m), and its (m, 2k) t and u draws, interleaved.
    """
    words = bit_generator.random_raw(m * (1 + 2 * k)).reshape(m, 1 + 2 * k)
    firsts, seconds, irregular = _pairs(words[:, 0], np.arange(m), m - 1)
    for row in np.flatnonzero(irregular):
        one = slice(row, row + 1)
        while irregular[row]:
            firsts[one], seconds[one], irregular[one] = _pairs(
                bit_generator.random_raw(1), row, m - 1)
    return firsts, seconds, (words[:, 1:] >> 11) * 2.0**-53


def _pairs(words, position, span: int):
    """(a, b, irregular) of each word: Lemire draws c in [0, span) from its
    low and high halves, each then skipping `position`, and whether either
    half is rejected or a == b."""
    threshold = (2**32 - span) % span
    low, high = (words & 0xFFFFFFFF) * span, (words >> 32) * span
    rejected = ((low & 0xFFFFFFFF) < threshold) | ((high & 0xFFFFFFFF) < threshold)
    a, b = (low >> 32).astype(np.int64), (high >> 32).astype(np.int64)
    return a + (a >= position), b + (b >= position), rejected | (a == b)
