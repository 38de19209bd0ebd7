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

RNG contract (NumPy PCG64 seeded with the config seed): minority rows are
visited in their row order; for each, draw a, then draw b redrawing while
b == a, then for j = 1..k draw t_j then u_j.  Index draws exclude the current
row by sampling an integer c in [0, m-1) and skipping over the row's own
position (a = c if c < position else c + 1).  This fixed sequential order
makes the output a pure function of (matrix, config).

The per-row Python loop only makes these draws and records them (they are
the `SmoteTrace`).  `synthesize_point` then interpolates one column at a
time, each written straight into its column of the preallocated
column-major output: the same element-wise expressions on the same
operands, so every bit matches a row-at-a-time loop, and no temporary is
larger than one column of the synthetic rows.
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
        raise MinorityTooSmallError(f"minority class has {m} rows, need at least 3")

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    firsts = np.empty(m, dtype=np.int64)
    seconds = np.empty(m, dtype=np.int64)
    draws = np.empty((m, 2 * k))
    for pos in range(m):
        a = _draw_excluding(rng, m, pos)
        b = _draw_excluding(rng, m, pos)
        while b == a:
            b = _draw_excluding(rng, m, pos)
        firsts[pos], seconds[pos] = a, b
        draws[pos] = rng.random(2 * k)
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


def _draw_excluding(rng, m: int, skip: int) -> int:
    c = int(rng.integers(0, m - 1))
    return c if c < skip else c + 1
