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

`_draws` makes these draws in bulk from PCG64's raw 64-bit words; the
draw order above is unchanged, and so is every output bit.  `integers`
draws each c with Lemire's method from one 32-bit half of a word, low half
first, caching the high half for the next 32-bit draw; `random` makes each
t or u from one whole word as (word >> 11) * 2**-53.  So a minority row
reads 1 + 2k words of `bit_generator.random_raw`, which are fetched for up
to `_CHUNK_ROWS` rows at a time.  Each c is (half * (m - 1)) >> 32.  With
no half cached, a's and b's halves are the low and high halves of the
row's first word.  With one cached (after an odd number of 32-bit draws),
a's half is the cached one, which is the previous row's high half, b's is
the low half of the row's first word, and its high half stays cached;
after each chunk the last one is written back into the generator's state.
The row's other 2k words give t_1, u_1, ..., t_k, u_k.

A row is irregular when a draw is rejected ((half * (m - 1)) & 0xFFFFFFFF
< (2**32 - (m - 1)) % (m - 1)) or when a == b.  At the first irregular row
of a chunk, the generator is reset to the chunk's start and advanced past
the regular rows, that one row is drawn by the scalar `_draw_row`, and the
next chunk starts after it.  The generator ends in the state that drawing
every row with `_draw_row` leaves.

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

# Minority rows whose raw words `_draws` reads at a time (1 + 2k words a row).
_CHUNK_ROWS = 8192


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
    firsts, seconds, draws = _draws(rng, m, k)
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


def _draws(rng, m: int, k: int):
    """Every minority row's draws, in the contract's order, from raw words.

    Returns (firsts, seconds, draws): each row's a and b, positions in
    [0, m), and its (m, 2k) t and u draws, interleaved.  They, and the
    state `rng` is left in, equal those of calling `_draw_row` for every row.
    """
    bg = rng.bit_generator
    span = m - 1
    threshold = (2**32 - span) % span
    width = 1 + 2 * k
    firsts = np.empty(m, dtype=np.int64)
    seconds = np.empty(m, dtype=np.int64)
    draws = np.empty((m, 2 * k))
    pos = 0
    while pos < m:
        rows = min(_CHUNK_ROWS, m - pos)
        state = bg.state
        words = bg.random_raw(rows * width).reshape(rows, width)
        low, high = words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32
        # halves[i]: the 32-bit half PCG64 holds, cached or spent, as row i starts
        halves = np.concatenate((np.array([state["uinteger"]], dtype=np.uint64), high))
        a_half, b_half = (halves[:-1], low) if state["has_uint32"] else (low, high)
        pa, pb = a_half * span, b_half * span
        ca, cb = (pa >> 32).astype(np.int64), (pb >> 32).astype(np.int64)
        irregular = ((pa & 0xFFFFFFFF) < threshold) | ((pb & 0xFFFFFFFF) < threshold) | (ca == cb)
        done = int(irregular.argmax()) if irregular.any() else rows
        here = np.arange(pos, pos + done)
        firsts[pos : pos + done] = ca[:done] + (ca[:done] >= here)
        seconds[pos : pos + done] = cb[:done] + (cb[:done] >= here)
        np.multiply(words[:done, 1:] >> 11, 2.0**-53, out=draws[pos : pos + done])
        if done < rows:
            bg.state = state
            bg.advance(done * width)
        after = bg.state
        after["has_uint32"], after["uinteger"] = state["has_uint32"], int(halves[done])
        bg.state = after
        pos += done
        if done < rows:
            firsts[pos], seconds[pos], draws[pos] = _draw_row(rng, m, pos, k)
            pos += 1
    return firsts, seconds, draws


def _draw_row(rng, m: int, pos: int, k: int):
    a = _draw_excluding(rng, m, pos)
    b = _draw_excluding(rng, m, pos)
    while b == a:
        b = _draw_excluding(rng, m, pos)
    return a, b, rng.random(2 * k)


def _draw_excluding(rng, m: int, skip: int) -> int:
    c = int(rng.integers(0, m - 1))
    return c if c < skip else c + 1
