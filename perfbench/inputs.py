"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the benchmark seed: the same seed gives
byte-identical inputs. The study model is shared by all matrices:

- sparse replicated signal: a small share of hypotheses is non-null in
  k >= r studies, k uniform in r..n, the studies chosen at random;
- 5% of entries are missing (written as ``NA`` in CSV files, NaN in memory);
- a quarter of the studies report p-values rounded to 3 decimals, so ties
  reach the BH search's rational fallback.
"""
from __future__ import annotations

import hashlib

import numpy as np

MISSING_FRAC = 0.05
ROUND_DECIMALS = 3
# the adjusted-value cost grows with the number of hypotheses rejected at
# alpha = 1, which varies by some 20% between seeds; cycling over several
# matrices keeps the work of one run nearly the same for every seed
ADJUSTED_MATRICES = 8

# workload tags keep the streams of different inputs apart for one seed
_TAG_CSV = 1
_TAG_INMEM = 2
_TAG_ADJUSTED = 3
_TAG_PANEL = 4


def study_matrix(seed: int, key: tuple[int, ...], m: int, n: int, r: int, signal_frac: float) -> np.ndarray:
    """n x m p-value matrix of the shared study model, NaN marking missing entries."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))
    signal = np.sort(rng.choice(m, size=round(signal_frac * m), replace=False))
    k = rng.integers(r, n + 1, size=signal.size)
    # a uniformly random subset of k studies per signal column, via random ranks
    ranks = np.argsort(np.argsort(rng.random((n, signal.size)), axis=0), axis=0)
    nonnull = ranks < k[None, :]
    rounded = set(rng.choice(n, size=n // 4, replace=False).tolist())

    values = np.empty((n, m), dtype=np.float64)
    missing = np.empty((n, m), dtype=bool)
    for i in range(n):
        row = rng.random(m)
        hits = signal[nonnull[i]]
        row[hits] = rng.random(hits.size) ** 12
        values[i] = np.round(row, ROUND_DECIMALS) if i in rounded else row
        missing[i] = rng.random(m) < MISSING_FRAC
    # validation rejects a column with no observed entry; keep its first one
    missing[0, missing.all(axis=0)] = False
    values[missing] = np.nan
    return values


def csv_matrix(seed: int) -> np.ndarray:
    """The 2e5 x 8 matrix behind the cli-csv workload's CSV file (r = 3)."""
    return study_matrix(seed, (_TAG_CSV,), m=200_000, n=8, r=3, signal_frac=0.05)


def inmem_matrix(seed: int) -> np.ndarray:
    """The 1e6 x 8 matrix of the inmem-large workload (r = 4)."""
    return study_matrix(seed, (_TAG_INMEM,), m=1_000_000, n=8, r=4, signal_frac=0.05)


def adjusted_matrices(seed: int) -> list[np.ndarray]:
    """The ADJUSTED_MATRICES 2,000 x 4 matrices of the adjusted workload (r = 2)."""
    return [study_matrix(seed, (_TAG_ADJUSTED, i), m=2_000, n=4, r=2, signal_frac=0.05)
            for i in range(ADJUSTED_MATRICES)]


def panel_seed(seed: int) -> int:
    """The master_seed override passed to ``adafilter simulate --seed``."""
    return int(np.random.SeedSequence([seed, _TAG_PANEL]).generate_state(1, np.uint64)[0])


def hypothesis_ids(m: int) -> list[str]:
    return [f"h{j:07d}" for j in range(m)]


def csv_bytes(values: np.ndarray) -> bytes:
    """CSV text of a matrix: header of study names, one row per hypothesis.

    Cells are the shortest decimal that reads back as the same float, so
    the program parses exactly the values of ``values``.
    """
    n, m = values.shape
    lines = ["id," + ",".join(f"s{i + 1}" for i in range(n))]
    for ident, row in zip(hypothesis_ids(m), values.T.tolist()):
        cells = ["NA" if x != x else repr(x) for x in row]
        lines.append(ident + "," + ",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")


def fingerprint(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
