"""Cover matrix of one or two Dowker dissimilarities.

For dissimilarities Lambda1 on L1 x W and Lambda2 on L2 x W over the same
witnesses, the cover matrix is

    rho(l, l') = sup { Lambda1(l', w) : w in W, Lambda2(l, w) < Lambda1(l', w) }

for l in L2 and l' in L1, with rho(l, l') = 0 when the set is empty.  The
single-argument form uses Lambda1 = Lambda2.  Runs in O(|L1| * |L2| * |W|),
one column per row of Lambda1 (``cover_column``), each over blocks of
Lambda2's rows (``model.row_blocks``), so a column holds one block of
temporaries, not |L2| x |W| of them.  The pipeline never builds the full
square matrix: farthest-point sampling asks for one column at a time,
restricted to the rows whose entry could still matter.
"""

from __future__ import annotations

import numpy as np

from .model import InputValidationError, extended_values, row_blocks


def cover_matrix(lambda1, lambda2=None) -> np.ndarray:
    """Return the |L2| x |L1| cover matrix of one or two dissimilarities.

    ``lambda1``/``lambda2`` may be ``DowkerDissimilarity`` instances or bare
    matrices over the same witnesses; their row counts may differ.  Entry
    (l, l') is the largest value Lambda1(l', w) over witnesses w where
    Lambda2(l, w) < Lambda1(l', w), or 0 if no witness qualifies.  Each
    column runs over blocks of Lambda2's rows (``cover_column``), so beside
    the result it holds one block of temporaries.
    """
    a1 = extended_values(lambda1)
    a2 = a1 if lambda2 is None else extended_values(lambda2)
    if a1.shape[1:] != a2.shape[1:]:
        raise InputValidationError(
            f"witness mismatch: {a1.shape} vs {a2.shape}"
        )
    rho = np.zeros((a2.shape[0], a1.shape[0]))
    for lp, row in enumerate(a1):
        rho[:, lp] = cover_column(row, a2)
    return rho


def cover_column(row: np.ndarray, lambda2: np.ndarray, rows=None) -> np.ndarray:
    """Column l' of the cover matrix, given ``row`` = Lambda1(l', .).

    Entry l is the largest ``row[w]`` over witnesses w with
    ``lambda2[l, w] < row[w]``, or 0, for the rows l of ``lambda2`` listed
    in ``rows`` (all of them by default).  Works a block of rows at a
    time, gathering only that block's rows.  Takes float arrays that
    ``as_extended_matrix`` has already accepted, with matching witness
    counts, and checks nothing.
    """
    out = np.empty(len(lambda2) if rows is None else len(rows))
    for s in row_blocks(len(out), len(row)):
        block = lambda2[s] if rows is None else lambda2[rows[s]]
        # Masked values are > Lambda2(l, w) >= 0, so 0 is a safe empty-set fill.
        np.where(block < row, row, 0.0).max(axis=1, out=out[s])
    return out
