"""Coordinate-format sparse matrix.

COO is the natural output format of graph generators (an edge list with
optional weights); :class:`COOMatrix` provides validation, duplicate
handling and conversion to CSR, which every kernel in this repository
consumes.
"""

from __future__ import annotations

import numpy as np


def _run_starts(sorted_keys):
    """Mask of the first entry of each run of equal (non-empty) keys."""
    starts = np.empty(sorted_keys.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


class COOMatrix:
    """A sparse matrix in coordinate (edge-list) format.

    Parameters
    ----------
    rows, cols:
        Integer arrays of equal length giving the coordinates of each
        stored entry.
    vals:
        Optional float array of entry values.  When omitted every entry
        has value 1.0 (an unweighted graph).
    shape:
        ``(n_rows, n_cols)``.  When omitted it is inferred as the tightest
        shape containing all coordinates.
    """

    def __init__(self, rows, cols, vals=None, shape=None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.ndim != 1 or cols.ndim != 1:
            raise ValueError("rows and cols must be one-dimensional")
        if rows.shape[0] != cols.shape[0]:
            raise ValueError(
                f"rows ({rows.shape[0]}) and cols ({cols.shape[0]}) differ in length"
            )
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=np.float64)
        else:
            vals = np.asarray(vals, dtype=np.float64)
            if vals.shape != rows.shape:
                raise ValueError("vals must have the same length as rows/cols")
        if shape is None:
            n_rows = int(rows.max()) + 1 if rows.size else 0
            n_cols = int(cols.max()) + 1 if cols.size else 0
            shape = (n_rows, n_cols)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or cols.min() < 0:
                raise ValueError("negative coordinates are not allowed")
            if rows.max() >= n_rows or cols.max() >= n_cols:
                raise ValueError("coordinates exceed the declared shape")
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.shape = (n_rows, n_cols)

    @property
    def nnz(self):
        """Number of stored entries (duplicates counted separately)."""
        return int(self.rows.shape[0])

    def coalesce(self):
        """Return a new :class:`COOMatrix` with duplicate coordinates summed.

        Entries are sorted in row-major order, matching CSR layout.  The
        keys are sorted once.  Duplicates of an all-ones matrix (every
        generator's edge list) sum to their run length, exactly; other
        values are summed per run in input order, the order
        ``np.add.at`` adds them.
        """
        if self.nnz == 0:
            return COOMatrix(self.rows, self.cols, self.vals, self.shape)
        n_cols = self.shape[1]
        keys = self.rows * n_cols + self.cols
        if np.all(self.vals == 1.0):
            keys.sort()
            first = np.flatnonzero(_run_starts(keys))
            summed = np.diff(first, append=keys.shape[0]).astype(np.float64)
        else:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            new = _run_starts(keys)
            summed = np.bincount(np.cumsum(new) - 1, weights=self.vals[order])
            first = np.flatnonzero(new)
        keys = keys[first]
        return COOMatrix(keys // n_cols, keys % n_cols, summed, self.shape)

    def transpose(self):
        """Return the transpose as a new :class:`COOMatrix`."""
        return COOMatrix(
            self.cols, self.rows, self.vals, (self.shape[1], self.shape[0])
        )

    def to_csr(self):
        """Convert to :class:`repro.sparse.CSRMatrix`, coalescing duplicates."""
        from repro.sparse.csr import CSRMatrix

        coalesced = self.coalesce()
        n_rows = self.shape[0]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(coalesced.rows, minlength=n_rows),
                  out=indptr[1:])
        return CSRMatrix(indptr, coalesced.cols, coalesced.vals, self.shape)

    def to_dense(self):
        """Materialize as a dense numpy array (tests and small graphs only)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def __repr__(self):
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
