"""Symmetric matrices over GF(2) with bit-packed rows.

Rows are Python ints used as bit vectors: bit j of row i holds the entry in
row ``labels[i]``, column ``labels[j]``.  Instances are immutable values;
every operation returns a new matrix.  The determinant of the empty (0 x 0)
matrix is 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Hashable, Optional

from .errors import InputError, SingularPivotError

__all__ = ["Gf2Matrix"]

Label = Hashable


def _compress(row: int, positions: Sequence[int]) -> int:
    """Extract the bits of ``row`` at ``positions``, packed contiguously."""
    out = 0
    for i, p in enumerate(positions):
        out |= ((row >> p) & 1) << i
    return out


def _spread(bits: int, positions: Sequence[int]) -> int:
    """Inverse of :func:`_compress`: place bit i of ``bits`` at positions[i]."""
    out = 0
    for i, p in enumerate(positions):
        out |= ((bits >> i) & 1) << p
    return out


def _walk_nonsingular(rows: Sequence[int], rest: int, chosen: int, leaf) -> int:
    """Count the non-empty sets T within ``rest`` with det(rows[T]) = 1.

    ``rows`` holds a symmetric matrix, read only on the positions in the
    bitmask ``rest``.  The lowest position v of ``rest`` is either left out,
    or taken together with the rest of T by one Schur complement step, since
    det(M[T]) = det(P) det((M / P)[T - P]) for the block P taken.  With a
    loop on v, P = {v}.  Without one, a nonsingular T containing v must also
    contain a neighbour w of v, so P = {v, w} (a block of det 1) for the
    lowest such w in T: each neighbour in turn is taken and then dropped.
    Each set T is reached exactly once; ``leaf``, when given, receives
    ``chosen | T`` as a bitmask.  The empty set is the caller's to count.
    """
    total = 0
    while rest:
        low = rest & -rest
        rest ^= low
        rv = rows[low.bit_length() - 1]
        if rv & low:
            total += 1
            if leaf is not None:
                leaf(chosen | low)
            if rest:
                # rank-one update: M[u] += M[u, v] M[v]
                sub = list(rows)
                hit = rv & rest
                while hit:
                    b = hit & -hit
                    hit ^= b
                    sub[b.bit_length() - 1] ^= rv
                total += _walk_nonsingular(sub, rest, chosen | low, leaf)
            continue
        nbrs = rv & rest
        left = rest
        while nbrs:
            wb = nbrs & -nbrs
            nbrs ^= wb
            left ^= wb
            total += 1
            if leaf is not None:
                leaf(chosen | low | wb)
            if not left:
                break
            # 2x2 update with P = [[0, 1], [1, d]], P^-1 = [[d, 1], [1, 0]]:
            # M[u] += M[u, w] M[v] + M[u, v] (M[w] + d M[v])
            rw = rows[wb.bit_length() - 1]
            hit = rw & left
            if rw & wb:
                rw ^= rv
            sub = list(rows)
            while hit:
                b = hit & -hit
                hit ^= b
                sub[b.bit_length() - 1] ^= rv
            hit = rv & left
            while hit:
                b = hit & -hit
                hit ^= b
                sub[b.bit_length() - 1] ^= rw
            total += _walk_nonsingular(sub, left, chosen | low | wb, leaf)
    return total


class Gf2Matrix:
    """Symmetric square 0/1 matrix over GF(2), indexed by arbitrary labels.

    Args:
        labels: ordered sequence of distinct row/column labels.
        rows: one int per label; bit j of rows[i] is the (i, j) entry.

    Raises:
        InputError: on duplicate labels, length mismatch, stray bits beyond
            the matrix order, or an asymmetric entry.
    """

    __slots__ = ("_labels", "_pos", "_rows")

    def __init__(self, labels: Sequence[Label], rows: Sequence[int]):
        labels = tuple(labels)
        rows = tuple(int(r) for r in rows)
        n = len(labels)
        if len(set(labels)) != n:
            raise InputError("duplicate labels")
        if len(rows) != n:
            raise InputError(f"expected {n} rows, got {len(rows)}")
        limit = 1 << n
        for r in rows:
            if r < 0 or r >= limit:
                raise InputError("row has bits outside the matrix order")
        for i in range(n):
            for j in range(i + 1, n):
                if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                    raise InputError(
                        f"asymmetric entries at ({labels[i]!r}, {labels[j]!r})"
                    )
        self._labels = labels
        self._rows = rows
        self._pos = {lbl: i for i, lbl in enumerate(labels)}

    @classmethod
    def _trusted(cls, labels: tuple, rows: tuple) -> "Gf2Matrix":
        # internal fast path: caller guarantees the constructor invariants
        m = object.__new__(cls)
        m._labels = labels
        m._rows = rows
        m._pos = {lbl: i for i, lbl in enumerate(labels)}
        return m

    @classmethod
    def zeros(cls, labels: Sequence[Label]) -> "Gf2Matrix":
        labels = tuple(labels)
        return cls(labels, (0,) * len(labels))

    @classmethod
    def from_dense(cls, labels: Sequence[Label], entries: Sequence[Sequence[int]]) -> "Gf2Matrix":
        """Build from a dense 0/1 row-of-rows table."""
        rows = []
        for row in entries:
            bits = 0
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise InputError(f"entry {x!r} is not a bit")
                bits |= x << j
            rows.append(bits)
        return cls(labels, rows)

    @property
    def order(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def rows(self) -> tuple:
        """Bit-packed rows; bit j of rows[i] is the (labels[i], labels[j]) entry."""
        return self._rows

    def entry(self, u: Label, v: Label) -> int:
        try:
            i, j = self._pos[u], self._pos[v]
        except KeyError as err:
            raise InputError(f"unknown label: {err.args[0]!r}") from None
        return (self._rows[i] >> j) & 1

    def to_dense(self) -> list:
        n = self.order
        return [[(r >> j) & 1 for j in range(n)] for r in self._rows]

    def _subset_positions(self, keep: Iterable[Label]) -> list:
        keep = set(keep)
        unknown = keep - self._pos.keys()
        if unknown:
            raise InputError(f"unknown label: {sorted(map(repr, unknown))[0]}")
        return [i for i, lbl in enumerate(self._labels) if lbl in keep]

    def principal_submatrix(self, keep: Iterable[Label]) -> "Gf2Matrix":
        """Restrict to the rows and columns in ``keep``, preserving label order."""
        pos = self._subset_positions(keep)
        labels = tuple(self._labels[i] for i in pos)
        rows = tuple(_compress(self._rows[i], pos) for i in pos)
        return Gf2Matrix._trusted(labels, rows)

    def det(self) -> int:
        """Determinant over GF(2) by elimination; 1 for the empty matrix.

        The pivot row for each column is the first row with a nonzero entry,
        so the elimination order is deterministic.
        """
        rows = list(self._rows)
        n = len(rows)
        for col in range(n):
            piv = None
            for i in range(col, n):
                if (rows[i] >> col) & 1:
                    piv = i
                    break
            if piv is None:
                return 0
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
            prow = rows[col]
            for i in range(col + 1, n):
                if (rows[i] >> col) & 1:
                    rows[i] ^= prow
        return 1

    def kernel_witness(self) -> Optional[frozenset]:
        """A non-empty label set whose rows sum to zero, or None if det = 1.

        The returned set S certifies singularity: every row has an even
        number of 1 entries in the columns indexed by S.

        Returns:
            frozenset of labels, or None when the matrix is nonsingular.
        """
        n = self.order
        rows = list(self._rows)
        tags = [1 << i for i in range(n)]
        rank = 0
        for col in range(n):
            piv = None
            for i in range(rank, n):
                if (rows[i] >> col) & 1:
                    piv = i
                    break
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            tags[rank], tags[piv] = tags[piv], tags[rank]
            for i in range(rank + 1, n):
                if (rows[i] >> col) & 1:
                    rows[i] ^= rows[rank]
                    tags[i] ^= tags[rank]
            rank += 1
        if rank == n:
            return None
        # row `rank` is fully eliminated; its tag records which original rows
        # sum to zero, and row operations keep tags invertible, hence non-empty
        tag = tags[rank]
        return frozenset(self._labels[i] for i in range(n) if (tag >> i) & 1)

    def ppt(self, pivot_set: Iterable[Label]) -> "Gf2Matrix":
        """Principal pivot transform on ``pivot_set``.

        Writing the matrix in blocks with P the principal submatrix on the
        pivot set and Q the rows of the pivot set restricted to the other
        columns, the result is ``[[P^-1, P^-1 Q], [(P^-1 Q)^T, S + Q^T P^-1 Q]]``
        over GF(2).  Computed by block elimination: one Gauss-Jordan pass on
        ``[P | I | Q]`` yields P^-1 and P^-1 Q together.

        Args:
            pivot_set: labels to pivot on; their principal submatrix must be
                nonsingular.

        Raises:
            SingularPivotError: when det of the principal submatrix is 0.
        """
        pos = self._subset_positions(pivot_set)
        if not pos:
            return self
        n = self.order
        chosen = set(pos)
        rest = [i for i in range(n) if i not in chosen]
        k, r = len(pos), len(rest)

        block = [_compress(self._rows[i], pos) for i in pos]
        right = [_compress(self._rows[i], rest) for i in pos]
        aug = [block[i] | (1 << (k + i)) | (right[i] << (2 * k)) for i in range(k)]
        for col in range(k):
            piv = None
            for i in range(col, k):
                if (aug[i] >> col) & 1:
                    piv = i
                    break
            if piv is None:
                raise SingularPivotError(
                    "principal submatrix on the pivot set is singular"
                )
            if piv != col:
                aug[col], aug[piv] = aug[piv], aug[col]
            for i in range(k):
                if i != col and (aug[i] >> col) & 1:
                    aug[i] ^= aug[col]
        mask_k = (1 << k) - 1
        mask_r = (1 << r) - 1
        p_inv = [(aug[i] >> k) & mask_k for i in range(k)]
        solved = [(aug[i] >> (2 * k)) & mask_r for i in range(k)]

        schur = [_compress(self._rows[i], rest) for i in rest]
        for i in range(k):
            q_bits = right[i]
            while q_bits:
                low = q_bits & -q_bits
                schur[low.bit_length() - 1] ^= solved[i]
                q_bits ^= low

        new_rows = [0] * n
        for i, p in enumerate(pos):
            new_rows[p] = _spread(p_inv[i], pos) | _spread(solved[i], rest)
        for a, p in enumerate(rest):
            col_bits = 0
            for i in range(k):
                col_bits |= ((solved[i] >> a) & 1) << i
            new_rows[p] = _spread(col_bits, pos) | _spread(schur[a], rest)
        # the ppt of a symmetric matrix is symmetric, so skip the validation
        return Gf2Matrix._trusted(self._labels, tuple(new_rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return self._labels == other._labels and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._labels, self._rows))

    def __repr__(self) -> str:
        return f"Gf2Matrix({list(self._labels)!r}, {self.to_dense()!r})"
