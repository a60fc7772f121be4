"""Symmetric matrices over GF(2) with bit-packed rows.

Rows are Python ints used as bit vectors: bit j of row i holds the entry in
row ``labels[i]``, column ``labels[j]``.  Instances are immutable values;
every operation returns a new matrix.  The determinant of the empty (0 x 0)
matrix is 1.
"""

from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import repeat
from operator import index

from .errors import InputError, NotApplicableError

__all__ = ["Gf2Matrix"]

Label = Hashable


def _transpose(rows: Sequence[int], n: int, pos: Sequence[int]) -> tuple:
    """The transpose of ``rows[pos][:, pos]`` for rows of at most ``n`` bits; ``pos`` may repeat."""
    # stacked last position first, so column n - 1 - q holds bit q
    stack = "".join(map(format, map(rows.__getitem__, reversed(pos)), repeat(f"0{n}b")))
    return tuple(int(stack[n - 1 - q :: n], 2) for q in pos)


def _ones(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


def _add(rows: list, hit: int, add: int) -> None:
    """XOR ``add`` into the rows at the set bits of ``hit``, in place."""
    while hit:
        b = hit & -hit
        hit ^= b
        rows[b.bit_length() - 1] ^= add


def _mask(positions: Iterable[int]) -> int:
    """Bitmask with a bit set at each of ``positions``."""
    live = 0
    for p in positions:
        live |= 1 << p
    return live


def _items(items: Iterable, name: str) -> tuple:
    """The caller's collection ``items`` as a tuple; InputError names ``name`` if it is not one."""
    try:
        it = iter(items)
    except TypeError:
        raise InputError(f"{name} is not iterable: {items!r}") from None
    return tuple(it)


def _vertex_ids(items: Iterable, what: str) -> set:
    """The set of ``items``, naming the first one that is not hashable."""
    out = set()
    for x in items:
        try:
            out.add(x)
        except TypeError:
            raise InputError(f"{what} {x!r} is not hashable") from None
    return out


def _index(x, what: str) -> int:
    """``x`` by ``operator.index``, so ints and bools pass; InputError names anything else."""
    try:
        return index(x)
    except TypeError:
        raise InputError(f"{what} {x!r} is not an integer") from None


# A walk over at least this many positions batches its row updates (see
# _pivot_out).  In the "consecutive" rows at n = 100 of tools/crossovers.py,
# batching wins from 4-8 positions at edge probability 1/2 and 1/4 and from
# about 96 at 1/10 (not yet at 1/20); the threshold is the one at 1/10.
BATCH_MIN = 96

# The positions taken in one batch lie in at most this many consecutive
# columns, so that one 16-bit window of a row indexes both tables of a flush.
_SPAN = 16


def _table(rows: list, base: int, bits: int) -> list:
    """256 entries: entry i XORs rows[t] ^ 1 << t over the bits t - base of ``i & bits``."""
    tab = [0]
    for j in range(8):
        if bits >> j & 1:
            t = base + j
            add = rows[t] ^ 1 << t
            tab += [e ^ add for e in tab]
        else:
            tab += tab
    return tab


def _flush(rows: list, taken: int, fresh: int) -> None:
    """Bring the rows outside the bitmask ``fresh`` up to date, in place.

    ``rows`` holds A*T on the rows in ``fresh``, which contains T = ``taken``,
    and on the others A, the matrix as at the last flush.  For x outside T, row x of A*T is row x of A with its
    T bits cleared plus the rows t of A*T for the bits t of x in T.  T spans
    at most ``_SPAN`` columns, or is one block of two positions, so it lies in
    two 8-column windows, at a and at b, and the sum is two table lookups
    indexed by one window of each row from column a.
    """
    a = (taken & -taken).bit_length() - 1
    rest = taken & ~(255 << a)
    b = (rest & -rest).bit_length() - 1 if rest else a + 8
    ta, tb = _table(rows, a, taken >> a & 255), _table(rows, b, rest >> b & 255)
    d = b - a
    window = (256 << d) - 1
    keep = [(x, rows[x]) for x in _ones(fresh)]
    rows[:] = [r ^ ta[(i := r >> a & window) & 255] ^ tb[i >> d] for r in rows]
    for x, r in keep:
        rows[x] = r


def _pivot_out(rows: Sequence[int], live: int, first: int | None = None) -> tuple:
    """Pivot the positions in the bitmask ``live`` out of a copy of ``rows``.

    Each step applies the principal pivot transform of one block of det 1
    to every row: the lowest looped position left in ``live``, failing that
    the lowest edge inside ``live`` (both ends loop-free, as no loop is
    left).  ``first`` is a preference: the first block holds it alone when
    looped, else with its lowest loop-free neighbour in ``live``, if it has
    either.  The transforms compose to the ppt on the positions taken.
    Positions are left over exactly when det of the submatrix on ``live`` is 0.

    Each block updates only the rows in ``fresh``, which are kept up to
    date; a direct walk starts with every row there.  A walk over at least
    ``BATCH_MIN`` positions batches the updates, after the Method of Four
    Russians: ``fresh`` starts empty and holds the rows of the positions
    taken since the last flush and the rows the pick reads, and a flush
    brings every other row up to date by two table lookups (see ``_flush``)
    instead of one pass per block.

    Returns:
        (rows, blocks, left): A*T as a tuple of rows, with A the matrix
        ``rows`` and T the positions taken; the blocks taken, each a tuple of
        one position or two ascending ones; and the bitmask of those left over.
    """
    rows = list(rows)
    # loop bits of the positions in ``live``; a 2x2 block keeps every loop
    diag = 0
    for p in _ones(live):
        diag |= rows[p] & 1 << p
    if first is not None and not rows[first] & (live & ~diag | 1 << first):
        first = None
    blocks = []
    batch = live.bit_count() >= BATCH_MIN
    # the positions taken since the last flush, and the rows up to date since
    # then; other rows are as at the flush.  A direct walk never grows
    # ``taken``, so it never flushes
    taken = 0
    fresh = 0 if batch else -1

    def read(y: int) -> int:
        nonlocal fresh
        if not fresh >> y & 1:
            r = rows[y]
            hit = r & taken
            r ^= hit
            for t in _ones(hit):
                r ^= rows[t]
            rows[y] = r
            fresh |= 1 << y
        return rows[y]

    while live:
        looped = diag & (live if first is None else 1 << first)
        if looped:
            block = looped & -looped
            v = block.bit_length() - 1
        else:
            for u in _ones(live) if first is None else (first,):
                nbrs = read(u) & live & ~diag
                if nbrs:
                    break
            else:
                # no block: the rest is singular
                break
            w = (nbrs & -nbrs).bit_length() - 1
            block = 1 << u | 1 << w
        if taken:
            # flush first if the block would widen the batch past _SPAN columns
            span = taken | block
            if span.bit_length() - (span & -span).bit_length() >= _SPAN:
                _flush(rows, taken, fresh)
                taken = fresh = 0
        if looped:
            # neighbours x of v gain row v off column v, toggling their loops
            off = read(v) ^ block
            _add(rows, off & fresh, off)
            diag ^= off
            blocks.append((v,))
        else:
            # P = [[0, 1], [1, 0]] = P^-1: rows u and w trade their off-block
            # parts, and a neighbour of u (of w) adds row w (row u) with the
            # two pivot columns swapped; rows u and w, which the loops also
            # touch, are set last
            ru, rw = read(u), read(w)
            _add(rows, ru & fresh, rw ^ 1 << w)
            _add(rows, rw & fresh, ru ^ 1 << u)
            rows[u], rows[w] = rw ^ block, ru ^ block
            blocks.append((u, w) if u < w else (w, u))
        live ^= block
        if batch:
            taken |= block
        first = None
    if taken:
        _flush(rows, taken, fresh)
    return tuple(rows), blocks, live


def _walk_nonsingular(rows: Sequence[int], rest: int, leaf) -> int:
    """Count the non-empty sets T within ``rest`` with det(rows[T]) = 1.

    ``rows`` holds a symmetric matrix A, read on the positions in the bitmask
    ``rest``.  The lowest position v of ``rest`` is either left out, or taken
    with the rest of T by one ppt step on a block P of det 1, and the walk
    goes on in A*P, as det(A[T]) = det(A[P]) det((A*P)[T - P]) and
    (A*P)*Q = A*(P | Q) for Q disjoint from P.  With a loop on v, P = {v}.
    Without one, T must also contain a neighbour w of v, and P = {v, w} for
    the lowest such w in T: each neighbour in turn is taken and then dropped.
    Each T is reached once.  ``leaf``, when given, receives the rows of A*T
    as a tuple, so every row is kept up to date; else only those in ``rest``
    are.  The empty set is the caller's to count.
    """
    # a step updates every row or those in ``rest``; ``or`` makes no new int, ``|`` would
    every = 0 if leaf is None else -1
    total = 0
    while rest:
        low = rest & -rest
        rest ^= low
        rv = rows[low.bit_length() - 1]
        if rv & low:
            total += 1
            hit = every or rest
            if hit:
                # as in _pivot_out: neighbours x of v gain row v off column v
                off = rv ^ low
                sub = list(rows)
                _add(sub, off & hit, off)
                if leaf is not None:
                    leaf(tuple(sub))
                total += _walk_nonsingular(sub, rest, leaf)
            continue
        nbrs = rv & rest
        left = rest
        while nbrs:
            wb = nbrs & -nbrs
            nbrs ^= wb
            left ^= wb
            total += 1
            hit = every or left
            if not hit:
                break
            # P = [[0, 1], [1, d]] with d the loop on w, P^-1 = [[d, 1], [1, 0]]:
            # a neighbour of w adds row v, one of v adds row w + d row v, each
            # with its pivot bit set; d = 0 gives _pivot_out's updates
            w = wb.bit_length() - 1
            rw = rows[w]
            sub = list(rows)
            _add(sub, rw & hit, rv ^ low)
            if rw & wb:
                rw ^= rv ^ low
            _add(sub, rv & hit, rw ^ wb)
            if leaf is not None:
                sub[low.bit_length() - 1], sub[w] = rw ^ low ^ wb, rv ^ low ^ wb
                leaf(tuple(sub))
            total += _walk_nonsingular(sub, left, leaf)
    return total


class Gf2Matrix:
    """Symmetric square 0/1 matrix over GF(2), indexed by arbitrary labels.

    Args:
        labels: ordered sequence of distinct row/column labels.
        rows: one int per label; bit j of rows[i] is the (i, j) entry.

    Raises:
        InputError: on an unhashable or duplicate label, a row that is not an
            int, length mismatch, stray bits beyond the matrix order, or an
            asymmetric entry.
    """

    __slots__ = ("_labels", "_pos", "_rows")

    def __init__(self, labels: Sequence[Label], rows: Sequence[int]):
        labels = _items(labels, "labels")
        rows = tuple(_index(r, "row") for r in _items(rows, "rows"))
        n = len(labels)
        if len(_vertex_ids(labels, "label")) != n:
            seen = set()  # seen.add returns None, so next() stops at the first repeat
            raise InputError(f"duplicate label {next(x for x in labels if x in seen or seen.add(x))!r}")
        if len(rows) != n:
            raise InputError(f"expected {n} rows, got {len(rows)}")
        limit = 1 << n
        for lbl, r in zip(labels, rows):
            if r < 0 or r >= limit:
                raise InputError(f"row of {lbl!r} has bits outside the matrix order")
        for i, d in enumerate(map(int.__xor__, rows, _transpose(rows, n, range(n)))):
            if d:
                # rows above i match their columns, so the lowest bit j of d lies above i
                j = (d & -d).bit_length() - 1
                raise InputError(f"asymmetric entries at ({labels[i]!r}, {labels[j]!r})")
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
    def from_dense(cls, labels: Sequence[Label], entries: Sequence[Sequence[int]]) -> "Gf2Matrix":
        """Build from a dense 0/1 table, one row of ``len(labels)`` entries per label."""
        labels = _items(labels, "labels")
        rows = []
        for i, row in enumerate(_items(entries, "entries")):
            row = _items(row, f"entries[{i}]")
            if len(row) != len(labels):
                raise InputError(f"entries[{i}] has {len(row)} entries, expected {len(labels)}")
            bits = 0
            for j, x in enumerate(row):
                b = _index(x, "entry")
                if b not in (0, 1):
                    raise InputError(f"entries[{i}][{j}] is not a bit: {x!r}")
                bits |= b << j
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

    def _positions(self, items: Iterable[Label], what: str) -> list:
        """Positions of ``items`` among the labels, in the order given.

        InputError ``unknown {what}`` names the smallest repr of an item that
        is not a label, counting unhashable items as not labels."""
        out, unknown = [], []
        for x in items:
            try:
                out.append(self._pos[x])
            except (KeyError, TypeError):
                unknown.append(repr(x))
        if unknown:
            raise InputError(f"unknown {what}: {min(unknown)}")
        return out

    def entry(self, u: Label, v: Label) -> int:
        i, j = self._positions((u, v), "label")
        return (self._rows[i] >> j) & 1

    def to_dense(self) -> list:
        n = self.order
        return [[(r >> j) & 1 for j in range(n)] for r in self._rows]

    def principal_submatrix(self, keep: Iterable[Label]) -> "Gf2Matrix":
        """Restrict to the rows and columns in ``keep``, preserving label order."""
        return self._submatrix(_ones(_mask(self._positions(_items(keep, "keep"), "label"))))

    def _submatrix(self, pos: Iterable[int]) -> "Gf2Matrix":
        """The matrix on the distinct positions ``pos``, taken in the order given."""
        pos = list(pos)
        labels = tuple(self._labels[i] for i in pos)
        return Gf2Matrix._trusted(labels, _transpose(self._rows, self.order, pos))

    def det(self) -> int:
        """Determinant over GF(2); 1 for the empty matrix.

        The pivot-out walk over every position takes them all exactly when
        the determinant is 1.
        """
        return 0 if _pivot_out(self._rows, (1 << self.order) - 1)[2] else 1

    def kernel_witness(self) -> frozenset | None:
        """A non-empty label set whose rows sum to zero, or None if det = 1.

        The returned set S certifies singularity: every row has an even
        number of 1 entries in the columns indexed by S.

        Returns:
            frozenset of labels, or None when the matrix is nonsingular.
        """
        rows, _, left = _pivot_out(self._rows, (1 << self.order) - 1)
        if not left:
            return None
        # With T the positions taken and L those left, the walk stopped
        # because (A*T)[L, L] = 0: no loop and no edge is left in L.  For x in
        # L, z = (A[T]^-1 A[T, x], e_x) then satisfies Az = 0, and the T part
        # of z is row x of A*T, whose L part is 0 and whose loop bit is 0.
        x = (left & -left).bit_length() - 1
        return frozenset(self._labels[i] for i in _ones(rows[x] | 1 << x))

    def ppt(self, pivot_set: Iterable[Label]) -> "Gf2Matrix":
        """Principal pivot transform on ``pivot_set``.

        Writing the matrix in blocks with P the principal submatrix on the
        pivot set and Q the rows of the pivot set restricted to the other
        columns, the result is ``[[P^-1, P^-1 Q], [(P^-1 Q)^T, S + Q^T P^-1 Q]]``
        over GF(2).  It is reached by pivoting the set out one looped
        position or one loop-free edge at a time.

        Args:
            pivot_set: labels to pivot on; their principal submatrix must be
                nonsingular.

        Raises:
            NotApplicableError: when det of the principal submatrix is 0.
        """
        return self._ppt(_mask(self._positions(_items(pivot_set, "pivot_set"), "label")))

    def _ppt(self, live: int) -> "Gf2Matrix":
        """Principal pivot transform on the positions in the bitmask ``live``."""
        rows, _, left = _pivot_out(self._rows, live)
        if left:
            raise NotApplicableError("no applicable sequence has this support")
        # the ppt of a symmetric matrix is symmetric, so skip the validation
        return Gf2Matrix._trusted(self._labels, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return self._labels == other._labels and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._labels, self._rows))

    def __reduce__(self):  # unchecked, as a pickle is trusted input
        return Gf2Matrix._trusted, (self._labels, self._rows)

    def __repr__(self) -> str:
        return f"Gf2Matrix.from_dense({list(self._labels)!r}, {self.to_dense()!r})"
