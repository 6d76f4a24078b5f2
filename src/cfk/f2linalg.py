"""GF(2) linear algebra on bit-packed vectors.

A vector is a Python int used as a bitmask (bit j = coordinate j), so a row
operation is a single big-int XOR over machine words.  Elimination uses
deterministic first-nonzero pivoting, which makes every certificate produced
downstream reproducible across runs.

At which threshold does a target first enter a filtered span?
:func:`first_entry` answers every search's homology question of this kind on
one tagged :class:`Echelon`; the certificate verifiers keep their own.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import groupby, islice


class Echelon:
    """Incrementally built row space in echelon form.

    Each row is stored under its pivot, its lowest set bit, and holds no bit
    below it.  Each row carries a tag combined by XOR alongside the row
    itself, which lets a caller recover which original vectors produced a
    reduction, and the tags of inserted vectors that reduced to zero are kept
    in ``kernel``.
    """

    def __init__(self):
        self._rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, tag)
        self.kernel: list[int] = []

    def _reduce(self, vec: int, tag: int) -> tuple[int, int]:
        # Walk the set bits upward; a row changes no bit below its pivot, so
        # the bits still to visit are exactly those of ``pending``.
        rows = self._rows
        residue = 0
        pending = vec
        while pending:
            low = pending & -pending
            row = rows.get(low)
            if row is None:
                residue |= low
                pending ^= low
            else:
                pending ^= row[0]
                tag ^= row[1]
        return residue, tag

    def add(self, vec: int, tag: int = 0) -> int:
        """Insert vec; returns the pivot bit of the row it stored, 0 if none.

        The stored row has no bit at the pivot of an earlier row.
        """
        vec, tag = self._reduce(vec, tag)
        if vec == 0:
            self.kernel.append(tag)
            return 0
        pivot = vec & -vec
        self._rows[pivot] = (vec, tag)
        return pivot

    @property
    def rank(self) -> int:
        return len(self._rows)

    def prefix(self, rows: int, kernel: int) -> Echelon:
        """A new echelon as this one stood when it held ``rows`` rows and ``kernel`` kernel tags.

        A stored row never changes, so the first ``rows`` rows in the order
        they were stored, with the first ``kernel`` kernel tags, are that
        earlier echelon.  Adding to the copy leaves this one alone.
        """
        ech = Echelon()
        ech._rows = dict(islice(self._rows.items(), rows))
        ech.kernel = self.kernel[:kernel]
        return ech


Column = tuple[int, int]  # (vector, tag)


def by_threshold(thresholds: Sequence, columns, floor=None):
    """Batches (threshold, columns) in increasing threshold order.

    Column k is ``columns[k]`` and sits at ``thresholds[k]``; ties keep index
    order.  Columns below ``floor``, when one is given, are left out.
    Batches are produced lazily, so a caller that stops early sorts but
    never groups the rest, and never reads the columns it did not reach.
    """
    order = range(len(thresholds))
    if floor is not None:
        order = [k for k in order if thresholds[k] >= floor]
    order = sorted(order, key=thresholds.__getitem__)
    for value, group in groupby(order, key=thresholds.__getitem__):
        yield value, [columns[k] for k in group]


def first_entry(batches: Iterable[tuple[object, list[Column]]], target: int,
                ech: Echelon | None = None) -> tuple[object | None, int | None, list[int]]:
    """First threshold at which target enters a filtered GF(2) span.

    ``batches`` yields (threshold, columns) in threshold order, each column a
    (vector, tag) pair.  Every column of a batch goes into one Echelon before
    target is tested.  Returns (threshold, witness, kernel):
    witness is the XOR of the tags of columns that sum to target, and kernel
    holds the tags of the columns fed so far that reduced to zero, a basis of
    their linear relations when the tags are independent.  threshold and
    witness are None when target never enters.  Given ``ech``, the search
    resumes from it, as if the columns that built it came ahead of the first
    batch: its rows count towards the witness and its kernel leads the one
    returned.  The columns go into ``ech`` itself.

    The residue of target starts reduced against the rows already held and
    is kept reduced as rows arrive: it holds no bit at any pivot, a new row
    with pivot p holds none at an earlier pivot, so XORing the row in
    exactly when bit p is set keeps that true.  The rows
    have distinct pivots, so the rows that sum to target, and the witness,
    are the ones a reduction from scratch would find.
    """
    if ech is None:
        ech = Echelon()
    rows = ech._rows
    residue, witness = ech._reduce(target, 0)
    for threshold, columns in batches:
        for vec, tag in columns:
            pivot = ech.add(vec, tag)
            if residue & pivot:
                row, row_tag = rows[pivot]
                residue ^= row
                witness ^= row_tag
        if residue == 0:
            return threshold, witness, ech.kernel
    return None, None, ech.kernel
