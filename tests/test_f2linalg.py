import random
from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings, strategies as st

from cfk.f2linalg import Echelon, by_threshold, first_entry
from cfk.upsilon import _residue, _span as top_bit_span


def in_span(vectors, target):
    """Membership of target in the span of vectors, by the verifiers' top-bit elimination."""
    return _residue(top_bit_span({}, vectors), target) == 0


class TestInSpan:
    def test_empty_list(self):
        assert in_span([], 0)
        assert not in_span([], 0b1)

    def test_mixed(self):
        assert in_span([0b011, 0b110], 0b101)
        assert not in_span([0b011, 0b110], 0b001)

    def test_merge_boundaries_do_not_span_target(self):
        # In T(2,5) # T(5,6) at t=4/5 and threshold 23/5 exactly four
        # grading-1 elements are admissible; no combination of their
        # boundaries reaches the sum of the two pivot cycles.
        from cfk import parse_knot_expression, sector
        from cfk.upsilon import level

        c = parse_knot_expression("T(2,5) # T(5,6)")
        even = sector(c, 0)
        odd = sector(c, 1)
        even_pos = {e: k for k, e in enumerate(even)}
        t = F(4, 5)
        admissible = [e for e in odd if level(t, e) <= F(23, 5)]
        assert len(admissible) == 4
        cols = []
        for e in admissible:
            m = 0
            for j in c.boundary[e.index]:
                target = next(x for x in even if x.index == j)
                m |= 1 << even_pos[target]
            cols.append(m)
        pivots = [e for e in even if level(t, e) == F(19, 5)]
        assert len(pivots) == 2
        target = (1 << even_pos[pivots[0]]) | (1 << even_pos[pivots[1]])
        assert not in_span(cols, target)


class TestEchelon:
    def test_rank_and_membership(self):
        ech = Echelon()
        assert ech.add(0b011)
        assert ech.add(0b110)
        assert not ech.add(0b101)
        assert len(ech._rows) == 2
        assert ech._reduce(0b110, 0)[0] == 0
        assert ech._reduce(0b100, 0)[0] != 0

    def test_tag_tracking_recovers_combination(self):
        vecs = [0b011, 0b110, 0b100]
        threshold, tag, _ = first_entry([(0, [(v, 1 << i) for i, v in enumerate(vecs)])], 0b001)
        assert threshold == 0
        acc = 0
        for i in range(3):
            if (tag >> i) & 1:
                acc ^= vecs[i]
        assert acc == 0b001

    def test_kernel_keeps_tags_of_dependent_vectors(self):
        ech = Echelon()
        for i, v in enumerate([0b011, 0b110, 0b101, 0b011]):
            ech.add(v, 1 << i)
        assert ech.kernel == [0b0111, 0b1001]
        assert Echelon().kernel == []


def _combine(columns, mask):
    acc = 0
    for i, v in enumerate(columns):
        if (mask >> i) & 1:
            acc ^= v
    return acc


def _span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def _even_and_odd_columns(c):
    """Grading-1 boundaries over the grading-0 sector, with both sectors."""
    from cfk import sector

    even = sector(c, 0)
    odd = sector(c, 1)
    even_pos = {e.index: k for k, e in enumerate(even)}
    cols = []
    for e in odd:
        m = 0
        for j in c.boundary[e.index]:
            m |= 1 << even_pos[j]
        cols.append(m)
    return even, odd, cols


class TestFirstEntry:
    def test_staircase_corner_block(self):
        # T(3,4) staircase: vertices v0,v1,v2 and corners c0,c1 with
        # d(c0)=v0+v1, d(c1)=v1+v2.  Reaching v0+v1 picks out c0 alone, and
        # the corner boundaries are independent.
        from cfk import torus_knot_complex

        c = torus_knot_complex(3, 4)
        _, odd, cols = _even_and_odd_columns(c)
        assert len(odd) == 2
        batch = [(v, 1 << j) for j, v in enumerate(cols)]
        threshold, witness, kernel = first_entry([("all", batch)], 0b011)
        assert (threshold, witness, kernel) == ("all", 0b01, [])

    def test_t57_merge_solution_is_unique(self):
        # T(5,7) at t=4/5, threshold 23/5: of the four admissible grading-1
        # elements, exactly one subset has boundary z- + z+, and it uses the
        # corners at levels 22/5 and 23/5.  The filtered span first reaches
        # the target at 23/5, with that subset as its witness.
        from cfk import torus_knot_complex
        from cfk.upsilon import level

        c = torus_knot_complex(5, 7)
        t = F(4, 5)
        even, odd, cols = _even_and_odd_columns(c)
        admissible = [j for j, e in enumerate(odd) if level(t, e) <= F(23, 5)]
        assert len(admissible) == 4
        pivots = [k for k, e in enumerate(even) if level(t, e) == F(19, 5)]
        target = (1 << pivots[0]) | (1 << pivots[1])
        solutions = [
            subset
            for r in range(5)
            for subset in combinations(admissible, r)
            if _combine(cols, sum(1 << j for j in subset)) == target
        ]
        assert len(solutions) == 1
        used_levels = sorted(level(t, odd[j]) for j in solutions[0])
        assert used_levels == [F(22, 5), F(23, 5)]
        levels = [level(t, e) for e in odd]
        batches = by_threshold(levels, [(v, 1 << j) for j, v in enumerate(cols)])
        threshold, witness, _ = first_entry(batches, target)
        assert threshold == F(23, 5)
        assert witness == sum(1 << j for j in solutions[0])

    def test_target_that_never_enters(self):
        batches = by_threshold([2, 1], [(0b01, 0b01), (0b01, 0b10)])
        assert first_entry(batches, 0b10) == (None, None, [0b11])

    def test_batches_are_fed_whole_in_threshold_order(self):
        batches = list(by_threshold([3, 1, 3, 1], ["a", "b", "c", "d"]))
        assert batches == [(1, ["b", "d"]), (3, ["a", "c"])]

    def test_columns_below_the_floor_are_never_read(self):
        read = []

        class Columns:
            def __getitem__(self, k):
                read.append(k)
                return "abcdef"[k]

        thresholds = [3, 0, 2, 3, 1, 2]
        batches = list(by_threshold(thresholds, Columns(), floor=2))
        assert batches == [(2, ["c", "f"]), (3, ["a", "d"])]
        assert read == [2, 5, 0, 3]
        assert list(by_threshold(thresholds, "abcdef", floor=4)) == []


def test_randomised_kernel_tags_match_exhaustive_solutions():
    # On random small column sets, the kernel tags span exactly the
    # combinations that sum to zero, and the first entry is the least
    # threshold at which some combination of admitted columns hits the
    # target, with a witness that is one such combination.
    rng = random.Random(20240)
    for _ in range(200):
        rows = rng.randrange(0, 7)
        n = rng.randrange(0, 9)
        cols = [rng.randrange(0, 1 << rows) if rows else 0 for _ in range(n)]
        thresholds = [rng.randrange(0, 4) for _ in range(n)]
        target = rng.randrange(0, 1 << rows) if rows else 0
        batch = [(v, 1 << i) for i, v in enumerate(cols)]
        _, _, kernel = first_entry([(0, batch)], 1 << rows)
        zero_sums = {x for x in range(1 << n) if _combine(cols, x) == 0}
        assert len(_span(kernel)) == 1 << len(kernel)
        assert _span(kernel) == zero_sums

        hits = [x for x in range(1 << n) if _combine(cols, x) == target]
        expected = min(
            (max([thresholds[i] for i in range(n) if (x >> i) & 1], default=None)
             for x in hits),
            key=lambda r: -1 if r is None else r,
            default="never",
        )
        threshold, witness, _ = first_entry(by_threshold(thresholds, batch), target)
        if expected is None and n:
            # a zero target is reached by the empty combination at the
            # first threshold there is
            expected = min(thresholds)
        if expected in ("never", None):
            assert threshold is None and witness is None
            continue
        assert threshold == expected
        assert witness in hits
        assert all(thresholds[i] <= threshold for i in range(n) if (witness >> i) & 1)


def _random_vectors(rng, width, n):
    """Sparse, dense, zero and dependent vectors of the given bit width."""
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            v = 0
            for _ in range(rng.randrange(1, 4)):
                v |= 1 << rng.randrange(width)
        elif kind < 0.7:
            v = rng.getrandbits(width)
        elif kind < 0.95 and out:
            v = 0
            for w in rng.sample(out, min(len(out), rng.randrange(1, 4))):
                v ^= w
        else:
            v = 0
        out.append(v)
    return out


def test_pivot_indexed_echelon_matches_sorted_rows():
    # The pivot-indexed store must make the same rows, residues, tags and
    # kernel as the sorted-row echelon it replaced, kept in tests/oracles.py,
    # and first_entry on it the same answer as the per-batch reduction there.
    from oracles import SortedEchelon, first_entry_per_batch

    rng = random.Random(5150)
    for trial in range(60):
        width = rng.choice([1, 2, 63, 64, 65, 300, 700]) if trial % 2 else rng.randrange(1, 701)
        n = rng.randrange(0, min(width, 160) + 20)
        vectors = _random_vectors(rng, width, n)
        tags = [rng.getrandbits(n + 1) if trial % 3 else 1 << i for i in range(n)]
        fast, ref = Echelon(), SortedEchelon()
        for v, tag in zip(vectors, tags):
            assert fast.add(v, tag) == ref.add(v, tag)
            assert len(fast._rows) == ref.rank
        assert fast.kernel == ref.kernel
        assert fast._rows == {p: (v, tag) for p, v, tag in ref._rows}
        for probe in _random_vectors(rng, width, 20) + vectors[:5]:
            assert fast._reduce(probe, 0) == ref.reduce_with_tag(probe)
            assert (fast._reduce(probe, 0)[0] == 0) == ref.contains(probe)

        thresholds = [rng.randrange(0, 6) for _ in range(n)]
        columns = list(zip(vectors, tags))
        target = rng.choice(vectors + [rng.getrandbits(width)]) if vectors else 0
        got = first_entry(by_threshold(thresholds, columns), target)
        expected = first_entry_per_batch(by_threshold(thresholds, columns), target)
        assert got == expected


def test_top_bit_span_matches_the_list_oracle():
    # the verifiers' span against the 0/1-list elimination in tests/oracles.py:
    # every row sits under its highest set bit, the rank agrees, membership
    # agrees on targets in and out of the span, and a span extended from a
    # copy of another is the span of both lists, the copied one left as it was
    from oracles import list_echelon, list_in_span

    rng = random.Random(2718)
    inside = outside = 0
    for trial in range(150):
        width = rng.choice([1, 3, 8, 64, 65, 130]) if trial % 2 else rng.randrange(1, 40)

        def bits(v):
            return [v >> k & 1 for k in range(width)]

        head = _random_vectors(rng, width, rng.randrange(0, 12))
        tail = _random_vectors(rng, width, rng.randrange(0, 6))
        rows = top_bit_span({}, head)
        held = dict(rows)
        extended = top_bit_span(rows, tail)
        assert rows == held
        assert all(row.bit_length() - 1 == top for top, row in extended.items())
        assert len(extended) == len(list_echelon([bits(v) for v in head + tail]))
        combined = 0
        for v in rng.sample(head, rng.randrange(0, len(head) + 1)):
            combined ^= v
        for target in [combined, rng.getrandbits(width), 0] + head + tail:
            expected = list_in_span([bits(v) for v in head + tail], bits(target))
            assert (_residue(extended, target) == 0) == expected
            assert (_residue(rows, target) == 0) == list_in_span([bits(v) for v in head],
                                                                 bits(target))
            inside += expected
            outside += not expected
    assert inside > 500 and outside > 50


def test_tracked_target_matches_the_per_batch_reduction():
    # first_entry keeps target reduced as rows arrive; the oracle reduces it
    # from scratch after every batch.  Targets in the span of a few columns,
    # outside every span, and zero; batches of 0 to 6 columns, some empty.
    from oracles import first_entry_per_batch

    rng = random.Random(1616)
    entered = never = 0
    for trial in range(300):
        width = rng.choice([1, 3, 8, 64, 65, 200])
        vectors = _random_vectors(rng, width, rng.randrange(0, 40))
        tags = [rng.getrandbits(48) if trial % 2 else 1 << i for i in range(len(vectors))]
        columns = list(zip(vectors, tags))
        batches = []
        while columns:
            size = rng.randrange(0, 7)
            batches.append((len(batches), columns[:size]))
            columns = columns[size:]
        kind = trial % 3
        if kind == 0 and vectors:
            target = 0
            for v in rng.sample(vectors, min(len(vectors), rng.randrange(1, 5))):
                target ^= v
        elif kind == 1:
            target = rng.getrandbits(width + 2)
        else:
            target = 0
        got = first_entry(iter(batches), target)
        assert got == first_entry_per_batch(iter(batches), target), trial
        entered += got[0] is not None
        never += got[0] is None
    assert entered > 100 and never > 50


COLUMN = st.integers(0, (1 << 10) - 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(head=st.lists(COLUMN, max_size=16), extra=st.lists(COLUMN, max_size=8),
       rest=st.lists(st.tuples(COLUMN, st.integers(0, 3)), min_size=1, max_size=16),
       picks=st.integers(0, (1 << 32) - 1), outside=COLUMN)
def test_resuming_from_a_prefix_matches_feeding_from_scratch(head, extra, rest, picks, outside):
    # an echelon fed head and then extra columns, cut back to where head
    # ended: resuming from it must answer as if head went in ahead of rest
    columns = [(v, 1 << i) for i, v in enumerate(head + [v for v, _ in rest])]
    head_columns, rest_columns = columns[:len(head)], columns[len(head):]
    target = outside
    for k, (v, _) in enumerate(columns):
        target ^= v if picks >> k & 1 else 0
    ech = Echelon()
    for v, tag in head_columns:
        ech.add(v, tag)
    size = ech.rank, len(ech.kernel)
    for i, v in enumerate(extra):
        ech.add(v, 1 << (len(columns) + i))
    held = dict(ech._rows), list(ech.kernel)

    batches = list(by_threshold([t for _, t in rest], rest_columns))
    got = first_entry(batches, target, ech.prefix(*size))
    (first, batch), *later = batches
    expected = first_entry([(first, head_columns + batch)] + later, target)
    assert got == expected
    assert _span(got[2]) == _span(expected[2])
    # the resumed search adds to the prefix, never to the echelon it came from
    assert (ech._rows, ech.kernel) == held


@settings(max_examples=100, deadline=None, derandomize=True)
@given(head=st.lists(COLUMN, max_size=16), extra=st.lists(COLUMN, max_size=8))
def test_a_prefix_is_the_echelon_as_it_stood(head, extra):
    ech, alone = Echelon(), Echelon()
    for i, v in enumerate(head):
        ech.add(v, 1 << i)
        alone.add(v, 1 << i)
    size = ech.rank, len(ech.kernel)
    for i, v in enumerate(extra, len(head)):
        ech.add(v, 1 << i)
    cut = ech.prefix(*size)
    assert (cut._rows, cut.kernel) == (alone._rows, alone.kernel)
    # the prefix of a full echelon is the echelon itself, in a copy
    full = ech.prefix(ech.rank, len(ech.kernel))
    assert (full._rows, full.kernel) == (ech._rows, ech.kernel)
    assert full._rows is not ech._rows and full.kernel is not ech.kernel
