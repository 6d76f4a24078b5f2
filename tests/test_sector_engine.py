"""The sector engine: lam and the layout by construction, integer tables, verifiers apart.

Every complex carries its class functional lam: the public constructor solves
it by elimination and the builders derive it from their inputs, so no query
solves it.  Every complex also carries its sector layout, built when it is
validated, so no query walks its generators.  The engine's tables are built
from integers; here they are compared with the tables the oracle derives
from ``sector(c, m)``.  The verifiers must never read lam.
"""

import gc
import random
import sys
from array import array
from fractions import Fraction as F

import pytest

from cfk import (
    BifilteredComplex,
    Generator,
    UnsupportedComplexError,
    alexander_torus,
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    staircase_complex,
    step_vector,
    tensor,
    torus_knot_complex,
)
from cfk.complexes import _bits, _mask
from cfk.f2linalg import Echelon
from cfk.upsilon import (
    CertificateError,
    _DirectChecker,
    _SectorEngine,
    gamma_at,
    level,
    sector,
    upsilon,
    verify_gamma_certificate,
)
from cfk.upsilon2 import (
    MergeWitness,
    NotApplicableError,
    gamma2_at,
    upsilon2_at,
    verify_gamma2_certificate,
)
from oracles import (
    SectorTables,
    _h0_from_parts,
    brute_gamma2,
    eager_gamma2,
    eager_side,
    level_slope,
    oracle_mask,
    eager_box_generators,
    replace,
    sector_layout,
)
from test_basis_change import change_basis, filtered_moves

# the package attributes cfk.upsilon and cfk.upsilon2 are not the modules
COMPLEXES = sys.modules["cfk.complexes"]
UPSILON = sys.modules["cfk.upsilon"]
UPSILON2 = sys.modules["cfk.upsilon2"]


def random_complexes(seed, count, pairs, max_boxes=2):
    """Seeded sums of 1-3 torus knots, some mirrored, with 0 to max_boxes boxes."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        expr = " # ".join(
            ("-" if rng.random() < 0.3 else "") + "T(%d,%d)" % rng.choice(pairs)
            for _ in range(rng.randrange(1, 4))
        )
        c = parse_knot_expression(expr)
        for _ in range(rng.randrange(0, max_boxes + 1)):
            c = direct_sum_with_box(c, rng.randrange(-5, 8), rng.randrange(-5, 8),
                                    rng.randrange(1, 3), rng.randrange(1, 3),
                                    rng.randrange(-1, 3))
        out.append((expr, c))
    return out


def positive_singularities(ups):
    return [t0 for t0, jump in ups.singularities() if jump > 0]


def count_functionals(monkeypatch):
    """A list that grows by one entry each time lam is solved by elimination."""
    solved = []
    original = COMPLEXES._solve_lam

    def counting(gens, *args):
        solved.append(len(gens))
        return original(gens, *args)

    monkeypatch.setattr(COMPLEXES, "_solve_lam", counting)
    return solved


class TestFunctionalOncePerComplex:
    def test_two_singularities_of_k_and_of_k_with_boxes(self, monkeypatch):
        solved = count_functionals(monkeypatch)
        knot = parse_knot_expression("T(2,5) # T(5,6)")
        boxed = direct_sum_with_box(direct_sum_with_box(knot, 3, 4, 1, 2, 1), 2, 6, 2, 1, 0)
        ups = upsilon(knot)
        t0s = positive_singularities(ups)[:2]
        assert len(t0s) == 2
        for t0 in t0s:
            assert upsilon2_at(knot, t0, ups=ups) == upsilon2_at(boxed, t0, ups=ups)
        gamma_at(knot, F(1))
        gamma2_at(boxed, t0s[0])
        # the builders derived lam, and no query solves it
        assert solved == []
        # the public constructor solves it once, on construction
        copy = BifilteredComplex(boxed.generators, boxed.boundary, boxed.h0_rep)
        assert solved == [len(boxed.generators)] and copy.lam == boxed.lam
        upsilon(copy)
        gamma2_at(copy, t0s[0])
        assert len(solved) == 1

    def test_memo_holds_only_an_int_and_leaves_equality_alone(self):
        c = parse_knot_expression("T(3,4)")
        fresh = parse_knot_expression("T(3,4)")
        upsilon(c)
        assert type(c.lam) is int and c.lam == fresh.lam
        # a query writes nothing into the complex
        assert set(vars(c)) == set(vars(fresh))
        # lam is outside equality, hashing and repr
        object.__setattr__(fresh, "lam", c.lam ^ 1)
        assert c == fresh and hash(c) == hash(fresh)
        assert repr(c) == repr(fresh) and "lam" not in repr(c)
        # and so is the layout
        assert c.layout == fresh.layout
        reversed_layout = fresh.layout._replace(position=c.layout.position[::-1])
        object.__setattr__(fresh, "layout", reversed_layout)
        assert c.layout != fresh.layout
        assert c == fresh and hash(c) == hash(fresh)
        assert repr(c) == repr(fresh) and "layout" not in repr(c)

    def test_rank_two_complex_is_refused_on_every_call(self, monkeypatch):
        solved = count_functionals(monkeypatch)
        gens = (Generator("a", 0, 0, 0), Generator("b", 1, 1, 0))
        for _ in range(2):
            with pytest.raises(UnsupportedComplexError, match="rank one"):
                BifilteredComplex(gens, (frozenset(), frozenset()), frozenset({0}))
        assert len(solved) == 2


def test_lam_by_construction_matches_the_elimination():
    # the builders' closed forms against the public constructor's elimination
    # on the same parts; the dual's h0 against the two-elimination oracle
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)]
    checked = 0
    for seed in (31, 32):
        for expr, c in random_complexes(seed, 100, pairs, max_boxes=3):
            solved = BifilteredComplex(c.generators, c.boundary, c.h0_rep)
            assert c.lam == solved.lam, expr
            d = dual(c)
            assert d.h0_rep == _h0_from_parts(d.generators, d.boundary), expr
            assert d.lam == BifilteredComplex(d.generators, d.boundary, d.h0_rep).lam, expr
            assert dual(d).lam == c.lam and dual(d).h0_rep == c.h0_rep, expr
            checked += 1
    assert checked == 200


def verdict(check):
    try:
        check()
    except CertificateError as exc:
        return str(exc)
    return "accepted"


def search_outcomes(c, t0s):
    out = []
    for t0 in t0s:
        try:
            out.append(gamma2_at(c, t0))
        except (NotApplicableError, AssertionError) as exc:
            out.append(type(exc).__name__)
    return out


def forge(e):
    """Two elements with e's index that are not in e's complex: alg + 1, and maslov + 2."""
    return replace(e, alg=e.alg + 1), replace(e, maslov=e.maslov + 2)


def test_verifiers_never_read_the_memoised_functional():
    c = parse_knot_expression("T(2,5) # T(5,6)")
    ups = upsilon(c)
    t0s = positive_singularities(ups)
    genuine = search_outcomes(c, t0s)
    even = sector(c, 0)
    checks, forgeries = [], []
    for t in (F(1, 3), F(1), F(8, 5)):
        cert = gamma_at(c, t)
        checks.append(lambda cert=cert: verify_gamma_certificate(c, cert))
        lowered = replace(cert, s=cert.s - F(1, 5))
        checks.append(lambda cert=lowered: verify_gamma_certificate(c, cert))
        for e in forge(cert.cycle[0]):
            forged = replace(cert, cycle=(e, *cert.cycle[1:]))
            forgeries.append(lambda cert=forged: verify_gamma_certificate(c, cert))
    for cert in genuine:
        w = cert.witness
        extra = next(e for e in even if e not in w.z_minus)
        for tampered in (
            cert,
            replace(cert, gamma2=cert.gamma2 + F(1, 5)),
            replace(cert, gamma2=cert.gamma2 - F(1, 5)),
            replace(cert, witness=MergeWitness(z_minus=w.z_plus, z_plus=w.z_minus, w=w.w)),
            replace(cert, witness=replace(w, z_minus=w.z_minus | {extra})),
        ):
            checks.append(lambda cert=tampered: verify_gamma2_certificate(c, cert, ups=ups))
        for field in ("z_minus", "z_plus", "w"):
            elems = getattr(w, field)
            e = min(elems, key=lambda e: e.index)
            for bad in forge(e):
                forged = replace(cert, witness=replace(w, **{field: elems - {e} | {bad}}))
                forgeries.append(lambda cert=forged: verify_gamma2_certificate(c, cert, ups=ups))
    assert len(forgeries) == 6 + 6 * len(genuine)
    assert all("leaves the grading-" in verdict(check) for check in forgeries)
    checks += forgeries
    before = [verdict(check) for check in checks]
    assert before.count("accepted") == 3 + len(genuine)

    # a functional wrong on one element: the search reads it, the verifiers not
    object.__setattr__(c, "lam", c.lam ^ 1)
    assert search_outcomes(c, t0s) != genuine
    assert [verdict(check) for check in checks] == before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_tables_match_the_sectors(seed):
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7)]
    for expr, c in random_complexes(seed, 6, pairs):
        engine = _SectorEngine(c)
        oracle = SectorTables(c)
        even, odd = oracle.even, oracle.odd
        assert list(zip(*engine.even_grades)) == [(e.alex, e.alg) for e in even], expr
        assert list(zip(*engine.odd_grades)) == [(e.alex, e.alg) for e in odd], expr
        assert engine.elements(0, (1 << len(even)) - 1) == list(even), expr
        assert engine.elements(1, (1 << len(odd)) - 1) == list(odd), expr
        assert engine.elements(0, 0b101) == [even[0], even[2]], expr
        d_even = [oracle_mask(row) for row in oracle.d_even]
        d_odd = [oracle_mask(row) for row in oracle.d_odd]
        lam = [(c.lam >> e.index & 1) << len(odd) for e in even]
        # the engine builds a column on first lookup: materialise every position
        assert [engine.class_columns[k] for k in range(len(even))] == [
            (d | bit, 1 << k) for k, (d, bit) in enumerate(zip(d_even, lam))], expr
        assert [engine.odd_columns[j] for j in range(len(odd))] == [
            (d, 1 << j) for j, d in enumerate(d_odd)], expr
        tables = _DirectChecker(c)
        assert (tables.d_even, tables.d_odd) == (d_even, d_odd), expr
        assert tables.h0_mask == oracle_mask(oracle.h0), expr


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verifier_keys_are_scaled_levels(seed):
    # _DirectChecker.keys, the verifiers' one key formula, gives 2b times the
    # level at t = a/b of every element of both sectors, for an int t as well
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7)]
    grid = [0, 1, 2, F(0), F(1, 3), F(2, 5), F(1), F(4, 7), F(97, 113), F(1999, 1000), F(2)]
    for expr, c in random_complexes(seed, 6, pairs, max_boxes=3):
        tables = _DirectChecker(c)
        for t in grid:
            scale, *keys = tables.keys(t)
            assert scale == 2 * F(t).denominator, (expr, t)
            assert keys == [[scale * level(t, e) for e in part]
                            for part in (tables.even, tables.odd)], (expr, t)
            assert {type(k) for part in keys for k in part} == {int}, (expr, t)


# a stored value shifted by 1/(4b) up or down lies halfway between two keys
# 2b*level at t = a/b: a verifier that truncated it onto that grid, toward
# zero or down, would accept one of the two forgeries
@pytest.mark.parametrize("expr", ["T(5,7)", "-T(2,5) # T(3,4)", "T(2,5) # -T(3,4)",
                                  "-T(3,4) # T(2,7)"])
def test_a_value_off_the_key_grid_is_refused(expr):
    c = parse_knot_expression(expr)
    for t0 in positive_singularities(upsilon(c)):
        cert = gamma2_at(c, t0)
        for sign in (-1, 1):
            off = F(sign, 4 * t0.denominator)
            for field, message in (
                    ("gamma", "the top level of z_minus is not the stored gamma"),
                    ("gamma2", "threshold is not a grading-1 level at or above gamma")):
                forged = replace(cert, **{field: getattr(cert, field) + off})
                with pytest.raises(CertificateError, match=f"^{message}$"):
                    verify_gamma2_certificate(c, forged)
    for t in (F(1, 3), F(2, 5), F(1), F(5, 3)):
        cert = gamma_at(c, t)
        for sign in (-1, 1):
            off = F(sign, 4 * t.denominator)
            with pytest.raises(CertificateError,
                               match="^threshold is not attained by the support$"):
                verify_gamma_certificate(c, replace(cert, s=cert.s + off))
            levels = (cert.levels[0] + off, *cert.levels[1:])
            with pytest.raises(CertificateError,
                               match="^stored levels do not match recomputation$"):
                verify_gamma_certificate(c, replace(cert, levels=levels))
    # a parameter given as an int is a/b with b = 1
    verify_gamma_certificate(c, replace(gamma_at(c, 1), t=1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_class_cycle_exists_exactly_when_brute_force_finds_one(seed):
    # merges(A, A, 0) is the existence question the gamma verifier asks:
    # does a cycle on the positions in A represent the h0 class?  The oracle
    # tries every subset of A.
    rng = random.Random(seed)
    verdicts = []
    while len(verdicts) < 120:
        expr = " # ".join(("-" if rng.random() < 0.3 else "") + "T(%d,%d)" % rng.choice(
            [(2, 3), (2, 5), (3, 4)]) for _ in range(rng.randrange(1, 3)))
        c = parse_knot_expression(expr)
        for _ in range(rng.randrange(0, 3)):
            c = direct_sum_with_box(c, rng.randrange(-5, 8), rng.randrange(-5, 8),
                                    rng.randrange(1, 3), rng.randrange(1, 3),
                                    rng.randrange(-1, 3))
        n = len(sector(c, 0))
        if n > 14:
            continue
        checker, oracle = _DirectChecker(c), SectorTables(c)
        for _ in range(4):
            density = rng.choice((0.2, 0.5, 0.8))
            allowed = _mask(k for k in range(n) if rng.random() < density)
            exists = checker.merges(allowed, allowed, 0)
            assert exists == bool(oracle.class_cycles(_bits(allowed))), (expr, bin(allowed))
            verdicts.append(exists)
    assert 20 <= sum(verdicts) <= 100, sum(verdicts)


def test_gamma2_matches_exhaustive_triples_on_random_complexes():
    compared = 0
    for expr, c in random_complexes(17, 12, [(2, 3), (2, 5), (3, 4)]):
        ups = upsilon(c)
        for t0 in positive_singularities(ups):
            try:
                expected = brute_gamma2(c, t0, ups)
            except ValueError:  # beyond the oracle's size limits
                continue
            assert gamma2_at(c, t0, ups=ups).gamma2 == expected, (expr, t0)
            compared += 1
    assert compared >= 10


@pytest.mark.parametrize("seed", [5, 6])
def test_lazy_engine_matches_the_eager_passes(seed):
    # the engine builds columns on first use, feeds the elements
    # below gamma once for both sides and resumes each side from them; the
    # eager passes build everything, sort tuples and run each side whole
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7), (5, 6)]
    singular = brute = 0
    for expr, c in random_complexes(seed, 10, pairs, max_boxes=3):
        ups = upsilon(c)
        t0s = positive_singularities(ups)
        for t0 in t0s + [F(97, 113), F(1, 977), F(1999, 1000), F(355, 226), F(7919, 7920)]:
            gamma, null_below, *sides = _SectorEngine(c).sides(t0)
            for sign, (slope, z0, own) in zip((-1, 1), sides):
                jet = (F(gamma, 2 * t0.denominator), F(slope, 2))  # from 2b*level and Alex - alg
                assert (jet, z0, null_below, own) == eager_side(c, t0, sign), (expr, t0, sign)
        for t0 in t0s:
            cert = gamma2_at(c, t0, ups=ups)
            assert cert == eager_gamma2(c, t0), (expr, t0)
            verify_gamma2_certificate(c, cert, ups=ups)
            singular += 1
            try:
                expected = brute_gamma2(c, t0, ups)
            except ValueError:  # beyond the oracle's size limits
                continue
            assert cert.gamma2 == expected, (expr, t0)
            brute += 1
    assert singular >= 10 and brute >= 5


def test_a_query_builds_at_most_half_of_each_sector(monkeypatch):
    # counts columns built, never time: the search feeds few of the 319 grading-0
    # and 318 grading-1 elements before the class enters and the sides merge
    engines = []

    class Recording(_SectorEngine):
        def __init__(self, c):
            super().__init__(c)
            engines.append(self)

    monkeypatch.setattr(UPSILON2, "_SectorEngine", Recording)
    c = parse_knot_expression("T(3,5) # T(4,5) # T(7,8)")
    assert len(c.generators) == 637
    ups = sum((upsilon(parse_knot_expression(f"T({p},{q})")) for p, q in ((4, 5), (7, 8))),
              upsilon(parse_knot_expression("T(3,5)")))
    t0s = positive_singularities(ups)
    assert len(t0s) == 11
    for t0 in t0s:
        upsilon2_at(c, t0, ups=ups)
        engine = engines.pop()
        assert 2 * len(engine.class_columns) <= len(engine.even_ids), t0
        assert 2 * len(engine.odd_columns) <= len(engine.odd_ids), t0


def test_a_gamma2_query_runs_one_search_per_pass(monkeypatch):
    # counts searches and column builds, never time: the shared pass is one
    # search however many levels it crosses below gamma, then one search per
    # side and one merge, and no column is built twice
    searches, builds = [], []
    first_entry, missing = UPSILON.first_entry, UPSILON._Memo.__missing__

    def counted_search(*args):
        searches.append(args)
        return first_entry(*args)

    def counted_build(memo, k):
        builds.append((id(memo), k))
        return missing(memo, k)

    monkeypatch.setattr(UPSILON, "first_entry", counted_search)
    monkeypatch.setattr(UPSILON._Memo, "__missing__", counted_build)
    c = direct_sum_with_box(parse_knot_expression("T(3,5) # -T(2,5) # T(4,5)"), 1, 2, 2, 1, 1)
    even = sector(c, 0)
    ups = upsilon(c)
    crossed = []
    for t0 in positive_singularities(ups):
        searches.clear()
        builds.clear()
        cert = gamma2_at(c, t0, ups=ups)
        assert len(searches) == 4, t0
        assert len(set(builds)) == len(builds) > 0, t0
        crossed.append(len({level(t0, e) for e in even if level(t0, e) < cert.gamma}))
    assert sum(n >= 3 for n in crossed) >= 4, crossed


def test_each_class_column_below_gamma_goes_into_one_echelon(monkeypatch):
    # counts Echelon.add per class column, never time: in one upsilon2_at call
    # the grading-0 elements below gamma go in once, for both sides, and those
    # at gamma once in the shared pass and at most once more for each side
    adds, in_sides = [], []
    add = Echelon.add

    def counted(ech, vec, tag=0):
        if in_sides:
            adds.append((ech, tag))
        return add(ech, vec, tag)

    class Recording(_SectorEngine):
        def sides(self, t0):
            in_sides.append(t0)
            try:
                return super().sides(t0)
            finally:
                in_sides.pop()

    monkeypatch.setattr(Echelon, "add", counted)
    monkeypatch.setattr(UPSILON2, "_SectorEngine", Recording)
    tied = fed_below = 0
    for expr in ("T(3,5) # -T(2,5) # T(4,5)", "-T(3,4) # T(3,7)", "T(4,5) # -T(2,7)",
                 "T(2,5) # -T(2,3) # T(3,4)"):
        knot = parse_knot_expression(expr)
        boxed = direct_sum_with_box(direct_sum_with_box(knot, 1, 2, 2, 1, 1), 0, 0, 1, 3, 3)
        ups = upsilon(knot)
        for c in (knot, boxed):
            even = sector(c, 0)
            for t0 in positive_singularities(ups):
                adds.clear()
                value = upsilon2_at(c, t0, ups=ups)
                fed = adds[:]
                cert = gamma2_at(c, t0, ups=ups)
                assert cert.upsilon2() == value
                verify_gamma2_certificate(c, cert, ups=ups)
                levels = [level(t0, e) for e in even]
                echelons, count = {}, [0] * len(even)
                for ech, tag in fed:
                    k = tag.bit_length() - 1
                    assert tag == 1 << k and levels[k] <= cert.gamma, (expr, t0)
                    count[k] += 1
                    echelons.setdefault(k, set()).add(id(ech))
                below = [k for k, lv in enumerate(levels) if lv < cert.gamma]
                assert all(count[k] == len(echelons[k]) == 1 for k in below), (expr, t0)
                assert max(count) <= 3, (expr, t0)
                fed_below += len(below)
                # below gamma, a level shared by elements of different slopes
                # is where the witness basis may differ from a (level, slope) pass
                slopes = {}
                for k in below:
                    slopes.setdefault(levels[k], set()).add(level_slope(even[k]))
                tied += any(len(s) > 1 for s in slopes.values())
    assert tied >= 10 and fed_below >= 100


def test_gamma2_builds_no_grading1_row_below_gamma(monkeypatch):
    # an element below gamma has its boundary in the span of the null cycles below
    # gamma, so its column could only join the kernel: it is never built
    engines = []

    class Recording(_SectorEngine):
        def __init__(self, c):
            super().__init__(c)
            engines.append(self)

    monkeypatch.setattr(UPSILON2, "_SectorEngine", Recording)
    # mirrored factors put corners, and odd box tops sit, below gamma
    cases = []
    for expr in ("T(3,5) # -T(2,5) # T(4,5)", "-T(3,4) # T(3,7)", "T(4,5) # -T(2,7)"):
        knot = parse_knot_expression(expr)
        boxed = direct_sum_with_box(direct_sum_with_box(knot, 1, 2, 2, 1, 1), 0, 0, 1, 3, 3)
        ups = upsilon(knot)
        cases += [(expr, knot, ups), (expr + " + boxes", boxed, ups)]
    below_total = 0
    for expr, c, ups in cases:
        odd = sector(c, 1)
        for t0 in positive_singularities(ups):
            cert = gamma2_at(c, t0, ups=ups)
            engine = engines.pop()
            below = {j for j, e in enumerate(odd) if level(t0, e) < cert.gamma}
            assert not below & set(engine.odd_columns), (expr, t0)
            below_total += len(below)
    assert below_total >= 60


def walked(layout):
    """A carried layout in the form of the oracle's walk: lists and (Alex, alg) pairs."""
    ids, grades, position = layout
    return tuple(map(list, ids)), tuple(list(zip(*g)) for g in grades), list(position)


def sequences(layout):
    ids, grades, position = layout
    return [*ids, *(s for pair in grades for s in pair), position]


def is_narrowest(s) -> bool:
    """Is s the narrowest of the 8-, 16-, 32- and 64-bit int arrays that holds its
    values, or a tuple when none does?"""
    lo, hi = min(s, default=0), max(s, default=0)
    for code in "bhiq":
        bound = 1 << 8 * array(code).itemsize - 1
        if -bound <= lo and hi < bound:
            return type(s) is array and s.typecode == code
    return type(s) is tuple


def test_every_builder_carries_the_walked_layout():
    rng = random.Random(23)
    built = [torus_knot_complex(1, 1), staircase_complex(step_vector(alexander_torus(3, 7)))]
    for expr, c in random_complexes(29, 12, [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7)]):
        built += [c, dual(c), tensor(c, torus_knot_complex(2, 3))]
        rows = [list(r)[::-1] + list(r) for r in c.boundary]  # unsorted, with repeats
        built += [BifilteredComplex(c.generators, rows, c.h0_rep),
                  BifilteredComplex(c.generators, [set(r) for r in c.boundary], c.h0_rep)]
        moves = filtered_moves(c)
        if moves:
            built.append(change_basis(c, [rng.choice(moves) for _ in range(rng.randrange(1, 20))]))
    assert len(built) >= 60
    for c in built:
        assert walked(c.layout) == sector_layout(c), c.to_json_dict()
        assert all(map(is_narrowest, sequences(c.layout)))


@pytest.mark.parametrize("corner", [2**40, 2**70])
def test_grades_past_the_narrow_arrays_are_kept_exactly(corner):
    # the box's grades need 64 bits, or more than any int array holds
    c = direct_sum_with_box(parse_knot_expression("T(3,4)"), corner, corner, 1, 1, 0)
    assert walked(c.layout) == sector_layout(c)
    assert max(c.layout.grades[0][0]) == corner
    assert upsilon2_at(c, F(2, 3)) == F(-4, 3)
    assert upsilon2_at(c, F(2, 3)) == upsilon2_at(parse_knot_expression("T(3,4)"), F(2, 3))


def test_nested_boxes_widen_the_columns_and_the_layout_as_their_grades_need():
    c = parse_knot_expression("T(2,3)")
    want = tuple(c.generators)
    assert all(s.typecode == "b" for s in [*c.generators.columns, *sequences(c.layout)])
    for corner in (200, 2**40, 2**70):
        args = (corner, -corner, 3, 5, 2)
        c, want = direct_sum_with_box(c, *args), eager_box_generators(want, *args)
        assert c.generators == want
        assert walked(c.layout) == sector_layout(c)
        assert all(map(is_narrowest, [*c.generators.columns, *sequences(c.layout)]))
    assert [type(s) for s in c.generators.columns] == [tuple, tuple, array]


def test_a_query_walks_no_generator(monkeypatch):
    walks = []
    original = COMPLEXES._sector_layout

    def counting(alg, *args):
        walks.append(len(alg))
        return original(alg, *args)

    monkeypatch.setattr(COMPLEXES, "_sector_layout", counting)
    c = direct_sum_with_box(parse_knot_expression("T(2,5) # T(5,6)"), 3, 4, 1, 2, 1)
    # one walk per complex built: two staircases and their tensor over all
    # their generators, and the box sum over its own two
    assert walks == [5, 9, 45, 2] and len(c.generators) == 47
    walks.clear()
    ups = upsilon(c)
    for t0 in positive_singularities(ups):
        upsilon2_at(c, t0)
        gamma2_at(c, t0, ups=ups)
    gamma_at(c, F(1, 3))
    assert walks == []


def test_no_name_is_read_when_computing_or_checking_a_certificate(monkeypatch):
    # a certificate element is a generator index with its grades: neither the
    # searches nor the verifiers build a generator's name
    def unread(i):
        raise AssertionError(f"the name of generator {i} was read")

    c = direct_sum_with_box(parse_knot_expression("T(2,5) # T(5,6)"), 3, 4, 1, 2, 1)
    ups = upsilon(c)
    t0s = positive_singularities(ups)
    monkeypatch.setattr(c.generators, "name", unread)
    with pytest.raises(AssertionError, match="name of generator 0 was read"):
        c.generators[0]
    for t in (F(1, 3), F(1), F(8, 5)):
        verify_gamma_certificate(c, gamma_at(c, t))
    assert len(t0s) >= 4
    for t0 in t0s:
        cert = gamma2_at(c, t0, ups=ups)
        verify_gamma2_certificate(c, cert, ups=ups)
        assert upsilon2_at(c, t0) == cert.upsilon2()


def test_a_query_leaves_no_reference_cycle():
    # an engine whose tables referred back to it would outlive its query
    # until the next garbage collection, with every row it built
    c = direct_sum_with_box(parse_knot_expression("T(2,5) # T(5,6)"), 3, 4, 1, 2, 1)
    ups = upsilon(c)
    gc.collect()
    gc.disable()
    try:
        for t0 in positive_singularities(ups):
            gamma2_at(c, t0, ups=ups)
        gamma_at(c, F(1, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_functional_that_finds_no_class_is_an_assertion_error():
    # lam = 0, through the builders' door, which checks nothing: no cycle has
    # lam = 1, so the class is reachable at no threshold
    c = torus_knot_complex(3, 4)
    corrupt = BifilteredComplex._derived(c.generators, c.boundary, c.h0_rep, 0, c.layout)
    with pytest.raises(AssertionError, match="not reachable at any level"):
        upsilon(corrupt)
    with pytest.raises(AssertionError, match="not reachable at any level"):
        gamma2_at(corrupt, F(2, 3), ups=upsilon(c))


def test_side_classes_that_never_merge_are_an_assertion_error():
    # no boundary, through the builders' door: x0 and x2 are then two classes
    # at level 1 at t0 = 2/3, each side takes one, and no grading-1 element
    # joins them
    c = torus_knot_complex(3, 4)
    corrupt = BifilteredComplex._derived(c.generators, ((),) * 5, c.h0_rep, c.lam, c.layout)
    assert upsilon(corrupt) == upsilon(c)
    with pytest.raises(AssertionError, match="side classes must merge"):
        gamma2_at(corrupt, F(2, 3))
