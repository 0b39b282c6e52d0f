import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit.errors import (
    BadChoiceFunction,
    BadWeights,
    InvalidData,
    UnreducedPresentation,
)
from lndkit.groebner import jacobian_rank_at_point
from lndkit.poly import parse_poly
from lndkit.trinomial import (
    _var_name,
    TrinomialData,
    build_relations,
    classify_trinomial,
    column_minor,
    is_rigid,
    suspension_lnd,
    type1_lnd,
    variable_layout,
)
from lndkit import Derivation, PresentedAlgebra, VarietyDossier
from lndkit import test_type_a as type_a_certificate

A_STD = [[1, 0, 1], [0, 1, 1]]  # pairwise independent columns


def oracle_rigid(T):
    """Independent restatement of the rigidity conditions."""
    if T.m > 0:
        return False
    blocks = [T.block(i) for i in T.block_indices]
    missing = [li for li in blocks if 1 not in li]
    if T.variant == 1:
        return len(missing) > 1
    if len(missing) <= 2:
        return False
    if len(missing) == 3:
        special = sum(
            1
            for li in missing
            if 2 in li and all(e % 2 == 0 for e in li)
        )
        if special >= 2:
            return False
    return True


def rand_datum(rng):
    variant = rng.choice([1, 2])
    nblocks = rng.randint(2, 4) if variant == 1 else rng.randint(3, 5)
    l = [
        [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        for _ in range(nblocks)
    ]
    m = rng.choice([0, 0, 0, 1, 2])
    if variant == 1:
        a = rng.sample(range(-6, 7), nblocks)
        return TrinomialData.type1(l, a, m)
    cols = rng.sample(
        [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, 3)], nblocks
    )
    A = [list(row) for row in zip(*cols)]
    return TrinomialData.type2(l, A, m)


# ---- data validation ------------------------------------------------------


def test_validate_rejects_bad_data():
    with pytest.raises(InvalidData):
        TrinomialData.type1([[1]], [0])  # r < 2
    with pytest.raises(InvalidData):
        TrinomialData.type1([[1], [2]], [3, 3])  # repeated a_i
    with pytest.raises(InvalidData):
        TrinomialData.type1([[0], [2]], [0, 1])  # exponent < 1
    with pytest.raises(InvalidData):
        TrinomialData.type1([[1], [2]], [0, 1], m=-1)
    with pytest.raises(InvalidData, match="columns 0 and 2 are linearly dependent"):
        TrinomialData.type2([[2], [2], [2]], [[1, 0, 2], [0, 1, 0]])
    with pytest.raises(InvalidData, match="columns 0 and 1 are linearly dependent"):
        TrinomialData.type2([[2], [2], [2]], [[1, 2, 1], [2, 4, 1]])
    with pytest.raises(InvalidData, match="zero column in coefficient matrix"):
        TrinomialData.type2([[2], [2], [2]], [[0, 1, 1], [0, 1, 2]])
    with pytest.raises(InvalidData, match="variant must be 1 or 2, got 3"):
        TrinomialData(3, 0, ((2,), (2,), (2,)))
    with pytest.raises(InvalidData, match="empty exponent tuple"):
        TrinomialData.type1([[], [2]], [0, 1])
    with pytest.raises(InvalidData, match="need 2 constants a_i"):
        TrinomialData.type1([[2], [2]], [0, 1, 2])
    with pytest.raises(InvalidData, match=r"need a 2x3 coefficient matrix"):
        TrinomialData.type2([[2], [2], [2]], [[1, 0], [0, 1]])


def test_variable_layout_type1():
    T = TrinomialData.type1([[1, 1], [2]], [1, 0], m=1)
    assert variable_layout(T) == ["T11", "T12", "T21", "S1"]


def test_variable_layout_type2_starts_at_zero():
    T = TrinomialData.type2([[2], [2], [2]], A_STD)
    assert variable_layout(T) == ["T01", "T11", "T21"]


# ---- relation generation ---------------------------------------------------


def test_type1_golden_relation():
    T = TrinomialData.type1([[1, 1], [2]], [1, 0])
    algebra = build_relations(T)
    names = ["T11", "T12", "T21"]
    assert algebra.vars == tuple(names)
    assert algebra.relations == (
        parse_poly("T11*T12 - T21^2 + 1", names),
    )


def test_type1_chain_of_three():
    T = TrinomialData.type1([[1], [1], [2]], [0, 1, 3])
    algebra = build_relations(T)
    names = ["T11", "T21", "T31"]
    assert algebra.relations == (
        parse_poly("T11 - T21 - 1", names),
        parse_poly("T21 - T31^2 - 2", names),
    )


def test_type2_golden_relation():
    T = TrinomialData.type2([[2], [2], [2]], A_STD)
    algebra = build_relations(T)
    names = ["T01", "T11", "T21"]
    # signed 2x2 column minors of [[1,0,1],[0,1,1]]
    assert column_minor(T.A, 1, 2) == Fraction(-1)
    assert column_minor(T.A, 0, 2) == Fraction(1)
    assert column_minor(T.A, 0, 1) == Fraction(1)
    assert algebra.relations == (
        parse_poly("-T01^2 - T11^2 + T21^2", names),
    )


def test_type2_four_blocks_gives_two_relations():
    T = TrinomialData.type2(
        [[2], [2], [2], [3]], [[1, 0, 1, 1], [0, 1, 1, -1]]
    )
    assert len(build_relations(T).relations) == 2


# ---- rigidity ------------------------------------------------------------


def test_rigidity_golden_table():
    cases = [
        (TrinomialData.type1([[1, 1], [2]], [1, 0]), False, 2),
        (TrinomialData.type1([[2], [2]], [0, 1]), True, None),
        (TrinomialData.type1([[2], [2]], [0, 1], m=1), False, 1),
        (TrinomialData.type1([[2], [3], [2]], [0, 1, 2]), True, None),
        (TrinomialData.type2([[2], [2], [2]], A_STD), False, 3),
        (TrinomialData.type2([[3], [3], [3]], A_STD), True, None),
        (TrinomialData.type2([[1], [3], [3]], A_STD), False, 2),
        (TrinomialData.type2([[2, 4], [2], [3]], A_STD), False, None),
    ]
    for T, expect_rigid, cond in cases:
        verdict = is_rigid(T)
        assert verdict.rigid == expect_rigid, T
        if cond is not None:
            assert verdict.condition == cond, T


def test_rigidity_matches_oracle_random():
    rng = random.Random(73)
    for _ in range(200):
        T = rand_datum(rng)
        assert is_rigid(T).rigid == oracle_rigid(T), T


def test_appending_unit_exponent_never_creates_rigidity():
    rng = random.Random(79)
    for _ in range(100):
        T = rand_datum(rng)
        widened = tuple(tuple(li) + (1,) for li in T.l)
        T2 = TrinomialData(T.variant, T.m, widened, a=T.a, A=T.A)
        assert not is_rigid(T2).rigid


# ---- classification ------------------------------------------------------


def test_classify_golden_table():
    assert (
        classify_trinomial(TrinomialData.type1([[1, 1], [2]], [1, 0])).verdict
        == "A"
    )
    assert (
        classify_trinomial(TrinomialData.type1([[2], [2]], [0, 1])).verdict
        == "C"
    )
    assert (
        classify_trinomial(
            TrinomialData.type2([[3], [3], [3]], A_STD, m=2)
        ).verdict
        == "A"
    )
    report = classify_trinomial(TrinomialData.type2([[2], [2], [2]], A_STD))
    assert report.verdict == "B"
    assert any(
        "jacobian_rank_at_origin" in e.data for e in report.evidence
    )
    assert (
        classify_trinomial(TrinomialData.type2([[3], [3], [3]], A_STD)).verdict
        == "C"
    )


def test_classify_rejects_unreduced_type2():
    T = TrinomialData.type2([[1], [2], [2]], A_STD)
    with pytest.raises(UnreducedPresentation):
        classify_trinomial(T)


@st.composite
def reduced_type2(draw):
    """Variant-2 data with m = 0 and 3-4 blocks of exponents in 1..3, none
    of them the bare-variable block (1,). Some blocks get an exponent 1
    appended, so most data are non-rigid, with verdict B."""
    nblocks = draw(st.integers(3, 4))
    block = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
        lambda li: [1, 1] if li == [1] else li
    )
    l = [draw(block) for _ in range(nblocks)]
    for li in l:
        if 1 not in li and draw(st.booleans()):
            li.append(1)
    cols = draw(
        st.permutations([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
    )[:nblocks]
    return TrinomialData.type2(l, [list(row) for row in zip(*cols)])


@settings(max_examples=40, deadline=None)
@given(reduced_type2())
def test_type2_jacobian_rank_at_origin_is_zero(T):
    # the reported rank is read off the datum; the general routine agrees
    algebra = build_relations(T)
    rank = jacobian_rank_at_point(list(algebra.relations), [0] * algebra.arity)
    assert rank == 0
    report = classify_trinomial(T)
    reported = [
        e.data["jacobian_rank_at_origin"]
        for e in report.evidence
        if "jacobian_rank_at_origin" in e.data
    ]
    assert reported == ([rank] if report.verdict == "B" else [])


def test_structural_b_evidence_matches_the_computed_jacobian():
    # every variant-2, m = 0 datum this file classifies B: the structural
    # path states rank 0 at the origin, the Jacobian computes it
    rng = random.Random(83)
    data = [
        TrinomialData.type2([[2], [2], [2]], A_STD),
        TrinomialData.type2([[2, 4], [2], [3]], A_STD),
        TrinomialData.type2([[2], [2], [2], [3]], [[1, 0, 1, 1], [0, 1, 1, -1]]),
        *(rand_datum(rng) for _ in range(100)),
    ]
    checked = 0
    for T in data:
        if T.variant != 2 or T.m:
            continue
        try:
            report = classify_trinomial(T)
        except UnreducedPresentation:
            continue
        if report.verdict != "B":
            continue
        assert {"jacobian_rank_at_origin": 0} in [e.data for e in report.evidence]
        algebra = build_relations(T)
        origin = [Fraction(0)] * algebra.arity
        assert jacobian_rank_at_point(algebra.relations, origin) == 0
        checked += 1
    assert checked >= 10


def test_classify_consistent_with_rigidity_random():
    rng = random.Random(83)
    for _ in range(100):
        T = rand_datum(rng)
        try:
            report = classify_trinomial(T)
        except UnreducedPresentation:
            continue
        assert (report.verdict == "C") == is_rigid(T).rigid


# ---- canonical variant-1 derivation ----------------------------------------


def test_type1_lnd_golden_images():
    T = TrinomialData.type1([[1, 1], [2]], [1, 0])
    D = type1_lnd(T, {1: 1, 2: 1})
    names = ["T11", "T12", "T21"]
    assert D.apply(parse_poly("T11", names)) == parse_poly("2*T21", names)
    assert D.apply(parse_poly("T21", names)) == parse_poly("T12", names)
    assert D.apply(parse_poly("T12", names)).is_zero()
    assert D.is_well_defined()[0]
    assert D.nilpotency_check(8).verified


def test_type1_lnd_alternate_choice():
    T = TrinomialData.type1([[1, 1], [2]], [1, 0])
    D = type1_lnd(T, {1: 2, 2: 1})
    names = ["T11", "T12", "T21"]
    assert D.apply(parse_poly("T12", names)) == parse_poly("2*T21", names)
    assert D.apply(parse_poly("T11", names)).is_zero()
    assert D.is_well_defined()[0]


def test_type1_lnd_rejects_bad_choices():
    T = TrinomialData.type1([[2], [2]], [0, 1])
    with pytest.raises(BadChoiceFunction):
        type1_lnd(T, {1: 1, 2: 1})  # two exceptional blocks
    T2 = TrinomialData.type1([[1, 1], [2]], [1, 0])
    with pytest.raises(BadChoiceFunction):
        type1_lnd(T2, {1: 3, 2: 1})  # out of range
    with pytest.raises(BadChoiceFunction):
        type1_lnd(T2, {1: 1})  # missing block
    with pytest.raises(InvalidData):
        type1_lnd(TrinomialData.type2([[2], [2], [2]], A_STD), {0: 1, 1: 1, 2: 1})
    with pytest.raises(InvalidData, match="canonical derivation requires m = 0"):
        type1_lnd(TrinomialData.type1([[1], [2]], [0, 1], m=1), {1: 1, 2: 1})


def test_type1_lnd_random_nonrigid():
    rng = random.Random(89)
    built = 0
    while built < 10:
        T = rand_datum(rng)
        if T.variant != 1 or T.m != 0 or is_rigid(T).rigid:
            continue
        choice = {}
        exceptional_used = False
        ok = True
        for i in T.block_indices:
            li = T.block(i)
            if 1 in li:
                choice[i] = li.index(1) + 1
            elif not exceptional_used:
                choice[i] = 1
                exceptional_used = True
            else:
                ok = False
                break
        if not ok:
            continue
        D = type1_lnd(T, choice)
        assert D.is_well_defined()[0]
        assert D.nilpotency_check(32).verified
        built += 1


@st.composite
def nonrigid_type1(draw):
    """Variant-1 data with m = 0, 2-3 blocks of 1-2 exponents in 1..4, and
    an exponent 1 in every block but at most one: non-rigid."""
    nblocks = draw(st.integers(2, 3))
    block = st.lists(st.integers(1, 4), min_size=1, max_size=2)
    l = [draw(block) for _ in range(nblocks)]
    for li in l[1:]:
        if 1 not in li:
            li[draw(st.integers(0, len(li) - 1))] = 1
    a = draw(
        st.lists(st.integers(-4, 4), min_size=nblocks, max_size=nblocks, unique=True)
    )
    return TrinomialData.type1(draw(st.permutations(l)), a)


@settings(max_examples=40, deadline=None)
@given(nonrigid_type1())
def test_type1_lnds_certify_type_a(T):
    # the structural verdict A is backed by every canonical derivation
    assert classify_trinomial(T).verdict == "A"
    columns = [range(1, len(T.block(i)) + 1) for i in T.block_indices]
    tried = 0
    for js in product(*columns):
        choice = dict(zip(T.block_indices, js))
        if sum(T.block(i)[choice[i] - 1] != 1 for i in T.block_indices) > 1:
            continue
        D = type1_lnd(T, choice)
        V = VarietyDossier.create(D.algebra, [D])
        assert type_a_certificate(V) is not None, choice
        tried += 1
    assert tried


# ---- relabelled data: the same variety -----------------------------------


def relabel(T, rng):
    """T with the variables of each block reordered and the blocks
    permuted together with their constants a_i or columns of A, and the
    map from each variable name of the new datum to the name of the same
    variable of T: a presentation of the same variety."""
    old = list(T.block_indices)
    order = rng.sample(old, len(old))  # new block k is old block order[k]
    cols = {i: rng.sample(range(len(T.block(i))), len(T.block(i))) for i in old}
    l = [[T.block(i)[j] for j in cols[i]] for i in order]
    rename = {f"S{k}": f"S{k}" for k in range(1, T.m + 1)}
    for k, i in zip(old, order):
        for j, c in enumerate(cols[i], 1):
            rename[_var_name(k, j)] = _var_name(i, c + 1)
    if T.variant == 1:
        return TrinomialData.type1(l, [T.a[i - 1] for i in order], T.m), rename
    A = [[row[i] for i in order] for row in T.A]
    return TrinomialData.type2(l, A, T.m), rename


def _renamed(f, algebra, rename, target):
    """f, a polynomial of `algebra`, in the variables of `target`."""
    return parse_poly(f.format([rename[v] for v in algebra.vars]), target.vars)


def _outcome(T):
    try:
        return classify_trinomial(T).verdict, is_rigid(T).condition
    except UnreducedPresentation:
        return "unreduced", None


def test_relabelled_data_keep_verdict_condition_ideal_and_type1_lnds():
    rng = random.Random(101)
    lnds = 0
    for _ in range(200):
        T = rand_datum(rng)
        U, rename = relabel(T, rng)
        assert sorted(map(sorted, U.l)) == sorted(map(sorted, T.l))
        assert _outcome(U) == _outcome(T)
        X, Y = build_relations(T), build_relations(U)
        back = {v: u for u, v in rename.items()}
        for f in Y.relations:
            assert X.normal(_renamed(f, Y, rename, X)).is_zero(), (T, U)
        for f in X.relations:
            assert Y.normal(_renamed(f, X, back, Y)).is_zero(), (T, U)
        if T.variant != 1 or T.m or is_rigid(T).rigid:
            continue
        # a choice function of T: non-rigid, T has at most one block
        # without an exponent 1, and that block may choose any column
        choice = {}
        for i in T.block_indices:
            ones = [j for j, e in enumerate(T.block(i), 1) if e == 1]
            choice[i] = rng.choice(ones or range(1, len(T.block(i)) + 1))
        # the same variables, as columns of U's blocks
        chosen = {_var_name(i, j) for i, j in choice.items()}
        moved = {
            k: j
            for k in U.block_indices
            for j in range(1, len(U.block(k)) + 1)
            if rename[_var_name(k, j)] in chosen
        }
        D, E = type1_lnd(T, choice), type1_lnd(U, moved)
        for v, g in zip(Y.vars, E.images):
            assert _renamed(g, Y, rename, X) == D.images[X.vars.index(rename[v])]
        certified = [
            type_a_certificate(VarietyDossier.create(F.algebra, [F])) is not None
            for F in (D, E)
        ]
        assert certified == [True, True]
        lnds += 1
    assert lnds >= 10


# ---- suspensions -----------------------------------------------------------


def test_suspension_golden():
    Z = PresentedAlgebra(["z"])
    dz = Derivation.from_strings(Z, {"z": "1"})
    algebra, delta = suspension_lnd(Z, dz, Z.parse("z^2 - 1"), [1, 1])
    names = ["z", "y1", "y2"]
    assert algebra.vars == tuple(names)
    assert algebra.relations == (parse_poly("y1*y2 - z^2 + 1", names),)
    assert delta.apply(parse_poly("z", names)) == parse_poly("y2", names)
    assert delta.apply(parse_poly("y1", names)) == parse_poly("2*z", names)
    assert delta.apply(parse_poly("y2", names)).is_zero()
    assert delta.is_well_defined()[0]
    assert delta.nilpotency_check(8).verified


def test_suspension_three_coordinates():
    Z = PresentedAlgebra(["z"])
    dz = Derivation.from_strings(Z, {"z": "1"})
    algebra, delta = suspension_lnd(Z, dz, Z.parse("z^3 + 1"), [1, 2, 1])
    names = ["z", "y1", "y2", "y3"]
    assert algebra.relations == (
        parse_poly("y1*y2^2*y3 - z^3 - 1", names),
    )
    assert delta.apply(parse_poly("z", names)) == parse_poly("y2^2*y3", names)
    assert delta.apply(parse_poly("y1", names)) == parse_poly("3*z^2", names)
    assert delta.is_well_defined()[0]


def test_suspension_rejects_bad_weights():
    Z = PresentedAlgebra(["z"])
    dz = Derivation.from_strings(Z, {"z": "1"})
    with pytest.raises(BadWeights):
        suspension_lnd(Z, dz, Z.parse("z^2 - 1"), [2, 1])
    with pytest.raises(BadWeights):
        suspension_lnd(Z, dz, Z.parse("z^2 - 1"), [])
    with pytest.raises(BadWeights):
        suspension_lnd(Z, dz, Z.parse("z^2 - 1"), [1, 0])


def test_suspension_rejects_a_bad_base():
    X = PresentedAlgebra(["x", "y"], [parse_poly("x*y - 1", ["x", "y"])])
    not_well_defined = Derivation.from_strings(X, {"x": "1", "y": "0"})
    with pytest.raises(InvalidData, match="base derivation is not well-defined"):
        suspension_lnd(X, not_well_defined, X.parse("x"), [1, 1])
    Y = PresentedAlgebra(["y1"])
    dy = Derivation.from_strings(Y, {"y1": "1"})
    with pytest.raises(ValueError, match="names collide with the base"):
        suspension_lnd(Y, dy, Y.parse("y1"), [1])


@pytest.mark.parametrize("bad", [1.5, 2.9, True])
def test_non_integer_exponents_and_weights_are_rejected(bad):
    with pytest.raises(InvalidData):
        TrinomialData.type1([[bad, 1], [2]], [1, 0])
    with pytest.raises(InvalidData):
        TrinomialData.type2([[2], [bad], [2]], A_STD)
    with pytest.raises(InvalidData):
        TrinomialData.type1([[1, 1], [2]], [1, 0], m=bad)
    Z = PresentedAlgebra(["z"])
    dz = Derivation.from_strings(Z, {"z": "1"})
    with pytest.raises(BadWeights):
        suspension_lnd(Z, dz, Z.parse("z^2 - 1"), [1, bad])
