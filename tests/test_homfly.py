"""The l,m bridge, its independent oracle, braid-index bound, and Jones form."""

from __future__ import annotations

from itertools import accumulate
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from braidskein import homfly
from braidskein.homfly import (
    DELTA,
    BraidIndexCertificate,
    HomflyPoly,
    JonesPoly,
    certify_braid_index_3,
    homfly_oracle,
    jones,
    mfw_lower_bound,
    to_homfly,
)
from braidskein.resolution import BudgetError, resolve
from braidskein.skein import A, A_INV, B, NEG_A_INV_B, LaurentAB, RingDomainError, SkeinVector
from braidskein.words import BraidWord, basis_braid, parse_word, partitions_of

from test_skein import polys
from test_words import words

homfly_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-3, 4)),
    st.integers(-5, 5),
    max_size=5,
).map(HomflyPoly)


TREFOIL = HomflyPoly({(-4, 0): -1, (-2, 0): -2, (-2, 2): 1})
FIGURE_EIGHT = HomflyPoly({(-2, 0): -1, (0, 0): -1, (0, 2): 1, (2, 0): -1})


# -- polynomial type ---------------------------------------------------------------


@given(homfly_polys, homfly_polys, homfly_polys)
def test_homfly_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == HomflyPoly.zero()
    assert x * HomflyPoly.one() == x


@given(homfly_polys)
def test_homfly_json_round_trip(x):
    assert HomflyPoly.from_json_dict(x.to_json_dict()) == x


def test_homfly_format():
    assert TREFOIL.format() == "-l^-4 - 2*l^-2 + l^-2*m^2"
    assert HomflyPoly.one().format() == "1"
    assert HomflyPoly.zero().format() == "0"
    assert DELTA.format() == "-l^-1*m^-1 - l*m^-1"


def test_json_term_order():
    ab = A + B * B + A_INV * B
    assert list(ab.to_json_dict().items()) == [("1,0", 1), ("-1,1", 1), ("0,2", 1)]
    assert list(TREFOIL.to_json_dict().items()) == [("-4,0", -1), ("-2,0", -2), ("-2,2", 1)]
    assert list(jones(TREFOIL).to_json_dict().items()) == [("2", 1), ("6", 1), ("8", -1)]
    # negative exponents, and the unit and zero of each type
    assert list((TREFOIL * DELTA).to_json_dict().items()) == [
        ("-5,-1", 1), ("-3,-1", 3), ("-3,1", -1), ("-1,-1", 2), ("-1,1", -1)]
    assert list(jones(DELTA).to_json_dict().items()) == [("-1", -1), ("1", -1)]
    assert NEG_A_INV_B.to_json_dict() == {"-1,1": -1}
    for poly_type, unit in ((LaurentAB, "0,0"), (HomflyPoly, "0,0"), (JonesPoly, "0")):
        assert poly_type.one().to_json_dict() == {unit: 1}
        assert poly_type.zero().to_json_dict() == {}
    assert LaurentAB.one() != HomflyPoly.one()


# -- bridge -------------------------------------------------------------------------


def test_bridge_trefoil():
    assert to_homfly(resolve(parse_word("2: 1 1 1"))) == TREFOIL


def test_bridge_unknots():
    assert to_homfly(resolve(parse_word("1:"))) == HomflyPoly.one()
    assert to_homfly(resolve(parse_word("2: 1"))) == HomflyPoly.one()


def test_bridge_split_unlinks():
    assert to_homfly(resolve(parse_word("2:"))) == DELTA
    assert to_homfly(resolve(parse_word("3:"))) == DELTA * DELTA
    # no two-component entry: the three-component one still takes DELTA^2
    gap = SkeinVector(3, {(3,): A, (1, 1, 1): B})
    assert to_homfly(gap) == (HomflyPoly({(-2, 0): -1})
                              + HomflyPoly({(-1, 1): -1}) * DELTA * DELTA)


def test_basis_words_map_to_delta_powers():
    for n in range(1, 6):
        for parts in partitions_of(n):
            expected = HomflyPoly.one()
            for _ in range(len(parts) - 1):
                expected = expected * DELTA
            assert to_homfly(resolve(basis_braid(parts))) == expected


def test_bridge_on_wide_unlink_patterns():
    # N: 1 closes to N-1 components, so its image is DELTA^(N-2) =
    # (-1)^k m^-k (l + l^-1)^k with k = N-2
    for n in range(2, 201):
        k = n - 2
        expected = {(k - 2 * j, -k): (-1) ** k * comb(k, j) for j in range(k + 1)}
        assert to_homfly(resolve(parse_word(f"{n}: 1"))).terms() == expected


def test_jones_on_wide_unlink_patterns():
    # the image of N: 1 is DELTA^(N-2), whose Jones polynomial is
    # jones(DELTA)^(N-2) = (-t^(-1/2) - t^(1/2))^(N-2)
    expected = JonesPoly.one()
    for n in range(2, 201):
        assert jones(to_homfly(resolve(parse_word(f"{n}: 1")))) == expected
        expected = expected * JonesPoly({-1: -1, 1: -1})
    k = 3998
    wide = {k - 2 * j: (-1) ** k * comb(k, j) for j in range(k + 1)}
    assert jones(to_homfly(resolve(parse_word("4000: 1")))).terms() == wide


def test_bridge_stops_at_its_parts_budget(monkeypatch):
    # 6: 1 resolves to one entry of five parts, whose image is DELTA^4
    vector = resolve(parse_word("6: 1"))
    monkeypatch.setattr(homfly, "_BRIDGE_PARTS", 5)
    assert to_homfly(vector) == DELTA * DELTA * DELTA * DELTA
    monkeypatch.setattr(homfly, "_BRIDGE_PARTS", 4)
    with pytest.raises(BudgetError, match="^an entry of 5 parts exceeds the bridge's budget of 4 parts$"):
        to_homfly(vector)


def horner_bridge(vector: SkeinVector) -> HomflyPoly:
    """The bridge by Horner's rule: one product by DELTA per component count."""
    by_count: dict[int, dict[tuple[int, int], int]] = {}
    for parts, poly in vector.entries().items():
        subbed = by_count.setdefault(len(parts), {})
        for (a, b), c in poly.terms().items():
            sign = -1 if (a + b) % 2 else 1
            key = (-2 * a - b, b)
            subbed[key] = subbed.get(key, 0) + sign * c
    total = HomflyPoly.zero()
    for k in range(max(by_count, default=0), 0, -1):
        total = total * DELTA
        if k in by_count:
            total = total + HomflyPoly(by_count[k])
    return total


skein_vectors = st.integers(1, 9).flatmap(lambda n: st.dictionaries(
    st.sampled_from(partitions_of(n)), polys, max_size=5).map(lambda d: SkeinVector(n, d)))


def _cancelling(n: int):
    """Vectors with two entries of one part count whose images cancel."""
    pairs = [(p, q) for p in partitions_of(n) for q in partitions_of(n)
             if p > q and len(p) == len(q)]
    return st.tuples(st.sampled_from(pairs), polys, polys).map(
        lambda t: SkeinVector(n, {t[0][0]: t[1], t[0][1]: -t[1]})
        + SkeinVector(n, {t[0][1]: t[2]}))


cancelling_vectors = st.integers(4, 9).flatmap(_cancelling)
# one partition of up to 60 parts, on up to 180 strands
wide_vectors = st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=60), polys).map(
    lambda t: SkeinVector(sum(t[0]), {tuple(sorted(t[0], reverse=True)): t[1]}))


# the images of (3) and (2,1) cancel: (A - 1) + B*DELTA = 0
@example(SkeinVector(3, {(3,): A - LaurentAB.one(), (2, 1): B}))
@given(st.one_of(skein_vectors, cancelling_vectors, wide_vectors))
def test_bridge_matches_horner_rule(vector):
    assert to_homfly(vector) == horner_bridge(vector)


# -- oracle -------------------------------------------------------------------------


def test_oracle_reference_values():
    assert homfly_oracle(parse_word("1:")) == HomflyPoly.one()
    assert homfly_oracle(parse_word("2: 1 -1")) == DELTA
    assert homfly_oracle(parse_word("2: 1 1 1")) == TREFOIL
    assert homfly_oracle(parse_word("3: 1 -2 1 -2")) == FIGURE_EIGHT
    # more than 4 strands: split unlinks and a split trefoil
    powers = [HomflyPoly.one()]
    for _ in range(7):
        powers.append(powers[-1] * DELTA)
    for n in range(5, 9):
        assert homfly_oracle(parse_word(f"{n}:")) == powers[n - 1]
    assert homfly_oracle(parse_word("6: 1 -1 4")) == powers[4]
    assert homfly_oracle(parse_word("7: 1 1 1 5")) == TREFOIL * powers[4]
    # 1,200 letters deep: the oracle must not lean on the recursion limit
    assert homfly_oracle(parse_word("2: " + " ".join(["1 -1"] * 600))) == DELTA


def test_oracle_stops_at_its_diagram_budget(monkeypatch):
    # each popped diagram is walked once, so the walks count the diagrams
    w = parse_word("3: 1 -2 1 -2 1 -2 1")
    walk, walked = homfly._oracle_walk, []
    monkeypatch.setattr(homfly, "_oracle_walk",
                        lambda letters, n: walked.append(letters) or walk(letters, n))
    want = to_homfly(resolve(w))
    assert homfly_oracle(w) == want
    diagrams = len(walked)
    monkeypatch.setattr(homfly, "_ORACLE_BUDGET", diagrams)
    assert homfly_oracle(w) == want
    monkeypatch.setattr(homfly, "_ORACLE_BUDGET", diagrams - 1)
    with pytest.raises(BudgetError, match=f"budget of {diagrams - 1} diagrams"):
        homfly_oracle(w)


def _place(n, blocks):
    """Blocks of at most 4 strands each shifted up by its offset on n strands."""
    signed = [s + (off if s > 0 else -off) for w, off in blocks for s in w.signed_indices()]
    return BraidWord.from_signed(n, signed)


# words whose blocks leave most strands idle: many components at once, so
# several m-degrees peel and the oracle sums many component counts
split_words = st.integers(4, 40).flatmap(lambda n: st.lists(
    st.tuples(words(max_strands=4, max_len=3), st.integers(0, n - 4)),
    max_size=4).map(lambda blocks: _place(n, blocks)))


@given(st.one_of(words(max_strands=4, max_len=8), split_words))
@settings(deadline=None)
def test_bridge_agrees_with_oracle(w):
    assert to_homfly(resolve(w)) == homfly_oracle(w)


@given(words(max_strands=4, max_len=7), st.sampled_from([1, -1]))
@settings(deadline=None)
def test_bridge_is_stabilization_invariant(w, sign):
    n = w.strand_count
    stabilized = BraidWord.from_signed(n + 1, w.signed_indices() + (sign * n,))
    assert to_homfly(resolve(stabilized)) == to_homfly(resolve(w))


@given(words(max_strands=4, max_len=7))
@settings(deadline=None)
def test_bridge_image_is_basepoint_free(w):
    images = {to_homfly(resolve(w, bp)) for bp in range(1, w.strand_count + 1)}
    assert len(images) == 1


# -- braid index ----------------------------------------------------------------------


def test_mfw_examples():
    assert mfw_lower_bound(TREFOIL) == 2
    assert mfw_lower_bound(HomflyPoly.one()) == 1
    assert mfw_lower_bound(FIGURE_EIGHT) == 3
    with pytest.raises(ValueError):
        mfw_lower_bound(HomflyPoly.zero())


def test_certify_examples():
    assert certify_braid_index_3(parse_word("3: 1 -2 1 -2")) is BraidIndexCertificate.CERTIFIED
    assert certify_braid_index_3(parse_word("3: 1 2")) is BraidIndexCertificate.UNKNOWN
    with pytest.raises(ValueError):
        certify_braid_index_3(parse_word("2: 1 1 1"))


def test_certify_trefoil_with_split_component():
    # sigma_1^3 on three strands closes to a trefoil plus a split unknot;
    # the split component widens the l-breadth to 4, so the link (not the
    # trefoil alone) is certified to need three strands.
    word = parse_word("3: 1 1 1")
    assert mfw_lower_bound(homfly_oracle(word)) == 3
    assert certify_braid_index_3(word) is BraidIndexCertificate.CERTIFIED


# -- Jones ------------------------------------------------------------------------------


def test_jones_reference_values():
    assert jones(HomflyPoly.one()) == JonesPoly({0: 1})
    assert jones(HomflyPoly.one()).format() == "1"
    assert jones(DELTA) == JonesPoly({-1: -1, 1: -1})
    assert jones(DELTA).format() == "-t^(-1/2) - t^(1/2)"
    assert jones(TREFOIL) == JonesPoly({2: 1, 6: 1, 8: -1})
    assert jones(TREFOIL).format() == "t + t^3 - t^4"
    assert jones(FIGURE_EIGHT).format() == "t^-2 - t^-1 + 1 - t + t^2"


def test_jones_rejects_odd_exponent_sums():
    with pytest.raises(ValueError):
        jones(HomflyPoly({(1, 0): 1}))


def test_jones_rejects_a_remainder():
    # l*m^-1 clears to a single q-power, which (q^-1 - q) does not divide
    with pytest.raises(ValueError, match="not divisible"):
        jones(HomflyPoly({(1, -1): 1}))
    # DELTA^5 peels whole, and l*m^-1 beside it still does not divide
    with pytest.raises(ValueError, match="not divisible"):
        jones(DELTA * DELTA * DELTA * DELTA * DELTA + HomflyPoly({(1, -1): 1}))


def test_jones_is_a_ring_map():
    assert jones(TREFOIL * DELTA) == jones(TREFOIL) * jones(DELTA)
    assert jones(FIGURE_EIGHT * FIGURE_EIGHT) == jones(FIGURE_EIGHT) * jones(FIGURE_EIGHT)


def test_jones_format():
    assert JonesPoly({2: 3}).format() == "3*t"
    assert JonesPoly({-1: -1}).format() == "-t^(-1/2)"
    assert JonesPoly({0: 1}) == JonesPoly.one()


def test_polynomials_check_their_keys_and_coefficients():
    # HomflyPoly keys are (l, m) exponent pairs, JonesPoly keys one exponent
    for cls, terms in ((HomflyPoly, {("l", "m"): 1}), (HomflyPoly, {(0, 0): 0.5}),
                       (HomflyPoly, {0: 1}), (JonesPoly, {(0, 0): 1}),
                       (JonesPoly, {0.5: 1}), (JonesPoly, {0: 1.0})):
        with pytest.raises(RingDomainError, match=f"is not a term of {cls.__name__}$"):
            cls(terms)
    assert HomflyPoly({(-1, 3): 2}).terms() == {(-1, 3): 2}
    assert JonesPoly({-3: 2}).terms() == {-3: 2}


def test_jones_rejects_what_no_link_has():
    # the m^-3 group is l*u^2 with u = l + l^-1, which u^3 does not divide
    h = HomflyPoly({(3, -3): 1, (1, -3): 2, (-1, -3): 1, (1, -1): -4})
    with pytest.raises(ValueError, match="not divisible"):
        jones(h)
    # 1 - 4m^-2 + u^2*m^-4, which the cleared division maps to 0
    g = HomflyPoly({(0, 0): 1, (0, -2): -4, (2, -4): 1, (0, -4): 2, (-2, -4): 1})
    assert cleared_jones(g) == JonesPoly()
    with pytest.raises(ValueError, match="not divisible"):
        jones(g)


def cleared_jones(h: HomflyPoly) -> JonesPoly:
    """Jones by clearing every negative m-power and dividing each back out."""
    terms = h.terms()
    if not terms:
        return JonesPoly()
    clear = max(0, -min(me for _, me in terms))
    lo = min(-2 * le - me - clear for le, me in terms)
    hi = max(-2 * le + me + clear for le, me in terms)
    coeffs = [0] * (hi - lo + 1)
    for (le, me), c in terms.items():
        if (le + me) % 2:
            raise ValueError("l and m exponents must have even sum")
        sign = -1 if ((le + me) // 2) % 2 else 1
        k = me + clear
        for j in range(k + 1):
            coeffs[-2 * le + 2 * j - k - lo] += sign * c * comb(k, j) * (-1) ** j
    for _ in range(clear):
        coeffs[0::2] = accumulate(coeffs[0::2])
        coeffs[1::2] = accumulate(coeffs[1::2])
        if any(coeffs[-2:]):
            raise ValueError("polynomial is not divisible by (q^-1 - q)")
        del coeffs[-2:]
        lo += 1
    return JonesPoly({lo + i: c for i, c in enumerate(coeffs) if c})


# bridge images of words, of split words with many idle strands, and of
# arbitrary vectors on up to 9 strands: link polynomials with many m-degrees
@given(st.one_of(words(max_strands=6, max_len=8).map(resolve), split_words.map(resolve),
                 skein_vectors))
@settings(deadline=None)
def test_jones_matches_cleared_division(v):
    h = to_homfly(v)
    assert jones(h) == cleared_jones(h)


def _error(f, h):
    with pytest.raises(ValueError) as error:
        f(h)
    return str(error.value)


@given(homfly_polys)
def test_jones_matches_cleared_division_on_any_polynomial(h):
    odd = any((le + me) % 2 for le, me in h.terms())
    for x in (h, h * DELTA * DELTA):
        if odd:
            assert _error(jones, x) == _error(cleared_jones, x)
            continue
        try:
            value = jones(x)
        except ValueError:
            continue  # no link has x
        assert value == cleared_jones(x)
    if not odd and all(me >= 0 for _, me in h.terms()):
        # h * DELTA^2 has the form P_3 * DELTA^2 of a link polynomial
        jones(h * DELTA * DELTA)


@given(words(max_strands=3, max_len=8))
@settings(deadline=None)
def test_jones_specialization_is_always_exact(w):
    # Every m^-c group must peel whole, with integer coefficients, for
    # every closure.
    jones(homfly_oracle(w))
