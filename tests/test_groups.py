import random
import tracemalloc
from collections import Counter
from math import factorial

import pytest

from surfbound.groups import (
    CyclicGroup,
    DihedralGroup,
    OrderCapExceeded,
    PermutationGroup,
    affine33,
    alternating,
    construct,
    cyclic_perm,
    dihedral_perm,
    direct_product,
    element_data,
    element_from_data,
    gl2_3,
    klein_four,
    perm_inv,
    perm_mul,
    perm_order,
    quaternion8,
    semidihedral16,
    symmetric,
)
from surfbound.signatures import NotDecimal


class TestPermBasics:
    def test_mul_convention(self):
        # (x*y)[i] = x[y[i]]: y acts first
        x = (1, 2, 0)
        y = (0, 2, 1)
        assert perm_mul(x, y) == (1, 0, 2)

    def test_inv(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(1, 8)
            p = list(range(n))
            rng.shuffle(p)
            p = tuple(p)
            assert perm_mul(p, perm_inv(p)) == tuple(range(n))

    def test_order(self):
        assert perm_order((1, 0, 3, 2)) == 2
        assert perm_order((1, 2, 0, 4, 3)) == 6


def product_oracle(x, y):
    return tuple(x[i] for i in y)


def full_closure_generates(group, xs):
    # the whole closure of xs, grown breadth first with no early stop
    closure = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in xs:
                w = product_oracle(e, g)
                if w not in closure:
                    closure.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(closure) == group.order


class TestPermutationMethods:
    def test_methods_are_the_module_functions(self):
        # no wrapper frame between a search and the permutation kernel
        group = symmetric(4)
        assert (group.mul, group.inv, group.element_order) == (perm_mul, perm_inv, perm_order)
        assert PermutationGroup.mul is perm_mul


class TestPermutationKernel:
    def test_mul_matches_oracle(self):
        rng = random.Random(13)
        for n in range(1, 13):
            for _ in range(20):
                x, y = list(range(n)), list(range(n))
                rng.shuffle(x)
                rng.shuffle(y)
                want = product_oracle(x, y)
                assert perm_mul(tuple(x), tuple(y)) == want
                assert perm_mul(x, y) == want

    # orders 1, 5, 7, 9, 25, 60, 84 and 48: least prime q = |G| for C5 and
    # C7, q = 3 and 5 for C3*C3 and C5*C5, q = 2 for the rest, and the
    # trivial group
    @pytest.mark.parametrize("desc", ["C1", "C5", "C7", "C3*C3", "C5*C5", "A5",
                                      "S3*D7", "GL23"])
    def test_generates_matches_full_closure(self, desc):
        group = construct(desc)
        rng = random.Random(desc)
        subsets = [[]] + [[x] for x in group.elements]
        subsets += [rng.sample(group.elements, min(rng.randrange(1, 4), group.order))
                    for _ in range(300)]
        answers = set()
        for xs in subsets:
            want = full_closure_generates(group, xs)
            assert group.generates(xs) == want, xs
            answers.add(want)
        assert answers == ({True} if desc == "C1" else {True, False})


# Oracles for _metacyclic: Q8 and SD16 multiplied case by case on the keys
# (i, e) = a^i b^e, and V4 as two literal permutations.
def q8_mul(x, y):
    # a^4 = 1, b^2 = a^2, b a b^-1 = a^-1
    i, e = x
    j, f = y
    if e == 0:
        return ((i + j) % 4, f)
    if f == 0:
        return ((i - j) % 4, 1)
    return ((i - j + 2) % 4, 0)


def sd16_mul(x, y):
    # a^8 = b^2 = 1, b a b^-1 = a^3
    i, e = x
    j, f = y
    if e == 0:
        return ((i + j) % 8, f)
    return ((i + 3 * j) % 8, 1 ^ f)


def regular_oracle(n, mul, descriptor):
    keys = [(i, e) for e in (0, 1) for i in range(n)]
    index = {k: i for i, k in enumerate(keys)}
    gens = [tuple(index[mul(g, k)] for k in keys) for g in ((1, 0), (0, 1))]
    return PermutationGroup(len(keys), gens, descriptor)


class TestMetacyclic:
    ORACLES = {
        "V4": (klein_four, lambda: PermutationGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)], "V4")),
        "Q8": (quaternion8, lambda: regular_oracle(4, q8_mul, "Q8")),
        "SD16": (semidihedral16, lambda: regular_oracle(8, sd16_mul, "SD16")),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_same_group_as_before(self, name):
        build, oracle = self.ORACLES[name]
        got, want = build(), oracle()
        assert (got.degree, got.generators, got.elements, got.descriptor) == (
            want.degree, want.generators, want.elements, want.descriptor)


class TestNamedGroups:
    FROZEN_ORDERS = [
        (klein_four, 4),
        (quaternion8, 8),
        (semidihedral16, 16),
        (gl2_3, 48),
    ]

    @pytest.mark.parametrize("build,order", FROZEN_ORDERS)
    def test_orders(self, build, order):
        assert build().order == order

    def test_symmetric_orders(self):
        for n in range(2, 7):
            assert symmetric(n).order == factorial(n)

    def test_alternating_orders(self):
        for n in range(3, 8):
            assert alternating(n).order == factorial(n) // 2

    def test_dihedral_perm_orders(self):
        for n in range(3, 12):
            assert dihedral_perm(n).order == 2 * n

    def test_cyclic_perm_orders(self):
        for n in range(1, 12):
            assert cyclic_perm(n).order == n

    def test_quaternion_structure(self):
        q = quaternion8()
        spectrum = Counter(q.element_order(e) for e in q.elements)
        assert spectrum == {1: 1, 2: 1, 4: 6}

    def test_semidihedral_relation(self):
        g = semidihedral16()
        a, b = g.generators
        assert g.element_order(a) == 8
        assert g.element_order(b) == 2
        # b a b^-1 = a^3
        conj = g.mul(g.mul(b, a), g.inv(b))
        assert conj == g.mul(a, g.mul(a, a))

    def test_klein_four_structure(self):
        v = klein_four()
        assert all(v.element_order(e) in (1, 2) for e in v.elements)

    def test_gl23_element_spectrum(self):
        g = gl2_3()
        spectrum = Counter(g.element_order(e) for e in g.elements)
        # classic GL(2,3) class data
        assert spectrum == {1: 1, 2: 13, 3: 8, 4: 6, 6: 8, 8: 12}

    def test_affine_standard_action(self):
        g = affine33([((0, 2), (1, 0)), ((1, 0), (0, 2))])
        assert g.order == 72

    def test_direct_product_order(self):
        assert direct_product(symmetric(3), dihedral_perm(11)).order == 132

    def test_dihedral_perm_rejects_small(self):
        with pytest.raises(ValueError):
            dihedral_perm(2)


class TestParametricCyclic:
    def test_group_axioms_spot(self):
        g = CyclicGroup(12)
        for x in range(12):
            assert g.mul(x, g.inv(x)) == g.identity

    def test_element_order(self):
        g = CyclicGroup(12)
        assert [g.element_order(x) for x in range(12)] == [
            1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12,
        ]

    def test_generates(self):
        g = CyclicGroup(12)
        assert g.generates([5])
        assert not g.generates([2, 4])
        assert g.generates([2, 3])

    def test_huge_order_is_cheap(self):
        g = CyclicGroup(10 ** 30)
        x = 10 ** 29 + 7
        assert g.mul(x, g.inv(x)) == 0
        assert g.element_order(1) == 10 ** 30

    def test_elements_capped(self):
        with pytest.raises(OrderCapExceeded):
            CyclicGroup(10 ** 30).elements


@pytest.mark.parametrize("group", [CyclicGroup(12), DihedralGroup(6)],
                         ids=["cyclic", "dihedral"])
def test_parametric_elements_and_index_built_once(group):
    assert group.elements is group.elements
    assert group.index is group.index
    assert [group.index[x] for x in group.elements] == list(range(group.order))


class TestParametricDihedral:
    def test_matches_perm_model(self):
        # dual route: key arithmetic vs explicit permutations a^i b^e
        for n in range(3, 9):
            par = DihedralGroup(n)
            perm = dihedral_perm(n)
            a, b = perm.generators

            def as_perm(key):
                i, e = key
                w = perm.identity
                for _ in range(i):
                    w = perm.mul(w, a)
                if e:
                    w = perm.mul(w, b)
                return w

            for x in par.elements:
                for y in par.elements:
                    assert as_perm(par.mul(x, y)) == perm.mul(as_perm(x), as_perm(y))
                assert as_perm(par.inv(x)) == perm.inv(as_perm(x))
                assert par.element_order(x) == perm.element_order(as_perm(x))

    def test_generates_matches_brute_closure(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randrange(3, 10)
            par = DihedralGroup(n)
            perm = dihedral_perm(n)
            a, b = perm.generators
            size = rng.randrange(1, 4)
            keys = []
            for _ in range(size):
                keys.append((rng.randrange(n), rng.randrange(2)))

            def as_perm(key):
                i, e = key
                w = perm.identity
                for _ in range(i):
                    w = perm.mul(w, a)
                if e:
                    w = perm.mul(w, b)
                return w

            assert par.generates(keys) == perm.generates([as_perm(k) for k in keys])

    def test_small_cases(self):
        v = DihedralGroup(2)
        assert v.order == 4
        assert v.generates([(0, 1), (1, 1)])
        assert not v.generates([(1, 0)])
        assert DihedralGroup(1).order == 2

    def test_huge_order_is_cheap(self):
        n = 4 * (10 ** 40 - 1) // 2
        g = DihedralGroup(n)
        x = (123456789, 1)
        assert g.mul(x, x) == g.identity
        assert g.element_order((1, 0)) == n


class TestEnumeration:
    def test_first_element_is_identity(self):
        for build in (klein_four, quaternion8, gl2_3):
            g = build()
            assert g.elements[0] == g.identity
            assert g.index[g.identity] == 0

    def test_enumeration_deterministic(self):
        assert gl2_3().elements == gl2_3().elements

    def test_order_cap(self, monkeypatch):
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", "1000")
        with pytest.raises(OrderCapExceeded):
            symmetric(8)

    @pytest.mark.parametrize("desc,order", [
        ("C7", 7), ("D7", 14), ("S5", 120), ("A5", 60), ("S3*D11", 132),
        ("GL23", 48), ("cyclic:9", 9), ("dihedral:9", 18),
    ])
    def test_order_cap_is_exact(self, desc, order, monkeypatch):
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", str(order))
        assert len(construct(desc).elements) == order
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", str(order - 1))
        with pytest.raises(OrderCapExceeded, match=f"exceeds order cap {order - 1}"):
            construct(desc).elements

    # refused by the one cap reader, with the CLI's message, not OrderCapExceeded
    BAD_CAPS = ("0", "-0", "-3", "abc", "1e9", "5_000", " 7", "+7", "\u0662\u0664", "9" * 1001)

    @pytest.mark.parametrize("value", BAD_CAPS,
                             ids=lambda v: v if len(v) < 9 else f"{len(v)}-digits")
    def test_bad_order_cap_is_refused_with_the_cli_message(self, value, monkeypatch):
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", value)
        with pytest.raises(NotDecimal) as info:
            construct("C5")
        assert str(info.value) == ("SURFBOUND_ORDER_CAP must be a positive decimal integer"
                                   f" of at most 1000 digits, got {value!r:.60}")

    def test_generates_requires_membership(self):
        g = klein_four()
        with pytest.raises(ValueError):
            g.generates([(1, 2, 3, 0)])


class TestConstruct:
    ROUND_TRIP = ["C8", "D23", "S5", "A6", "V4", "Q8", "SD16", "GL23",
                  "cyclic:10", "dihedral:7", "S3*D11"]

    @pytest.mark.parametrize("desc", ROUND_TRIP)
    def test_round_trip(self, desc):
        g = construct(desc)
        assert g.descriptor == desc
        h = construct(g.descriptor)
        assert h.order == g.order

    def test_a6_order(self):
        assert construct("A6").order == 360

    def test_s3xd11_order(self):
        assert construct("S3*D11").order == 132

    def test_parametric_dispatch(self):
        assert isinstance(construct("cyclic:100"), CyclicGroup)
        assert isinstance(construct("dihedral:100"), DihedralGroup)
        assert isinstance(construct("C10"), PermutationGroup)

    def test_aff9(self):
        g = construct("aff9:0,2,1,0:1,0,0,2")
        assert g.order == 72
        assert construct(g.descriptor).order == 72

    def test_perm_raw(self):
        g = construct("perm:4:1,0,3,2:2,3,0,1")
        assert g.order == 4
        assert construct(g.descriptor).elements == g.elements

    def test_perm_named_canonically(self, monkeypatch):
        # each image in decimal without leading zeros or sign, whatever was typed
        g = construct(" perm:7:01,2,3,4,5,6,-0:1,0,2,3,4,5,6 ")
        assert g.descriptor == "perm:7:1,2,3,4,5,6,0:1,0,2,3,4,5,6"
        assert g.elements == construct(g.descriptor).elements
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", "100")
        with pytest.raises(OrderCapExceeded) as info:
            construct("perm:7:01,2,3,4,5,6,0:1,0,2,3,4,5,6")
        assert str(info.value) == ("group 'perm:7:1,2,3,4,5,6,0:1,0,2,3,4,5,6'"
                                   " exceeds order cap 100")

    def test_equal_and_hash_by_descriptor(self):
        # the descriptor names a group canonically, whatever spelling built it
        assert construct("klein_four") == construct("V4")
        assert hash(construct("klein_four")) == hash(construct("V4"))
        assert construct("S3*C2") == construct("S3*C2")
        assert len({construct("C6"), construct("C6"), construct("cyclic:6")}) == 2
        assert construct("C6") != construct("cyclic:6")
        assert DihedralGroup(5) != CyclicGroup(10)
        assert construct("V4") != "V4"

    NUMBERED = [("C", cyclic_perm, 7), ("D", dihedral_perm, 9), ("S", symmetric, 5),
                ("A", alternating, 6), ("cyclic:", CyclicGroup, 12),
                ("dihedral:", DihedralGroup, 10)]

    @pytest.mark.parametrize("prefix,build,n", NUMBERED, ids=[p for p, _, _ in NUMBERED])
    def test_numbered_name_uses_its_builder(self, prefix, build, n):
        got, want = construct(f"{prefix}{n}"), build(n)
        assert type(got) is type(want)
        assert (got.descriptor, got.generators, got.elements) == (
            want.descriptor, want.generators, want.elements)

    @pytest.mark.parametrize("bad", ["B5", "E7", "c5", "Cyclic:5", "dihedral5", "cyclic:-3",
                                     "C", "dihedral:", "S5x"])
    def test_unknown_numbered_name_rejected(self, bad):
        with pytest.raises(ValueError, match="cannot parse group descriptor"):
            construct(bad)

    def test_rejects_garbage(self):
        for bad in ("X5", "perm:3", "aff9:1,2,3", "aff9:0,0,0,0", "D2"):
            with pytest.raises(ValueError):
                construct(bad)

    def test_element_data_round_trip(self):
        g = construct("Q8")
        for e in g.elements:
            assert element_data(e) == list(e)
            assert element_from_data(g, element_data(e)) == e
        p = construct("cyclic:9")
        assert element_data(4) == 4
        assert element_from_data(p, element_data(4)) == 4
        d = construct("dihedral:9")
        assert element_data((3, 1)) == [3, 1]
        assert element_from_data(d, element_data((3, 1))) == (3, 1)

    @pytest.mark.parametrize("descriptor,data", [
        ("dihedral:6", [1]), ("dihedral:6", [1, 0, 99]), ("dihedral:6", [1, True]),
        ("dihedral:6", 1), ("dihedral:6", [[1], 0]), ("cyclic:8", True),
        ("cyclic:8", [1]), ("cyclic:8", 8), ("cyclic:8", 1.0), ("V4", [True, False, 3, 2]),
        ("V4", 0), ("V4", [1, 0, 3]), ("V4", "1032"), ("V4", None), ("V4", {"0": 1}),
    ])
    def test_element_from_data_rejects_malformed(self, descriptor, data):
        group = construct(descriptor)
        with pytest.raises(ValueError, match=f"not in group '{descriptor}'"):
            element_from_data(group, data)


def _peak_bytes(descriptor, exc):
    tracemalloc.start()
    try:
        with pytest.raises(exc):
            construct(descriptor)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCapBeforeAllocation:
    """Hostile descriptors fail before any element or degree-sized tuple exists."""

    @pytest.mark.parametrize("kind", "CDSA")
    def test_huge_order_at_default_cap(self, kind):
        assert _peak_bytes(f"{kind}99999999999", OrderCapExceeded) < 10 ** 6

    @pytest.mark.parametrize("desc", ["C1000000", "D1000000", "S1000000",
                                      "A1000000", "S3*D11"])
    def test_small_cap(self, desc, monkeypatch):
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", "100")
        assert _peak_bytes(desc, OrderCapExceeded) < 10 ** 6

    @pytest.mark.parametrize("desc", ["cyclic:99999999999", "dihedral:99999999999"])
    @pytest.mark.parametrize("attr", ["elements", "index"])
    def test_parametric_elements_checked_on_every_access(self, desc, attr):
        group = construct(desc)
        for _ in range(2):
            tracemalloc.start()
            try:
                with pytest.raises(OrderCapExceeded):
                    getattr(group, attr)
                assert tracemalloc.get_traced_memory()[1] < 10 ** 6
            finally:
                tracemalloc.stop()

    def test_perm_generator_shorter_than_degree(self):
        assert _peak_bytes("perm:99999999999:0", ValueError) < 10 ** 6
