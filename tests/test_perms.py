import itertools

import pytest
from hypothesis import given, strategies as st

from orientkit import perms

from conftest import odd_power_normalize


def sign_by_inversions(p):
    """Independent sign oracle: parity of the inversion count."""
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


def test_sign_examples():
    assert perms.sign(perms.identity(5)) == 1
    assert perms.sign((1, 0, 2, 3, 4)) == -1
    assert perms.sign((1, 2, 3, 0)) == -1  # 4-cycle
    assert perms.sign(()) == 1


def test_sign_matches_inversion_oracle_exhaustively():
    for n in range(6):
        for p in itertools.permutations(range(n)):
            assert perms.sign(p) == sign_by_inversions(p)


def test_cycle_lengths():
    assert perms.cycle_lengths(perms.identity(3)) == [1, 1, 1]
    assert perms.cycle_lengths((1, 2, 3, 0)) == [4]
    assert perms.cycle_lengths((1, 0, 3, 4, 2)) == [2, 3]


def test_group_operations():
    p = (1, 2, 3, 0)
    assert perms.compose(p, perms.inverse(p)) == perms.identity(4)
    assert perms.power(p, 4) == perms.identity(4)
    assert perms.power(p, 2) == (2, 3, 0, 1)
    with pytest.raises(ValueError):
        perms.compose(p, (0, 1))
    with pytest.raises(ValueError):
        perms.power(p, -1)


@given(st.permutations(range(6)), st.integers(min_value=0, max_value=25))
def test_power_matches_repeated_composition(images, n):
    p = tuple(images)
    expected = perms.identity(6)
    for _ in range(n):
        expected = perms.compose(p, expected)
    assert perms.power(p, n) == expected


@given(st.permutations(range(7)), st.permutations(range(7)))
def test_sign_is_multiplicative(a, b):
    p, q = tuple(a), tuple(b)
    assert perms.sign(perms.compose(p, q)) == perms.sign(p) * perms.sign(q)


@given(st.permutations(range(7)), st.sampled_from([1, 3, 5, 7]))
def test_odd_powers_preserve_sign(images, n):
    p = tuple(images)
    assert perms.sign(perms.power(p, n)) == perms.sign(p)


def test_odd_power_normalize_examples():
    six_cycle = (1, 2, 3, 4, 5, 0)
    n, q = odd_power_normalize(six_cycle)
    assert n == 3
    assert perms.cycle_lengths(q) == [2, 2, 2]

    four_cycle = (1, 2, 3, 0)
    assert odd_power_normalize(four_cycle) == (1, four_cycle)

    three_cycle = (1, 2, 0)
    assert odd_power_normalize(three_cycle) == (3, perms.identity(3))


def test_odd_power_normalize_exhaustive_and_minimal():
    def all_two_power(p):
        return all(length & (length - 1) == 0 for length in perms.cycle_lengths(p))

    for size in range(7):
        for images in itertools.permutations(range(size)):
            p = tuple(images)
            n, q = odd_power_normalize(p)
            assert n % 2 == 1
            assert q == perms.power(p, n)
            assert all_two_power(q)
            for smaller in range(1, n, 2):
                assert not all_two_power(perms.power(p, smaller))


def test_format_parse_roundtrip():
    p = (2, 0, 1)
    assert perms.format_perm(p) == "[2,0,1]"
    assert perms.parse_perm("[2,0,1]") == p
    assert perms.parse_perm("[]") == ()
    with pytest.raises(ValueError):
        perms.parse_perm("2,0,1")
    with pytest.raises(ValueError):
        perms.parse_perm("[0,0]")
    assert perms.parse_perm("[ 2, 0 ,1 ]") == p


@pytest.mark.parametrize("text", ["[\u0662,0,1]", "[1,0_0]", "[2,+0,1]", "[2,,1]"])
def test_parse_perm_takes_ascii_digits_only(text):
    # int() reads the first three entry by entry; the graph grammar does not.
    with pytest.raises(ValueError):
        perms.parse_perm(text)


def test_check_perm_rejects_non_integers():
    with pytest.raises(TypeError):
        perms.check_perm([0.0, 1.0])
    with pytest.raises(TypeError):
        perms.check_perm([True, False])
    assert perms.check_perm([1, 0]) == (1, 0)
