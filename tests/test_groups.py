import json
import re

import numpy as np
import pytest

from freecomm.groups import (
    FiniteGroup,
    cyclic_group,
    klein_group,
    load_finite_group,
    quaternion_group,
    symmetric_group,
)

from oracles import is_associative, reduced_latin_squares, table_check_error


def test_cyclic_basics():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.mul(2, 5) == 1
    assert g.inv(2) == 4
    assert g.power(1, -2) == 4
    assert g.exponent() == 6
    assert g.is_abelian()


def test_bad_row_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 0], [1, 1]])


@pytest.mark.parametrize("table, kwargs, field", [
    ([[0, 1], [1, 0.5]], {}, "table entries"),  # no int() truncation to C2
    ([[0, 1], [1, 0]], {"labels": "ab"}, "'labels'"),  # a string is not two labels
    ([[0, 1], [1, 0]], {"labels": ["e", 1]}, "'labels'"),
    ([[0, 1], [1, 0]], {"name": ["q"]}, "'name'"),
], ids=["float-entry", "labels-string", "labels-int", "name-list"])
def test_constructor_rejects_loose_arguments(table, kwargs, field):
    with pytest.raises(ValueError, match=field):
        FiniteGroup(table, **kwargs)


def test_no_identity_rejected():
    # a * b = b - a mod 3: a left identity but no two-sided one
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_nonassociative_loop_rejected():
    # order-5 loop: Latin square with identity and inverses, not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(table)


def test_symmetric3_element_order_is_frozen():
    s3 = symmetric_group(3)
    assert s3.labels == ("e", "(12)", "(13)", "(23)", "(123)", "(132)")
    assert s3.identity == 0
    assert s3.exponent() == 6
    assert not s3.is_abelian()
    # (12)(13) applied right-to-left sends 1 -> 3 -> 3? no: check the table is a group
    assert s3.mul(s3.index_of("(12)"), s3.index_of("(12)")) == 0


def test_symmetric4():
    s4 = symmetric_group(4)
    assert s4.order == 24
    assert s4.exponent() == 12


def test_quaternion_structure():
    q = quaternion_group()
    i, j, k = q.index_of("i"), q.index_of("j"), q.index_of("k")
    minus_one = q.index_of("-1")
    assert q.mul(i, j) == k
    assert q.mul(j, i) == q.index_of("-k")
    assert q.mul(i, i) == minus_one
    assert q.element_order(i) == 4
    assert q.exponent() == 4


def test_quaternion_table_matches_its_matrices():
    # 1, i, j, k as I, diag(i, -i), [[0, 1], [-1, 0]] and their product ij:
    # every entry of the table, and its labels, against matrix products
    i, j = np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
    units = dict(zip("1ijk", (np.eye(2), i, j, i @ j)))
    mats = {**units, **{"-" + u: -m for u, m in units.items()}}
    q = quaternion_group()
    assert list(q.labels) == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    for a in range(8):
        for b in range(8):
            got = mats[q.label(q.mul(a, b))]
            assert np.array_equal(got, mats[q.label(a)] @ mats[q.label(b)]), (a, b)


def test_power_reduces_the_exponent_by_the_order():
    # a^|G| = 1, so an exponent of 10^18 costs what its residue does; a
    # negative exponent is the inverse power; small exponents against
    # repeated products
    for g in (cyclic_group(6), symmetric_group(3), quaternion_group()):
        for a in range(g.order):
            assert g.power(a, 10**18) == g.power(a, 10**18 % g.order)
            assert g.power(a, -(10**18)) == g.inv(g.power(a, 10**18))
            for e in range(-2 * g.order, 2 * g.order + 1):
                want, step = g.identity, a if e >= 0 else g.inv(a)
                for _ in range(abs(e)):
                    want = g.mul(want, step)
                assert g.power(a, e) == want, (g.name, a, e)


def test_klein_group():
    v = klein_group()
    assert v.order == 4
    assert v.exponent() == 2
    assert v.is_abelian()


def test_klein_group_table_and_labels():
    # C2 x C2 with element 2a + b for (g^a, g^b): the product is bitwise XOR
    v = klein_group()
    assert v.name == "Klein4"
    assert list(v.labels) == ["e|e", "e|g", "g|e", "g|g"]
    assert v.table == tuple(tuple(a ^ b for b in range(4)) for a in range(4))


def test_json_roundtrip(tmp_path):
    g = symmetric_group(3)
    path = tmp_path / "sym3.json"
    g.save(path)
    doc = json.loads(path.read_text())
    assert doc["order"] == 6
    assert len(doc["table"]) == 36
    g2 = load_finite_group(path)
    assert g2.table == g.table
    assert g2.labels == g.labels
    assert g2.identity == g.identity


def test_conjugate():
    s3 = symmetric_group(3)
    a = s3.index_of("(12)")
    g = s3.index_of("(13)")
    assert s3.label(s3.conjugate(g, a)) == "(23)"


def test_corrupted_table_fails_column_check():
    g = cyclic_group(100)
    assert g.order == 100  # the valid table passes every exact check
    bad = [list(row) for row in g.table]
    bad[3][4], bad[3][5] = bad[3][5], bad[3][4]
    with pytest.raises(ValueError):
        FiniteGroup(bad)


def test_sampled_associativity_catches_large_loop():
    # order-5 loop (Latin, identity, inverses, non-associative) crossed
    # with C13 gives an order-65 loop; Light's test over a generating set
    # finds the failure at this order as at any other
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    n = 65
    table = [[0] * n for _ in range(n)]
    for a1 in range(5):
        for b1 in range(13):
            for a2 in range(5):
                for b2 in range(13):
                    table[a1 * 13 + b1][a2 * 13 + b2] = loop[a1][a2] * 13 + (b1 + b2) % 13
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(table)


@pytest.mark.parametrize("n, squares, groups", [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 4, 4), (5, 56, 6)])
def test_accepts_exactly_the_associative_latin_squares(n, squares, groups):
    # a reduced Latin square has the two-sided identity 0, so it is a group
    # table exactly when it is associative
    seen = accepted = 0
    for table in reduced_latin_squares(n):
        seen += 1
        try:
            FiniteGroup(table)
        except ValueError:
            assert not is_associative(table), table
        else:
            assert is_associative(table), table
            accepted += 1
    assert (seen, accepted) == (squares, groups)


def _check_error(table):
    try:
        FiniteGroup(table)
    except ValueError as exc:
        return str(exc)
    return None


def _order65_loop():
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    return [[loop[a // 13][b // 13] * 13 + (a + b) % 13 for b in range(65)] for a in range(65)]


def test_array_checks_match_loop_checks():
    # the same ValueError text, naming the same first failing index, as
    # plain loops over rows, columns, identity, inverses and Light's test
    tables = []
    for n in range(1, 6):
        for square in reduced_latin_squares(n):
            tables.append(square)
            # rows reversed: an identity row may be missing
            tables.append(square[::-1])
            # rows and entries relabelled by a cycle: the identity moves
            relabel = [(x + 1) % n for x in range(n)]
            tables.append([[relabel[x] for x in square[relabel.index(a)]] for a in range(n)])
    bad = [list(row) for row in cyclic_group(100).table]
    bad[3][4], bad[3][5] = bad[3][5], bad[3][4]
    tables += [
        bad,
        _order65_loop(),
        [[0, 1, 2], [1, 2], [2, 0, 1]],  # ragged
        [[0, 1, 2], [1, 1, 0], [2, 0]],  # a bad row before a ragged one
        [[0, 1], [1, 2]],  # an entry out of range
        [[0, 1], [1, -1]],
        [[0, 1], [1, 2**70]],  # beyond int64: no integer dtype
        [[0.0, 1.0], [1.0, 0.0]],  # floats, even whole ones, are not entries
        [[0, 1, 2], [1, 2], [0.5, 0, 1]],  # a ragged row before a float
        [[0], [1, 0]],  # a ragged first row: no entry is read
    ]
    kinds = set()
    for table in tables:
        want = table_check_error(table)
        assert _check_error(table) == want, table
        kinds.add(re.sub(r"-?\d+", "#", want) if want else None)
    assert kinds == {
        None,
        "table entries must be integers",
        "table row # has length #, expected #",
        "table row # is not a permutation of #..#",
        "table column # is not a permutation of #..#",
        "table has no two-sided identity",
        "element # has no two-sided inverse",
        "table is not associative at (#, #, #)",
    }
