import pickle

import pytest

import oracles
from fmzv.indices import (
    Index,
    iter_admissible_indices,
    iter_all_indices,
    iter_indices_of_weight,
)


def parts(indices):
    return [tuple(ix) for ix in indices]


def test_index_validation():
    with pytest.raises(ValueError):
        Index((0,))
    with pytest.raises(ValueError):
        Index((2, -1))
    assert Index(()).weight == 0


def test_stats_examples():
    for ix, want in ((Index.of(2, 1), (3, 2, 1)), (Index.of(2, 2), (4, 2, 2)),
                     (Index(()), (0, 0, 0))):
        assert (ix.weight, ix.depth, ix.height) == want


def test_reverse_examples():
    assert tuple(Index.of(2, 1).reverse()) == (1, 2)
    assert tuple(Index.of(3).reverse()) == (3,)
    for ix in iter_indices_of_weight(8):
        assert ix.reverse().reverse() == ix


def test_admissible_examples():
    assert parts(iter_admissible_indices(2, 1)) == [(2,)]
    assert parts(iter_admissible_indices(4, 1)) == [(2, 1, 1), (3, 1), (4,)]
    assert list(iter_admissible_indices(3, 2)) == []
    with pytest.raises(ValueError):
        list(iter_admissible_indices(0, 1))
    with pytest.raises(ValueError):
        list(iter_admissible_indices(3, 0))


def test_all_indices_examples():
    assert parts(iter_all_indices(2, 1)) == [(2,)]
    assert set(parts(iter_all_indices(3, 1))) == {(3,), (2, 1), (1, 2)}
    assert parts(iter_all_indices(3, 0)) == [(1, 1, 1)]
    assert parts(iter_all_indices(0, 0)) == [()]
    assert list(iter_all_indices(0, 1)) == []
    assert list(iter_all_indices(1, 1)) == []


def test_enumeration_matches_bitmask_oracle():
    for k in range(1, 11):
        for s in range(0, k // 2 + 1):
            want_all = sorted(oracles.compositions_filtered(k, s, first_min=1))
            got_all = parts(iter_all_indices(k, s))
            assert got_all == want_all, (k, s)
            if s >= 1:
                want_adm = sorted(oracles.compositions_filtered(k, s, first_min=2))
                got_adm = parts(iter_admissible_indices(k, s))
                assert got_adm == want_adm, (k, s)


def test_admissible_count_is_binomial():
    for k in range(2, 15):
        total = 0
        for s in range(1, k // 2 + 1):
            got = len(list(iter_admissible_indices(k, s)))
            assert got == oracles._choose(k - 1, 2 * s - 1), (k, s)
            total += got
        # union over s = all admissible compositions of k
        assert total == len(oracles.compositions_filtered(k, s=None, first_min=2))


def test_admissible_membership_properties():
    for k in range(2, 11):
        for s in range(1, k // 2 + 1):
            fam = list(iter_admissible_indices(k, s))
            assert len(set(fam)) == len(fam)
            for ix in fam:
                assert ix[0] >= 2
                assert ix.weight == k and ix.height == s
            allfam = list(iter_all_indices(k, s))
            assert set(fam) <= set(allfam)
            diff = set(allfam) - set(fam)
            assert all(ix[0] == 1 for ix in diff)


def test_lex_order_is_deterministic():
    for k in range(2, 11):
        for s in range(0, k // 2 + 1):
            got = parts(iter_all_indices(k, s))
            assert got == sorted(got)


def test_parse_and_str_roundtrip():
    assert Index.parse("2,1") == Index.of(2, 1)
    assert Index.parse("") == Index(())
    assert str(Index.of(10, 1, 2)) == "10,1,2"
    assert Index.parse(str(Index.of(4, 4))) == Index.of(4, 4)
    for bad in ("2,,1", "a", "2, 1", "0", "-3", "1.5"):
        with pytest.raises(ValueError):
            Index.parse(bad)


def test_index_value_contract():
    # an Index is an immutable value: equal parts compare and hash equal,
    # it refuses attribute writes, survives pickling, and reprs its parts
    ix = Index.of(2, 1)
    assert ix == Index((2, 1)) == Index(parts=(2, 1)) == pickle.loads(pickle.dumps(ix))
    assert hash(ix) == hash(Index.parse("2,1"))
    assert len({ix, Index((2, 1)), Index.of(1, 2)}) == 2
    assert ix != (2, 1) and ix != Index.of(1, 2)
    assert Index() == Index(()) and Index().parts == ()
    for mutate in (lambda: setattr(ix, "parts", (3,)), lambda: delattr(ix, "parts")):
        with pytest.raises(AttributeError):
            mutate()
    assert ix.parts == (2, 1)
    assert repr(ix) == "Index(2,1)" and repr(Index(())) == "Index()"
