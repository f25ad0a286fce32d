"""Unit tests for the shared vector-kernel primitives.

Each vectorized primitive is checked against a brute-force reference on
seeded random inputs — the same exactness argument the columnar memo and
the best-plan DP rely on: no hashing shortcuts survive unverified, and
every lexicographic trick must agree with plain Python byte comparison.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernel.vector import (
    int_words,
    prefix_intervals,
    range_min_pairs,
    sorted_unique,
    union_words_by_mask,
    unique_rows,
)

# the key-table oracle's own pieces: the per-chunk decode and the
# byte-row lexsorts the exact emitter, the count pass and the best-plan
# DP's overflow ranking each ran, and the DP's selective interval ends
from tests.kernel.reference_keys import (
    byte_prefix_intervals,
    byte_words,
    decode_bit_rows,
    lex_rank_rows,
    lex_unique_rows,
    prefix_interval_ends,
)


def _random_padded_rows(rng, n, width, alphabet=4):
    """0-padded rows: random prefix of 1..width bytes from a small
    alphabet (small so duplicates and shared prefixes are common)."""
    mat = np.zeros((n, width), np.uint8)
    lengths = rng.integers(1, width + 1, size=n)
    for i in range(n):
        mat[i, : lengths[i]] = rng.integers(1, 1 + alphabet, size=lengths[i])
    return mat, lengths.astype(np.int64)


class TestLexPrimitives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_words_order_equals_bytes_order(self, seed):
        rng = np.random.default_rng(seed)
        mat, _ = _random_padded_rows(rng, 200, 11)
        words = byte_words(mat)
        by_words = sorted(range(len(mat)), key=lambda i: tuple(words[i]))
        by_bytes = sorted(range(len(mat)), key=lambda i: mat[i].tobytes())
        assert [mat[i].tobytes() for i in by_words] == [
            mat[i].tobytes() for i in by_bytes
        ]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_lex_rank_rows_matches_sorted_bytes(self, seed):
        rng = np.random.default_rng(seed)
        mat, _ = _random_padded_rows(rng, 300, 9)
        order, rank = lex_rank_rows(mat)
        rows = [mat[i].tobytes() for i in range(len(mat))]
        assert [rows[i] for i in order] == sorted(rows)
        assert (rank[order] == np.arange(len(mat))).all()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_lex_unique_rows_matches_intern_plus_rank(self, seed):
        """The single-lexsort dedup+rank is the fused form of interning
        to distinct rows and ranking those — same distinct set, same
        per-row rank."""
        rng = np.random.default_rng(seed)
        mat, _ = _random_padded_rows(rng, 400, 10)
        distinct, rank = lex_unique_rows(mat)

        ref_rows = sorted({mat[i].tobytes() for i in range(len(mat))})
        assert [r.tobytes() for r in distinct] == ref_rows
        for i in range(len(mat)):
            assert distinct[rank[i]].tobytes() == mat[i].tobytes()

        first_seen: dict[bytes, int] = {}
        ids = [first_seen.setdefault(row.tobytes(), i) for i, row in enumerate(mat)]
        rep = np.array(sorted(set(ids)))
        _order, iref_rank = lex_rank_rows(mat[rep])
        assert (iref_rank[np.searchsorted(rep, ids)] == rank).all()

    def test_lex_unique_rows_empty(self):
        mat = np.zeros((0, 4), np.uint8)
        distinct, rank = lex_unique_rows(mat)
        assert len(distinct) == 0 and len(rank) == 0

    def test_unique_rows_exact_on_duplicates(self):
        """Sort-based interning of word rows: every row maps to a
        representative equal to it, and distinct rows to distinct ids —
        one-word rows and rows that share a leading word alike."""
        rng = np.random.default_rng(7)
        base, _ = _random_padded_rows(rng, 50, 8)
        multi = rng.integers(0, 1 << 63, size=(40, 3), dtype=np.uint64)
        multi[2, 0] = multi[0, 0]  # shares a leading word, differs later
        for words in (byte_words(base), multi):
            dup = words[rng.integers(0, len(words), size=500)]
            first, rank = unique_rows(dup)
            assert (dup[first][rank] == dup).all()
            assert len(first) == len({row.tobytes() for row in dup})
        first, rank = unique_rows(np.zeros((0, 2), np.uint64))
        assert len(first) == len(rank) == 0


def _ref_prefix_intervals(mat, lengths):
    """Brute force: hi_rank[k] = first rank whose row does not extend
    row k's prefix."""
    K = len(mat)
    rows = [mat[i].tobytes() for i in range(K)]
    out = []
    for k in range(K):
        prefix = rows[k][: lengths[k]]
        hi = K
        for j in range(k + 1, K):
            if not rows[j].startswith(prefix):
                hi = j
                break
        out.append(hi)
    return np.asarray(out, np.int64)


class TestPrefixIntervals:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 13, 25])
    def test_full_sweep_matches_reference(self, seed, width):
        """The word sweep against the brute force, the byte sweep and the
        selective ends: word compares across word boundaries, empty rows
        (every row extends them) and duplicates (each extends the other)
        included."""
        rng = np.random.default_rng(seed)
        mat, lengths = _random_padded_rows(rng, 150, width, alphabet=3)
        empty = rng.integers(0, len(mat), size=3)
        mat[empty] = 0
        lengths[empty] = 0
        order, _ = lex_rank_rows(mat)
        smat, slen = mat[order], lengths[order]
        got = prefix_intervals(byte_words(smat), slen)
        assert (got == _ref_prefix_intervals(smat, slen)).all()
        assert (got == byte_prefix_intervals(smat, slen, width)).all()
        every = np.arange(len(smat), dtype=np.int64)
        assert (got == prefix_interval_ends(smat, slen, width, every)).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("width", [3, 8, 13])
    def test_selective_ends_match_full_sweep(self, seed, width):
        """prefix_interval_ends(ranks) — the masked word compare the DP
        once used for its required ranks — must equal
        prefix_intervals()[ranks] for any rank multiset: a second
        derivation of the one interval sweep."""
        rng = np.random.default_rng(seed)
        mat, lengths = _random_padded_rows(rng, 200, width, alphabet=3)
        order, _ = lex_rank_rows(mat)
        smat, slen = mat[order], lengths[order]
        full = prefix_intervals(byte_words(smat), slen)
        ranks = rng.integers(0, len(smat), size=70).astype(np.int64)
        got = prefix_interval_ends(smat, slen, width, ranks)
        assert (got == full[ranks]).all()

    def test_word_sweep_on_clique10s_kid_table(self):
        """The exact store's ``kid_hi`` on a 10-relation clique (about
        80,000 kids of width 25) equals both oracles over its table."""
        from repro.api import Session
        from repro.workloads.synthetic import clique_query

        workload = clique_query(10, rows=5, seed=0)
        result = Session(workload.database).optimize(workload.sql)
        store = result.memo.columnar
        matrix, lengths, overflow = store._keys.table()
        assert not overflow and len(lengths) > 50_000
        width = matrix.shape[1]
        every = np.arange(len(lengths), dtype=np.int64)
        want = prefix_interval_ends(matrix, lengths, width, every)
        assert (store.kid_hi == want).all()
        assert (store.kid_hi == byte_prefix_intervals(matrix, lengths, width)).all()

    def test_selective_ends_empty_ranks(self):
        mat = np.zeros((5, 4), np.uint8)
        mat[:, 0] = np.arange(1, 6)
        got = prefix_interval_ends(mat, np.ones(5, np.int64), 4, np.zeros(0, np.int64)
        )
        assert len(got) == 0


class TestDecodeBitRows:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("nbits", [1, 7, 24])
    def test_matches_bit_walk(self, seed, nbits):
        rng = np.random.default_rng(seed)
        n = 300
        masks = rng.integers(0, 1 << nbits, size=n, dtype=np.uint64)
        masks[rng.integers(0, n, size=5)] = 0  # include empty rows
        bit_rows = masks.reshape(-1, 1)
        left_lut = rng.integers(1, 200, size=nbits).astype(np.uint8)
        right_lut = rng.integers(1, 200, size=nbits).astype(np.uint8)
        lefts, rights, _maxlens = decode_bit_rows(bit_rows, nbits, left_lut, right_lut, chunk_size=64
        )
        li = 0
        for chunk_l, chunk_r in zip(lefts, rights):
            for row_l, row_r in zip(chunk_l, chunk_r):
                mask = int(masks[li])
                want_l = bytes(
                    int(left_lut[p]) for p in range(nbits) if mask >> p & 1
                )
                want_r = bytes(
                    int(right_lut[p]) for p in range(nbits) if mask >> p & 1
                )
                assert row_l.tobytes().rstrip(b"\x00") == want_l
                assert row_r.tobytes().rstrip(b"\x00") == want_r
                li += 1
        assert li == n

    def test_on_chunk_called_per_chunk(self):
        calls = []
        bit_rows = np.ones((10, 1), np.uint64)
        lut = np.ones(1, np.uint8)
        decode_bit_rows(bit_rows, 1, lut, lut, chunk_size=3,
            on_chunk=lambda: calls.append(1),
        )
        assert len(calls) == 4


class TestSegmentedPrimitives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_range_min_pairs_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(500)
        lo = rng.integers(0, 500, size=80).astype(np.int64)
        span = rng.integers(0, 30, size=80)
        hi = np.minimum(lo + span, 500).astype(np.int64)
        got = range_min_pairs(values, lo, hi)
        for k in range(80):
            want = (
                values[lo[k] : hi[k]].min() if lo[k] < hi[k] else float("inf")
            )
            assert got[k] == want

    def test_range_min_pairs_all_empty(self):
        got = range_min_pairs(np.array([1.0, 2.0]),
            np.array([1, 2], np.int64),
            np.array([1, 2], np.int64),
        )
        assert np.isinf(got).all()

    def test_int_words_splits_bits_into_words(self):
        values = [0, 1, (1 << 64) | 5, (1 << 127) | (1 << 63)]
        got = int_words(values, 2)
        assert got.dtype == np.uint64 and got.shape == (4, 2)
        for row, value in zip(got, values):
            assert int(row[0]) | int(row[1]) << 64 == value

    @pytest.mark.parametrize("seed", [0, 2])
    def test_union_words_by_mask_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        nbits, W = 10, 2
        bit_words = rng.integers(
            0, 1 << 63, size=(nbits, W), dtype=np.uint64
        )
        masks = rng.integers(0, 1 << nbits, size=40, dtype=np.int64)
        got = union_words_by_mask(bit_words, masks, nbits)
        for i, mask in enumerate(masks):
            want = np.zeros(W, np.uint64)
            for b in range(nbits):
                if int(mask) >> b & 1:
                    want |= bit_words[b]
            assert (got[i] == want).all()


_INT64 = np.iinfo(np.int64)


class TestSortedUnique:
    """The registries' sort + neighbour-mask primitive is ``np.unique``:
    same values, same order, same dtype — whatever route numpy's own
    bare call takes on this version."""

    @given(
        st.lists(
            st.one_of(
                st.integers(_INT64.min, _INT64.max),
                st.integers(-3, 3),  # small range: long runs of duplicates
                st.sampled_from([_INT64.min, _INT64.max]),
            ),
            max_size=200,
        )
    )
    @example([])
    @example([7])
    @example([4] * 50)
    @example([_INT64.max, _INT64.min, _INT64.max, 0, _INT64.min])
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_unique(self, values):
        array = np.array(values, np.int64)
        before = array.copy()
        got = sorted_unique(array)
        want = np.unique(array)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert (array == before).all()  # the input is not sorted in place

    def test_packed_registry_keys(self):
        """The shape of the real input: mask-major packed ``(mask, kid)``
        keys, every one registered several times."""
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1 << 10, 52_000) * 4099 + rng.integers(0, 40, 52_000)
        assert (sorted_unique(keys) == np.unique(keys)).all()
