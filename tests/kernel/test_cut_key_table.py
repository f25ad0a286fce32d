"""The one cut-key table against the chains it replaced.

:func:`repro.kernel.vector.cut_key_table` must reproduce, byte for byte,
what the exact emitter's and the count pass's own chains
(``tests/kernel/reference_keys.py``) built: the lex-sorted kid matrix,
the kid lengths, every cut row's left / right kid and every extra
sequence's kid — over one to four words per cut (edge counts across the
64- and 128-bit boundaries, up to the 254-column limit), keyless cuts,
empty input, and extras that repeat a cut key or outrun every cut key.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.kernel.vector as vector
from repro.kernel.vector import cut_key_table, int_words, unique_rows
from tests.kernel.reference_keys import (
    byte_words,
    count_pass_key_chain,
    emitter_key_chain,
)


@st.composite
def cut_inputs(draw):
    """``(cut_words, E, left_lut, right_lut, extra_seqs)``: up to 40 cut
    bitmasks over ``E`` edges (repeats and keyless cuts included), LUTs
    over a small alphabet so distinct cuts can decode to one key, and
    extras drawn from the decoded keys and from longer sequences."""
    E = draw(st.sampled_from([1, 7, 63, 64, 65, 127, 128, 129, 200, 254]))
    alphabet = draw(st.integers(1, 254))
    symbols = st.integers(1, alphabet)
    left = draw(st.lists(symbols, min_size=E, max_size=E))
    right = draw(st.lists(symbols, min_size=E, max_size=E))
    density = draw(st.sampled_from([1, 4, 16, E]))
    bit = st.integers(0, E - 1)
    masks = draw(
        st.lists(
            st.lists(bit, max_size=density).map(
                lambda bits: sum(1 << b for b in set(bits))
            ),
            max_size=40,
        )
    )
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=10))
    W = max(1, (E + 63) // 64)

    def decode(mask, lut):
        return bytes(lut[b] for b in range(E) if mask >> b & 1)

    keys = [decode(m, lut) for lut in (left, right) for m in masks]
    keys = [key for key in keys if key]
    extras = draw(st.lists(st.sampled_from(keys), max_size=6)) if keys else []
    extras += draw(
        st.lists(
            st.lists(symbols, min_size=1, max_size=E + 3).map(bytes), max_size=6
        )
    )
    return (
        int_words(masks, W),
        E,
        np.array(left, np.uint8),
        np.array(right, np.uint8),
        draw(st.permutations(extras)),
    )


def _assert_same_table(got, want_mat, want_lengths, want_kids):
    kid_mat, kid_lengths, *kids, kid_words = got
    # the words the table was ranked by are the kid rows' own
    assert kid_words.dtype == np.uint64
    assert kid_words.tolist() == byte_words(kid_mat).tolist()
    assert kid_mat.dtype == np.uint8 and kid_mat.flags.c_contiguous
    assert kid_mat.shape == want_mat.shape
    assert kid_mat.tobytes() == want_mat.tobytes()
    assert kid_lengths.dtype == np.int64
    assert kid_lengths.tolist() == want_lengths.tolist()
    for kid in kids:
        assert kid.dtype == np.int64
    for have, want in zip(kids, want_kids, strict=True):
        assert have.tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(cut_inputs())
@example((np.zeros((0, 1), np.uint64), 1, np.ones(1, np.uint8), np.ones(1, np.uint8), []))
@example((np.zeros((0, 2), np.uint64), 65, np.ones(65, np.uint8), np.ones(65, np.uint8), [b"\x02"]))
def test_table_matches_the_count_pass_chain(inputs):
    """Every cut row (keyless ones too) plus the extras, as the count
    pass interned them; the oracle's matrix carries one more, all-zero
    column (its unread headroom)."""
    cut_words, E, left, right, extras = inputs
    want_mat, want_len, want_l, want_r, want_x, width = count_pass_key_chain(
        cut_words, E, left, right, extras
    )
    assert not want_mat[:, -1].any()
    _assert_same_table(
        cut_key_table(cut_words, left, right, extras),
        np.ascontiguousarray(want_mat[:, : width - 1]),
        want_len,
        (want_l, want_r, want_x),
    )


@settings(max_examples=25, deadline=None)
@given(cut_inputs())
def test_table_matches_the_emitter_chain(inputs):
    """Keyed cuts only and no extras, as the exact emitter interned them
    — identical matrix shape too."""
    cut_words, E, left, right, _extras = inputs
    keyed = cut_words[cut_words.any(axis=1)]
    if not len(keyed):
        return
    want_mat, want_len, want_l, want_r = emitter_key_chain(keyed, E, left, right)
    _assert_same_table(
        cut_key_table(keyed, left, right),
        want_mat,
        want_len,
        (want_l, want_r, np.zeros(0, np.int64)),
    )


def test_lengths_are_key_lengths_and_rows_are_sorted():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, size=(50, 2), dtype=np.uint64)
    lut = rng.integers(1, 4, size=128).astype(np.uint8)
    kid_mat, lengths, left, right, extra, _ = cut_key_table(
        words, lut, lut[::-1].copy(), [b"\x01" * 130]
    )
    rows = [row.tobytes() for row in kid_mat]
    assert rows == sorted(set(rows))
    assert [len(r.rstrip(b"\x00")) for r in rows] == lengths.tolist()
    # an extra longer than any 128-bit cut's key sets the width
    assert kid_mat.shape[1] == 130 and lengths[extra[0]] == 130


def test_polls_once_per_block_of_distinct_cuts(monkeypatch):
    """The budget poll keeps the old decode's cadence — once per
    ``CUT_BLOCK`` distinct cuts — and comes once more before the key
    sort."""
    monkeypatch.setattr(vector, "CUT_BLOCK", 3)
    rng = np.random.default_rng(0)
    words = rng.integers(1, 1 << 20, size=(20, 1), dtype=np.uint64)
    words = np.concatenate([words, words[:5]])
    lut = np.arange(1, 65, dtype=np.uint8)
    calls = []
    cut_key_table(words, lut, lut, on_block=lambda: calls.append(1))
    distinct = len(unique_rows(words)[0])
    assert len(calls) == math.ceil(distinct / 3) + 1
    calls.clear()
    empty = np.zeros((0, 1), np.uint64)
    cut_key_table(empty, lut, lut, [b"\x01"], on_block=lambda: calls.append(1))
    assert len(calls) == 1
