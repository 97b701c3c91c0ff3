"""Counter-addressed randomness for backward-window sampling.

The perfect sampler examines windows of past time [-B_k, -B_{k-1}) and must
hand the step at absolute time t the same draws every time that step is
revisited, no matter which window or replay touches it.  Philox makes this
cheap: it is counter-based, so jumping to an offset costs nothing.

Layout: the step at absolute time t < 0 owns the 8-word block with index
block = -t - 1 (block 0 is the step ending at time 0).  Each Philox counter
increment yields 4 of the generator's 64-bit words and Generator.random()
consumes exactly one word per double, so positioning at a block is
advance(2 * block) and the block's doubles are then read in order.  Word 0
drives the coordinate-pair choice, word 1 the shared or driver fraction,
word 2 the thinning coin; the remaining five words are reserved.  Word u
picks pair number min(c - 1, floor(u * c)) of the c = n(n-1)/2 pairs in
row-major order (1, 2), (1, 3), ..., (n-1, n); see ``_pairs_from_words``.
``_draws_backward_batch`` reads and decodes a window's blocks in time order,
in bounded chunks, for one replica or several at once.

A second keyed stream supplies the one remainder uniform a failed coupling
attempt may need at a given block.  It is derived from the block index, not
drawn inline, so consuming it (or not) never shifts any other draw.
"""

from __future__ import annotations

import numpy as np

from .chain import _pairs_at

WORDS_PER_STEP = 8
_ADVANCE_PER_BLOCK = WORDS_PER_STEP // 4  # Philox yields 4 words per counter tick

# blocks read and decoded at a time when a window is walked backward
_CHUNK_BLOCKS = 1 << 12

# fixed stream tags keep the main and auxiliary keys disjoint
MAIN_TAG = 101
AUX_TAG = 202


def _keyed_philox(seeds: list[int]) -> np.random.Generator:
    key = np.random.SeedSequence(seeds).generate_state(2, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generator_at_block(master: int, replica: int, block: int) -> np.random.Generator:
    """Main-stream generator positioned at the start of a block."""
    if block < 0:
        raise ValueError("block must be nonnegative")
    g = _keyed_philox([master, replica, MAIN_TAG])
    g.bit_generator.advance(_ADVANCE_PER_BLOCK * block)
    return g


def read_blocks(master: int, replica: int, lo: int, hi: int) -> np.ndarray:
    """Doubles for blocks lo..hi-1 as an array of shape (hi - lo, 8).

    Row r holds block lo + r.  Callers stepping forward in time iterate the
    rows in reverse, since later blocks sit deeper in the past.
    """
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    if hi == lo:
        return np.empty((0, WORDS_PER_STEP))
    g = generator_at_block(master, replica, lo)
    return g.random((hi - lo) * WORDS_PER_STEP).reshape(hi - lo, WORDS_PER_STEP)


def _draws_backward_batch(master: int, replicas, lo: int, hi: int, n: int):
    """Yield the decoded draws of blocks hi-1 down to lo, one chunk at a time.

    Each chunk of at most ``_CHUNK_BLOCKS`` blocks reads the replicas'
    blocks with ``read_blocks`` one replica at a time, keeps only the three
    words a walk uses and decodes them once, as (R, L) arrays: row r
    belongs to replicas[r], and columns run in time order.  Yields
    (i, j, lams, coins): the pairs (word 0, 1-based int64, decoded by
    ``_pairs_from_words``), the fractions (word 1) and the coins (word 2).
    """
    while hi > lo:
        bottom = max(lo, hi - _CHUNK_BLOCKS)
        words = np.empty((3, len(replicas), hi - bottom))
        for r, replica in enumerate(replicas):
            words[:, r] = read_blocks(master, replica, bottom, hi)[::-1, :3].T
        i, j = _pairs_from_words(words[0], n)
        yield i, j, words[1], words[2]
        hi = bottom


def aux_uniform(master: int, replica: int, block: int) -> float:
    """The remainder uniform owned by one block, derived on demand."""
    return float(_keyed_philox([master, replica, AUX_TAG, block]).random())


def _pairs_from_words(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map uniform doubles u in [0, 1) to 1-based coordinate pairs.

    With c = n(n-1)/2 each word picks pair number min(c - 1, floor(u * c))
    in row-major order (1, 2), (1, 3), ..., (1, n), (2, 3), ..., (n-1, n).
    Returns (i, j) as int64 arrays of u's shape.
    """
    c = n * (n - 1) // 2
    return _pairs_at(n, np.minimum(c - 1, (u * c).astype(np.int64)))
