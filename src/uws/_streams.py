"""Many named substreams of one seed at once.

``synthetic.substream(seed, *path)`` is ``Generator(Philox(SeedSequence(
entropy=seed, spawn_key=path)))``. Building one costs ~20 us, most of it in
the SeedSequence hash. Here the hash of the seed's words runs once, on
Python ints, and the hash of a ``(k, L)`` array of paths runs as uint32
array arithmetic, giving each row's Philox key. Philox is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11): block j of a stream is Philox4x64-10 of counter j under the
stream's key, so :func:`uniforms` computes every row's doubles as arrays.
A block's four state words start as its counter and three zero words, so
the first two of the ten rounds need less than full arrays: round 0
multiplies the counter (one value per block) and a zero word, and round 1's
first product is of the key alone (one value per row).
Draws whose algorithm is not reimplemented here (permutations, bounded
integers, normals) come from :func:`generators`, one Philox re-keyed per
row: each re-key sets only the row's key in one fresh Philox state held
as plain Python ints, which numpy's state setter reads faster than the
entries of the arrays ``Philox.state`` returns. Every draw is
bit-identical to the same draw from ``substream``.
"""

import numpy as np

from .errors import InvalidArgumentError

# numpy's SeedSequence constants (bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF
# Philox4x64 multipliers and Weyl key increments (Random123)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def check_seed(seed):
    """Refuse a seed that is not a non-negative integer: a SeedSequence takes no other."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")


def _consts(init, mult, count):
    """The first ``count + 1`` values of a SeedSequence hash constant: ``init * mult**i`` mod 2**32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


def _hashmix(value, const, next_const):
    """SeedSequence's hashmix of ``value`` under one constant and its successor.

    Python ints, or uint32 arrays with the constants as uint32 arrays that broadcast.
    """
    value = (value ^ const) * next_const & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _keys(seed, paths):
    """``SeedSequence(entropy=seed, spawn_key=path).generate_state(2, uint64)`` per row of ``paths``.

    The seed words are the same for every row, so their part of the hash runs
    once on Python ints. Each path column then mixes into all four pool words
    in one (4, k) pass of uint32 arrays, under its four hash constants.
    """
    np.random.SeedSequence(seed)  # raises as substream does on a negative or non-integer seed
    seed = int(seed)
    paths = np.asarray(paths, dtype=np.int64)
    if paths.ndim != 2 or ((paths < 0) | (paths > _M32)).any():
        raise ValueError("paths must be a (k, L) array of entries in 0..2**32-1")
    # zero words fill the pool: numpy pads the seed's words when there is a spawn key, and
    # hashes zeros into the rest of the pool when there is none
    run = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (_POOL - len(run))
    # four hashmix calls per seed word (to fill the pool, then to mix it, then to add a fifth
    # word on), and four per path column, each under one constant and its successor
    const = _consts(_INIT_A, _MULT_A, _POOL * (len(run) + paths.shape[1]))
    steps = zip(const, const[1:])
    pool = [_hashmix(w, *next(steps)) for w in run[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in run[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(steps)))
    pool = np.array(pool, dtype=np.uint32)[:, None]
    rest = np.array(const[_POOL * len(run):], dtype=np.uint32)[:, None]
    for j, column in enumerate(paths.T.astype(np.uint32)):
        c = rest[_POOL * j : _POOL * (j + 1) + 1]  # one constant per pool word, and the last one's successor
        pool = _mix(pool, _hashmix(column, c[:-1], c[1:]))
    # generate_state: each pool word hashed once more, under the second constant's sequence
    final = np.array(_consts(_INIT_B, _MULT_B, _POOL), dtype=np.uint32)[:, None]
    state = _hashmix(pool, final[:-1], final[1:]).astype(np.uint64)
    key = state[0::2] | state[1::2] << np.uint64(32)
    return np.ascontiguousarray(np.broadcast_to(key.T, (len(paths), 2)))


def _mulhi(mult, b, out, t1, t2, t3):
    """Write into ``out`` the high 64-bit words of the 128-bit products ``mult * b``.

    ``mult`` is a uint64 constant; the products are formed from 32-bit
    halves, through the scratch buffers ``t1``-``t3`` of ``b``'s shape.
    """
    lo32, s32 = np.uint64(_M32), np.uint64(32)
    m_lo, m_hi = mult & lo32, mult >> s32
    np.bitwise_and(b, lo32, out=t1)
    np.right_shift(b, s32, out=t2)
    np.multiply(t1, m_lo, out=t3)
    t3 >>= s32
    t1 *= m_hi
    t1 += t3  # mid
    np.bitwise_and(t1, lo32, out=t3)
    np.multiply(t2, m_lo, out=out)
    out += t3  # carry
    out >>= s32
    t1 >>= s32
    out += t1
    t2 *= m_hi
    out += t2


def _mulhilo(mult, b):
    """(high, low) 64-bit words of the 128-bit products ``mult * b``, as new arrays."""
    hi, t1, t2, t3 = (np.empty(b.shape, np.uint64) for _ in range(4))
    _mulhi(mult, b, hi, t1, t2, t3)
    return hi, mult * b


def uniforms(seed, paths, count):
    """``(k, count)`` doubles; row r equals ``substream(seed, *paths[r]).random(count)``.

    The array is the transpose of a C-contiguous ``(count, k)`` buffer: draw
    c of every row is one contiguous run, so an item-major reader such as
    the Mallows insertion kernel gets it without a copy. The state words
    are ``(blocks, k)`` arrays. Philox's first two rounds run on less: in
    round 0 one product is of the block counter, one value per block, and
    the other of a zero word; in round 1 the first product is of the row's
    key, one value per row. These are ``(blocks, 1)`` and ``(1, k)`` arrays
    that broadcast into the full ones; rounds 2-9 run in place over a fixed
    set of ``(blocks, k)`` buffers.
    """
    key = _keys(seed, paths)
    k0, k1 = key[:, 0], key[:, 1]
    # a fresh Philox bumps its counter before the first block: blocks 1..ceil(count/4)
    blocks = -(-count // 4)
    ctr = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    # round 0 on the counter alone: the product of the zero word x2 is 0
    hi0, x3 = _mulhilo(_PHILOX_M[0], ctr)
    x0, x2 = k0[None], hi0 ^ k1
    # round 1: x0 is the key alone, and x1 is still 0
    k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
    hi1, x1 = _mulhilo(_PHILOX_M[1], x2)
    x0, x2, x3 = hi1 ^ k0, hi0 ^ x3 ^ k1, np.broadcast_to(lo0, x2.shape).copy()
    # rounds 2-9 in place: the new x0 and x2 fill two spare buffers, whose places the old ones take
    hi0, hi1, t1, t2, t3 = (np.empty_like(x2) for _ in range(5))
    for _ in range(2, 10):
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        _mulhi(_PHILOX_M[0], x0, hi0, t1, t2, t3)
        _mulhi(_PHILOX_M[1], x2, hi1, t1, t2, t3)
        hi1 ^= x1
        hi1 ^= k0
        hi0 ^= x3
        hi0 ^= k1
        np.multiply(x2, _PHILOX_M[1], out=x1)
        np.multiply(x0, _PHILOX_M[0], out=x3)
        x0, hi1 = hi1, x0
        x2, hi0 = hi0, x2
    out = np.empty((count, len(key)))
    for i, x in enumerate((x0, x1, x2, x3)):
        rows = out[i::4]  # word i of every block: draws i, i + 4, ...
        x >>= np.uint64(11)
        np.multiply(x[:len(rows)], 1.0 / 9007199254740992.0, out=rows)
    return out.T


def generators(seed, paths):
    """One Generator per row of ``paths``, each as ``substream(seed, *row)`` starts.

    The same Generator object is re-keyed and yielded for every row: draw
    from it before advancing the iterator.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # a fresh Philox's state (counter 0, empty buffer) in plain ints, which the setter reads faster
    # than the numpy arrays of bitgen.state
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in _keys(seed, paths):
        state["state"]["key"] = key
        bitgen.state = state
        yield rng
