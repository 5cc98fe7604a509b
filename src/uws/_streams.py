"""Many named substreams of one seed at once.

``synthetic.substream(seed, *path)`` is ``Generator(Philox(SeedSequence(
entropy=seed, spawn_key=path)))``. Building one costs ~20 us, most of it in
the SeedSequence hash. Here the hash runs once over a ``(k, L)`` array of
paths, as uint32 array arithmetic, giving each row's Philox key. Philox is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11): block j of a stream is Philox4x64-10 of counter j under the
stream's key, so :func:`uniforms` computes every row's doubles as arrays.
Draws whose algorithm is not reimplemented here (permutations, bounded
integers, normals) come from :func:`generators`, one Philox re-keyed per
row. Every draw is bit-identical to the same draw from ``substream``.
"""

import numpy as np

# numpy's SeedSequence constants (bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_M32 = 0xFFFFFFFF
# Philox4x64 multipliers and Weyl key increments (Random123)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _shift16(x):
    return x ^ (x >> np.uint32(16))


def _keys(seed, paths):
    """``SeedSequence(entropy=seed, spawn_key=path).generate_state(2, uint64)`` per row of ``paths``."""
    np.random.SeedSequence(seed)  # raises as substream does on a negative or non-integer seed
    seed = int(seed)
    run = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    paths = np.asarray(paths, dtype=np.int64)
    if paths.ndim != 2 or ((paths < 0) | (paths > _M32)).any():
        raise ValueError("paths must be a (k, L) array of entries in 0..2**32-1")
    if paths.shape[1]:
        run += [0] * (_POOL - len(run))  # numpy pads the run entropy when there is a spawn key
    entropy = [np.full(1, w, np.uint32) for w in run] + list(paths.T.astype(np.uint32))
    entropy += [np.zeros(1, np.uint32)] * (_POOL - len(entropy))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        return _shift16(value * np.uint32(const))

    def mix(x, y):
        return _shift16(_MIX_L * x - _MIX_R * y)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, const = [], _INIT_B
    for word in pool:
        value = word ^ np.uint32(const)
        const = const * _MULT_B & _M32
        state.append(np.broadcast_to(_shift16(value * np.uint32(const)), (len(paths),)).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=1)


def _mulhilo(a, b):
    """(high, low) 64-bit words of the 128-bit products ``a * b``, from 32-bit halves."""
    lo32 = np.uint64(_M32)
    a_lo, a_hi, b_lo, b_hi = a & lo32, a >> np.uint64(32), b & lo32, b >> np.uint64(32)
    mid = a_hi * b_lo + (a_lo * b_lo >> np.uint64(32))
    carry = (mid & lo32) + a_lo * b_hi
    return a_hi * b_hi + (mid >> np.uint64(32)) + (carry >> np.uint64(32)), a * b


def uniforms(seed, paths, count):
    """``(k, count)`` doubles; row r equals ``substream(seed, *paths[r]).random(count)``."""
    key = _keys(seed, paths)
    k0, k1 = key[:, :1], key[:, 1:]
    zero = np.zeros((len(key), 1), np.uint64)
    # a fresh Philox bumps its counter before the first block: blocks 1..ceil(count/4)
    blocks = -(-count // 4)
    x = [np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (len(key), blocks)), zero, zero, zero]
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x[2])
        x = [hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0]
    words = np.stack(x, axis=2).reshape(len(key), -1)[:, :count]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def generators(seed, paths):
    """One Generator per row of ``paths``, each as ``substream(seed, *row)`` starts.

    The same Generator object is re-keyed and yielded for every row: draw
    from it before advancing the iterator.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh Philox's: counter 0, empty buffer
    for key in _keys(seed, paths):
        state["state"]["key"] = key
        bitgen.state = state
        yield rng
