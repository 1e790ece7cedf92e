"""Deterministic random-stream management.

Every stochastic component of the simulator (each drive's layout draw, each
background-workload generator, the LT graph construction, the access
scheduler's disk selection, ...) draws from its own named child stream of a
single root seed.  Runs are exactly reproducible and adding a new component
never perturbs the draws of existing ones.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _fnv32(data: bytes, h: int = 2166136261) -> int:
    """FNV-1a fold of ``data`` into 32 bits (process-independent)."""
    for byte in data:
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h


#: Process-wide memo of string -> FNV-1a fold (see :meth:`RngHub._words`).
_STR_ENTROPY: dict[str, int] = {}


def _fold_parts(parts, h: int) -> int:
    """Fold ``parts`` (stable_seed's accepted types) into one 32-bit word."""
    for part in parts:
        if isinstance(part, bool):
            data = b"\x01" if part else b"\x00"
        elif isinstance(part, (int, np.integer)):
            data = (int(part) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        elif isinstance(part, float):
            data = struct.pack("<d", part)
        else:
            data = str(part).encode()
        # Separate parts so ("ab",) and ("a", "b") fold differently.
        h = _fnv32(data, _fnv32(b"\x1f", h))
    return h


def stable_seed(*parts) -> int:
    """Fold ``parts`` into a stable 32-bit RNG seed.

    Unlike builtin ``hash`` — whose value for strings is salted per
    process by ``PYTHONHASHSEED`` and whose value for numbers depends on
    the platform word size — the result here depends only on ``parts``:
    the same key always produces the same seed, in every process, on
    every platform.  Use this (or an :class:`RngHub` stream) whenever a
    component needs to derive a seed from identifying data.
    """
    return _fold_parts(parts, 2166136261)


#: FNV-1a's prime and the 32-bit mask, as uint64 scalars for the column fold.
_FNV_PRIME = np.uint64(16777619)
_FNV_MASK = np.uint64(0xFFFFFFFF)


def fnv32_many(data, h: int = 2166136261) -> np.ndarray:
    """``[_fnv32(d, h) for d in data]`` as a uint32 array, in one pass.

    The byte strings are the rows of a zero-padded uint8 matrix; the fold
    runs column by column in uint64 arithmetic masked to 32 bits, and a
    row's state stops changing past its own length.
    """
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    width = int(lengths.max()) if len(data) else 0
    matrix = np.zeros((len(data), width), dtype=np.uint8)
    matrix[np.arange(width) < lengths[:, None]] = np.frombuffer(
        b"".join(data), dtype=np.uint8
    )
    columns = matrix.T.astype(np.uint64)
    state = np.full(len(data), h, dtype=np.uint64)
    for col in range(width):
        folded = (state ^ columns[col]) * _FNV_PRIME & _FNV_MASK
        state = np.where(lengths > col, folded, state)
    return state.astype(np.uint32)


def stable_seeds(*parts) -> np.ndarray:
    """``[stable_seed(*parts[:-1], x) for x in parts[-1]]`` as a uint32 array.

    The last part is a column of all ints (each folded as the 8-byte
    little-endian of its 64-bit mask) or all strs (UTF-8).  The prefix
    is folded once; the column goes through :func:`fnv32_many`.
    """
    *prefix, column = parts
    if all(isinstance(x, str) for x in column):
        data = [x.encode() for x in column]
    elif all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in column
    ):
        data = [(int(x) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little") for x in column]
    else:
        raise TypeError("a stable_seeds column holds only ints or only strs")
    return fnv32_many(data, _fnv32(b"\x1f", _fold_parts(prefix, 2166136261)))


#: Lane bases for :func:`stable_digest` — four distinct FNV offsets so the
#: lanes are independent folds of the same part stream.
_DIGEST_LANES = (2166136261, 0x01000193, 0x9E3779B9, 0xDEADBEEF)


def stable_digest(*parts) -> str:
    """Fold ``parts`` into a stable 128-bit hex digest.

    The content-addressing big sibling of :func:`stable_seed`: four
    differently-based FNV-1a lanes over the same part encoding, rendered
    as 32 hex characters.  Like ``stable_seed`` the value depends only on
    ``parts`` — never on the process, platform or hash salt — so it is
    safe to use as an on-disk cache key (:mod:`repro.exec` keys its
    result store with it).
    """
    return "".join(f"{_fold_parts(parts, base):08x}" for base in _DIGEST_LANES)


#: Declared stream universe: every ``hub.stream(...)`` / ``hub.fresh(...)``
#: / ``hub.fresh_batch(...)`` call site in the ``repro`` package must use
#: one of these names as a string literal, with a key of the declared total
#: arity (name included; ``fresh_batch``'s id vector counts as the last
#: part) — enforced whole-program by lint rule SIM011.  A typo'd name or a
#: drifted key shape would silently fork the RNG tree and perturb every
#: later draw; declaring the shape here makes that a lint error instead.
#:
#: Values are the allowed key arity — an int, or a tuple of ints where
#: one name is legitimately used at two granularities (``"env"`` is
#: drawn per-trial in serving/extension cells and per-(scheme, trial) in
#: the harness; renaming either would change every committed golden).
STREAMS = {
    "env": (2, 3),        #: disk-state redraw; (…, trial) / (…, scheme, trial)
    "env2": 3,            #: write-phase second redraw (harness)
    "faults": 3,          #: MTTF/MTTR fault-storm draws (harness)
    "select": 3,          #: scheme disk selection (core.base)
    "svc": (3, 5),        #: per-disk service draws (serve replay / core.base)
    "refsvc": 4,          #: event-engine per-disk service draws (core.base)
    "bgphase": 5,         #: background-stream initial phase draws (core.base)
    "cal-env": 3,         #: serving calibration environments
    "repair-extend": 3,   #: repair-time redundancy extension draws
    "rebuild": 2,         #: repair-economy storm sampling (ext_repair)
    "serve": 2,           #: workload generation + service facade
    "disk": 2,            #: per-disk layout draws (doctest/tests convention)
    "bg": 3,              #: background-workload generators
}


# -- SeedSequence's hash-mix, for RngHub.fresh_batch ----------------------------
# numpy publishes SeedSequence's algorithm (numpy/random/bit_generator.pyx):
# entropy words are hash-mixed into a 4-word pool, and PCG64 seeds from
# ``generate_state(4, np.uint64)`` over that pool.  ``_fold`` replays the
# mixing on Python ints, masking every product to 32 bits;
# ``_pcg64_seeds`` replays the last word's mixing and ``generate_state``
# on uint32 arrays, whose products wrap to the same 32 bits.
# tests/test_rng_batch.py pins both against SeedSequence.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """One ``hashmix`` step; returns ``(mixed value, next hash constant)``."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: int, y: int) -> int:
    """``mix``: fold hashed word ``y`` into pool word ``x``."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> _XSHIFT)


def _fold(words: list[int]) -> tuple[list[int], int]:
    """``mix_entropy`` over ``words`` (at least a pool's worth).

    Returns the pool and the hash constant the next word would use.
    """
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for extra in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(extra, hash_const)
            pool[dst] = _mix(pool[dst], word)
    return pool, hash_const


def _hash_consts(hash_const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``n`` successive hash steps."""
    xors, muls = [], []
    for _ in range(n):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        muls.append(hash_const)
    return np.array(xors, dtype=np.uint32), np.array(muls, dtype=np.uint32)


#: ``generate_state(4, np.uint64)``: 8 uint32 words cycling the pool, each
#: hashed with the next constant of a fixed ``_INIT_B`` sequence.
_STATE_CYCLE = np.arange(8) % _POOL_SIZE
_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B, 8)


def _pcg64_seeds(pool: list[int], hash_const: int, column: np.ndarray) -> np.ndarray:
    """PCG64 seed words of ``prefix + [i]`` for each ``i`` in ``column``.

    ``(pool, hash_const)`` is the prefix's :func:`_fold`.  The column is
    the last entropy word: each pool word takes one hashmix of it, then
    ``generate_state(4, np.uint64)`` runs — all as (ids, words) uint32
    arrays.  Returns a (len(column), 4) uint64 array.
    """
    xors, muls = _hash_consts(hash_const, _MULT_A, _POOL_SIZE)
    hashed = (column[:, None] ^ xors) * muls
    hashed ^= hashed >> _XSHIFT
    mixed = np.array([_MIX_MULT_L * p & _MASK32 for p in pool], dtype=np.uint32)
    mixed = mixed - np.uint32(_MIX_MULT_R) * hashed
    mixed ^= mixed >> _XSHIFT
    state = mixed[:, _STATE_CYCLE] ^ _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> _XSHIFT
    # SeedSequence joins word pairs little-endian, whatever the platform.
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's coercion of one non-negative int: 32-bit words, low first."""
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class _PresetSeed(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed.

    ``PCG64(seed)`` asks its seed sequence for ``generate_state(4,
    np.uint64)`` and nothing else; :meth:`RngHub.fresh_batch` precomputes
    exactly that array, so the generator skips ``SeedSequence``'s set-up.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a preset seed only serves PCG64's 4 uint64 words")
        return self._state


class RngHub:
    """Root of a tree of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed.  Equal seeds produce identical simulations.

    Example
    -------
    >>> hub = RngHub(7)
    >>> a = hub.stream("disk", 3)
    >>> b = hub.stream("disk", 4)
    >>> float(a.random()) != float(b.random())
    True
    >>> hub2 = RngHub(7)
    >>> float(hub2.stream("disk", 3).random()) == float(RngHub(7).stream("disk", 3).random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._seed_words = _uint32_words(self.seed)
        self._cache: dict[tuple, np.random.Generator] = {}

    def stream(self, *key) -> np.random.Generator:
        """Return the generator for ``key`` (created on first use).

        ``key`` is any tuple of ints/strings identifying the component, e.g.
        ``hub.stream("bg", disk_id, trial)``.
        """
        key = tuple(key)
        gen = self._cache.get(key)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(self._derive(key)))
            self._cache[key] = gen
        return gen

    def fresh(self, *key) -> np.random.Generator:
        """Like :meth:`stream` but always returns a *new* generator.

        Useful when a component must be re-run from its initial state (e.g.
        repeating an access trial).
        """
        return np.random.Generator(np.random.PCG64(self._derive(key)))

    def fresh_batch(self, *key) -> list[np.random.Generator]:
        """``[self.fresh(*key[:-1], i) for i in key[-1]]``, derived at once.

        ``key[-1]`` is a vector of integer ids (an access's disk ids).  The
        prefix is folded through ``SeedSequence``'s hash-mix once; the id
        column is then mixed in and every PCG64 state generated with numpy
        array arithmetic, so each generator costs one ``PCG64``
        construction from precomputed words instead of a ``SeedSequence``
        plus a ``PCG64`` seeding.  Generators, states and draws equal the
        per-id :meth:`fresh` ones bit for bit.
        """
        *prefix, ids = key
        words = self._words(prefix)
        if len(words) < _POOL_SIZE:
            raise ValueError(
                f"fresh_batch needs a key prefix of {_POOL_SIZE} entropy words "
                f"(seed included) before the ids; got {len(words)}"
            )
        column = np.fromiter((int(i) & _MASK32 for i in ids), dtype=np.uint32)
        seeds = _pcg64_seeds(*_fold(words), column)
        return [np.random.Generator(np.random.PCG64(_PresetSeed(s))) for s in seeds]

    def _words(self, key) -> list[int]:
        """The ``SeedSequence`` entropy words of ``key``, seed words first.

        Integer parts are masked to 32 bits; string parts (stream names,
        scheme names, phases) fold through FNV-1a, memoised process-wide
        because they recur on every call.
        """
        words = list(self._seed_words)
        append = words.append
        for part in key:
            if isinstance(part, (int, np.integer)):
                append(int(part) & _MASK32)
            else:
                s = str(part)
                w = _STR_ENTROPY.get(s)
                if w is None:
                    w = _STR_ENTROPY[s] = _fnv32(s.encode())
                append(w)
        return words

    def _derive(self, key: tuple) -> np.random.SeedSequence:
        return np.random.SeedSequence(self._words(key))
