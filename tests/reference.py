"""BitString references that no ``src/extlab`` code calls, kept as the
oracles the tests compare the int paths against."""

from extlab.bits import BitString


def concat(*parts: BitString) -> BitString:
    n, val = 0, 0
    for p in parts:
        n += p.n
        val = (val << p.n) | p.val
    return BitString(n, val)


def sample_positions(r: BitString, count: int, universe: int) -> list[int]:
    """Deterministically turn extractor output r into ``count`` positions
    in range(universe), reading fixed-width chunks left to right (the
    reference for ``cbreak.adv_gen_val``'s inline chunks)."""
    r, n = r.val, r.n
    if universe < 1:
        raise ValueError("empty universe")
    w = max(1, (universe - 1).bit_length())
    if count * w > n:
        raise ValueError(
            f"sampler needs {count * w} bits, extractor output has {n}")
    mask = (1 << w) - 1
    return [((r >> (n - (i + 1) * w)) & mask) % universe
            for i in range(count)]
