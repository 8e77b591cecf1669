#!/usr/bin/env python3
"""Check the CSV number writer against Python's own "%.17g", value by value.

The values are the edge set of ``edge_values`` (powers of ten and their
neighbours, exact 17-digit ties, the switches between fixed and exponent
notation, 3-digit exponents, subnormals, signed zeros, NaN and infinities)
followed by ``--count`` random 64-bit patterns read as doubles, drawn from
``--seed``; every second pattern has its binary exponent moved into
[-326, 328], so that its magnitude lies in [1e-98, 1e99), the range the
writer formats without falling back to "%".  They go through the writer in rows of 16, 256 rows at a time,
as ``nrabi simulate`` writes them.  The first value whose text differs is
printed with its bit pattern and the exit code is 1; otherwise the count of
values checked is printed and the exit code is 0.

    python scripts/csv_format_check.py --count 10000000 --seed 1
"""

import argparse
import itertools
import sys
import time

import numpy as np

from nrabi import cli

_WIDTH = 16


def edge_values() -> np.ndarray:
    """Doubles at which a 17-digit writer is most likely to slip, both signs."""
    values = []
    for k in range(-324, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values += [
        1234567890123456.75,  # a 17-digit tie: "%.17g" gives ...56.8
        1234567890123457.25,  # ... and ...57.2, to even both times
        9.9999999999999995e-5, 1e-4, 0.00010000000000000002,  # E = -5 / -4
        9999999999999998.0, 1e16, 99999999999999984.0, 1e17,  # E = 15, 16 / 17
        1e-100, 1e100, 2.2250738585072014e-308, 1.7976931348623157e308,
        5e-324, 2.5e-320, 4.9406564584124654e-322,  # subnormals
        0.0, 0.5, 1.0 / 3.0, 2.0 / 3.0, 123.5, 100.0, 0.1, 0.2, 0.3,
        float("nan"), float("inf"),
    ]
    values = np.array(values)
    return np.concatenate([values, -values])


def random_values(rng: np.random.Generator, count: int) -> np.ndarray:
    bits = rng.integers(0, 2**64, count, dtype=np.uint64)
    exponents = rng.integers(1023 - 326, 1023 + 329, count // 2, dtype=np.uint64)
    bits[1::2] = bits[1::2] & np.uint64(~(0x7FF << 52) & (2**64 - 1)) | exponents << np.uint64(52)
    return bits.view(np.float64)


def _texts(values: np.ndarray) -> list[bytes]:
    rows = np.resize(values, (-(-values.size // _WIDTH), _WIDTH))
    rows.ravel()[values.size :] = 0.0
    return cli._csv_text(rows).replace(b"\n", b",").split(b",")[: values.size]


def check(values: np.ndarray) -> float | None:
    """The first value the writer formats unlike "%.17g", else None."""
    for start in range(0, values.size, cli._CSV_CHUNK_ROWS * _WIDTH):
        batch = values[start : start + cli._CSV_CHUNK_ROWS * _WIDTH]
        expected = [b"%.17g" % value for value in batch.tolist()]
        got = _texts(batch)
        if got != expected:
            return next(v for v, a, b in zip(batch.tolist(), got, expected) if a != b)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1_000_000, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    randoms = (random_values(rng, min(1 << 20, args.count - at)) for at in range(0, args.count, 1 << 20))
    checked = 0
    for values in itertools.chain([edge_values()], randoms):
        bad = check(values)
        if bad is not None:
            bits = np.array([bad]).view(np.uint64)[0]
            print(f"mismatch: {bad!r} (bits {bits:#018x}): writer {_texts(np.array([bad]))[0]!r}, "
                  f"\"%.17g\" {b'%.17g' % bad!r}")
            return 1
        checked += values.size
    print(f"{checked} values written as \"%.17g\" writes them "
          f"({args.count} random, seed {args.seed}) in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
