"""Does the reference time depend on what ran before it?

    python3 bench/reference_check.py [rounds]

Times `run.reference_seconds()` right after each of several kinds of work
that touch different amounts of memory, in shuffled order, and prints the
median reference time after each. The rescaled end-to-end times are only
the program's own figures if these medians agree.
"""

import random
import statistics
import sys

from run import reference_seconds

_BUFFER = bytearray(128 << 20)  # larger than the 105 MB last-level cache where it was run
_BIG = [n * 7 + 1000 for n in range(200_000)]  # about 7 MB with the int objects
_BIG_PROBES = random.Random(0).sample(range(len(_BIG)), 20_000)


def write(mb):
    """One byte in every 64-byte cache line of the first `mb` MB."""
    lines = range(0, mb << 20, 64)
    _BUFFER[lines.start:lines.stop:64] = bytes(len(lines))


def allocate():
    junk = [(i, str(i)) for i in range(500_000)]
    del junk


def read_scattered():
    total = 0
    for index in _BIG_PROBES:
        total += _BIG[index]


BEFORE = {"nothing": lambda: None, "16 MB written": lambda: write(16),
          "128 MB written": lambda: write(128), "500k tuples": allocate,
          "7 MB read": read_scattered}


def main(rounds: int) -> None:
    rng = random.Random(5)
    order = list(BEFORE)
    times = {name: [] for name in order}
    for _ in range(rounds):
        rng.shuffle(order)
        for name in order:
            BEFORE[name]()
            times[name].append(reference_seconds())
    for name, ts in times.items():
        q = statistics.quantiles(ts, n=4)
        median = statistics.median(ts)
        print(f"after {name:15s} median {median * 1000:.3f} ms"
              f"  quartile spread {(q[2] - q[0]) / median:.3f}  (n={len(ts)})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
