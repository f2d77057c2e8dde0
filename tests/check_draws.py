"""Check the sampler's draw contract on any interpreter, without pytest.

sample_member draws through getrandbits, which matches randint(32, 128)
and choice((1, -1)) only while random.Random keeps its current
_randbelow_with_getrandbits.  This script compares sample_member with a
reference sampler that makes the documented randint/choice calls, using
the standard library alone, so it runs where pytest is not installed:

    PYTHONPATH=src python tests/check_draws.py [members]

It prints the counts and exits with status 1 on the first mismatch.
"""

import random
import sys
from fractions import Fraction

from patmat import PatternMatrix, ValueDistribution, sample_member
from patmat.symbols import QUEST, STAR, ZERO


def reference_entries(pattern, dist):
    rng = random.Random(dist.seed)
    entries = []
    for sym in pattern.entries:
        if sym is ZERO or sym is QUEST and rng.random() < dist.quest_zero_probability:
            entries.append(Fraction(0))
        else:
            k = rng.randint(32, 128)
            entries.append(Fraction(rng.choice((1, -1)) * k, 64))
    return entries


def main(members=2000):
    rng = random.Random(15)
    entries = 0
    for t in range(members):
        rows, cols = rng.randint(0, 20), rng.randint(0, 70)
        weights = rng.choice([(1, 1, 1), (6, 3, 1), (1, 6, 3), (1, 1, 8)])
        symbols = rng.choices((ZERO, STAR, QUEST), weights, k=rows * cols)
        pattern = PatternMatrix(rows, cols, tuple(symbols))
        dist = ValueDistribution(rng.choice([0.0, 0.25, 1.0]), rng.getrandbits(64))
        got = sample_member(pattern, dist).entries
        want = reference_entries(pattern, dist)
        if [(type(e), e) for e in got] != [(type(e), e) for e in want]:
            print(f"member {t}: sample_member differs from randint/choice")
            return 1
        entries += len(got)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {members} members, {entries} entries identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
