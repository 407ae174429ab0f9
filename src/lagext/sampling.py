"""Seeded rational sampling for random cocycles and property sweeps.

All draws go through ``random.Random`` seeded with a string tag, which is
deterministic across platforms and Python runs (string seeding hashes with
SHA-512, not PYTHONHASHSEED).
"""

from __future__ import annotations

import random
from fractions import Fraction

# Entries in {-2,...,2} scaled by 1, 1/2 or 1/3: small exact numbers keep
# intermediate blowup bounded in long pipelines.
_NUMERATORS = (-2, -1, 0, 1, 2)
_DENOMINATORS = (1, 2, 3)


def rng_for(seed: int | str, *tags) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, tags)]))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
