"""Published reference values the library is validated against.

``TABLE_EPS2`` / ``TABLE_EPS4`` freeze the tabulated exact quadratic and
quartic coefficients for the ten states with n <= 4, together with their
prime-factorized renderings, exactly as published.  ``validate`` recomputes
every entry from scratch and diffs against these.

``GROUND_EPS4_LITERATURE`` is the ground-state quartic coefficient that
circulated in earlier literature.  It disagrees with both exact routes here
(and with the variational fit); the half-gap tolerance below is what an
independent numeric estimate must beat for the dispute to be adjudicated.
"""

from __future__ import annotations

from fractions import Fraction

TABLE_EPS2: dict[tuple[int, int], Fraction] = {
    (1, 0): Fraction(3, 64),
    (2, 0): Fraction(117, 64),
    (2, 1): Fraction(45, 32),
    (3, 0): Fraction(825, 64),
    (3, 1): Fraction(375, 32),
    (3, 2): Fraction(525, 64),
    (4, 0): Fraction(3087, 64),
    (4, 1): Fraction(735, 16),
    (4, 2): Fraction(2499, 64),
    (4, 3): Fraction(441, 16),
}

TABLE_EPS4: dict[tuple[int, int], Fraction] = {
    (1, 0): Fraction(-159, 65536),
    (2, 0): Fraction(-1172961, 65536),
    (2, 1): Fraction(-462915, 32768),
    (3, 0): Fraction(-124078125, 65536),
    (3, 1): Fraction(-56578125, 32768),
    (3, 2): Fraction(-76453125, 65536),
    (4, 0): Fraction(-3061109331, 65536),
    (4, 1): Fraction(-728835555, 16384),
    (4, 2): Fraction(-2448393339, 65536),
    (4, 3): Fraction(-392830011, 16384),
}

TABLE_EPS2_FACTORED: dict[tuple[int, int], str] = {
    (1, 0): "3/2^6",
    (2, 0): "3^2×13/2^6",
    (2, 1): "3^2×5/2^5",
    (3, 0): "3×5^2×11/2^6",
    (3, 1): "3×5^3/2^5",
    (3, 2): "3×5^2×7/2^6",
    (4, 0): "3^2×7^3/2^6",
    (4, 1): "3×5×7^2/2^4",
    (4, 2): "3×7^2×17/2^6",
    (4, 3): "3^2×7^2/2^4",
}

TABLE_EPS4_FACTORED: dict[tuple[int, int], str] = {
    (1, 0): "-3×53/2^16",
    (2, 0): "-3^6×1609/2^16",
    (2, 1): "-3^6×5×127/2^15",
    (3, 0): "-3×5^6×2647/2^16",
    (3, 1): "-3×5^6×17×71/2^15",
    (3, 2): "-3×5^6×7×233/2^16",
    (4, 0): "-3^2×7^8×59/2^16",
    (4, 1): "-3×5×7^7×59/2^14",
    (4, 2): "-3×7^7×991/2^16",
    (4, 3): "-3^2×7^7×53/2^14",
}

GROUND_EPS4_LITERATURE = Fraction(-153, 65536)

# Half the gap between the competing ground-state quartic values: an
# independent estimate within this distance of one candidate is strictly
# closer to it than to the other.
GROUND_EPS4_HALF_GAP = abs(TABLE_EPS4[(1, 0)] - GROUND_EPS4_LITERATURE) / 2

# Atomic unit of magnetic induction, in tesla (display conversions only).
B0_TESLA = 2.35e5
