"""Frozen expected values for the verification suite.

Tables 2-5 list coefficient types of real roots / degree-2 classes for the two
code-model classes, as (level, real-coefficient signature, pair coefficient,
count, qhat).  Table 6 is the 6-column grid of per-stratum signed totals per
Smith type; table 7 the per-degeneration balance formulas.  Root and
four-vector cardinalities per class close the set.
"""

from __future__ import annotations

# -- Table 2: real roots, connected M-surface (E8 model); rows folded by sign.
TABLE2 = (
    (0, (1, 0, 0, 0, 0, 0, 0, -1), None, 56, 2),
    (1, (0, 0, 0, 0, 0, -1, -1, -1), None, 112, 0),
    (2, (0, 0, -1, -1, -1, -1, -1, -1), None, 56, 2),
    (3, (-1, -1, -1, -1, -1, -1, -1, -2), None, 16, 0),
)

# -- Table 3: genus-1 stratum classes, connected M-surface.
# Level 8 carries signature (-2,-2,-3x6): the only degree-2 type there.
TABLE3 = (
    (3, (0, -1, -1, -1, -1, -1, -1, -1), None, 8, 0),
    (4, (-1, -1, -1, -1, -1, -1, -2, -2), None, 28, 2),
    (5, (-1, -1, -1, -2, -2, -2, -2, -2), None, 56, 0),
    (6, (-1, -2, -2, -2, -2, -2, -2, -3), None, 56, 2),
    (7, (-2, -2, -2, -2, -2, -3, -3, -3), None, 56, 0),
    (8, (-2, -2, -3, -3, -3, -3, -3, -3), None, 28, 2),
    (9, (-3, -3, -3, -3, -3, -3, -3, -4), None, 8, 0),
)

# -- Table 4: rational stratum classes, connected M-surface (15 types, 2160 classes).
TABLE4 = (
    (1, (0, 0, 0, 0, 0, 0, 0, -1), None, 8, 2),
    (2, (0, 0, 0, 0, -1, -1, -1, -1), None, 70, 0),
    (3, (0, 0, -1, -1, -1, -1, -1, -2), None, 168, 2),
    (4, (0, -1, -1, -1, -1, -2, -2, -2), None, 280, 0),
    (4, (-1, -1, -1, -1, -1, -1, -1, -3), None, 8, 0),
    (5, (0, -1, -2, -2, -2, -2, -2, -2), None, 56, 2),
    (5, (-1, -1, -1, -1, -2, -2, -2, -3), None, 280, 2),
    (6, (-1, -1, -2, -2, -2, -2, -3, -3), None, 420, 0),
    (7, (-1, -2, -2, -2, -3, -3, -3, -3), None, 280, 2),
    (7, (-2, -2, -2, -2, -2, -2, -3, -4), None, 56, 2),
    (8, (-1, -3, -3, -3, -3, -3, -3, -3), None, 8, 0),
    (8, (-2, -2, -2, -3, -3, -3, -3, -4), None, 280, 0),
    (9, (-2, -3, -3, -3, -3, -3, -4, -4), None, 168, 2),
    (10, (-3, -3, -3, -3, -4, -4, -4, -4), None, 70, 0),
    (11, (-3, -4, -4, -4, -4, -4, -4, -4), None, 8, 2),
)

# -- Table 5: rational stratum classes, connected (M-1)-surface (25 types, 756 classes).
TABLE5 = (
    (1, (0, 0, 0, 0, 0, -1), 0, 6, 2),
    (2, (0, 0, 0, 0, -1, -1), -1, 15, 2),
    (2, (0, 0, -1, -1, -1, -1), 0, 15, 0),
    (3, (0, 0, -1, -1, -1, -2), -1, 60, 0),
    (3, (-1, -1, -1, -1, -1, -2), 0, 6, 2),
    (4, (0, -1, -1, -1, -1, -2), -2, 30, 0),
    (4, (0, -1, -1, -2, -2, -2), -1, 60, 2),
    (4, (-1, -1, -1, -1, -1, -3), -1, 6, 2),
    (5, (0, -1, -2, -2, -2, -2), -2, 30, 2),
    (5, (-1, -1, -1, -1, -2, -3), -2, 30, 2),
    (5, (-1, -1, -2, -2, -2, -3), -1, 60, 0),
    (6, (-1, -1, -2, -2, -2, -2), -3, 15, 2),
    (6, (-1, -1, -2, -2, -3, -3), -2, 90, 0),
    (6, (-2, -2, -2, -2, -3, -3), -1, 15, 2),
    (7, (-1, -2, -2, -2, -3, -3), -3, 60, 0),
    (7, (-1, -2, -3, -3, -3, -3), -2, 30, 2),
    (7, (-2, -2, -2, -2, -3, -4), -2, 30, 2),
    (8, (-1, -3, -3, -3, -3, -3), -3, 6, 2),
    (8, (-2, -2, -2, -3, -3, -4), -3, 60, 2),
    (8, (-2, -3, -3, -3, -3, -4), -2, 30, 0),
    (9, (-2, -3, -3, -3, -3, -3), -4, 6, 2),
    (9, (-2, -3, -3, -3, -4, -4), -3, 60, 0),
    (10, (-3, -3, -3, -3, -4, -4), -4, 15, 0),
    (10, (-3, -3, -4, -4, -4, -4), -3, 15, 2),
    (11, (-3, -4, -4, -4, -4, -4), -4, 6, 2),
)

# -- Table 6: signed totals per Smith column, rows (c2+, c2-, c4+, c4-, c0+, c0-).
TABLE6_COLUMNS = ("M", "M-1", "M-2", "M-3", "M-4", "(M-2)_I")
TABLE6_ROWS = ("c2_plus", "c2_minus", "c4_plus", "c4_minus", "c0_plus", "c0_minus")
TABLE6 = {
    "M": (-128, 0, 112, 0, 46, 30),
    "M-1": (-84, 12, 84, 0, 30, 18),
    "M-2": (-48, 16, 60, 4, 18, 10),
    "M-3": (-20, 12, 40, 12, 10, 6),
    "M-4": (0, 0, 24, 24, 6, 6),
    "(M-2)_I": (0, 0, 24, 24, 6, 6),
}
# Column representatives: (connected form = plus side, split form = minus side).
TABLE6_PAIRS = {
    "M": ("M-connected", "M-split"),
    "M-1": ("M-1-connected", "M-1-split"),
    "M-2": ("M-2-connected", "M-2-split"),
    "M-3": ("M-3-connected", "M-3-split"),
    "M-4": ("M-4", "M-4"),
    "(M-2)_I": ("M-2-I-a", "M-2-I-a"),
}

# Closed forms of each Table 6 row as a function of the rank r on that side.
ROW_FORMS = {
    "c2": lambda r: 4 * r * (4 - r),
    "c4": lambda r: 2 * r * (r - 1),
    "c0": lambda r: 2 * (r - 3) * (r - 4) + 6,
}

# -- Table 7: balance values per degeneration type, as formulas in (r, r_dual).
TABLE7 = (
    ("4,1", "(2,2)", lambda r, rd: 0),
    ("4,2", "(4,0)", lambda r, rd: 4 * (r - 1)),
    ("2,0", "(4,0)", lambda r, rd: -4 * (r - 1)),
    ("2,1", "(2,0)", lambda r, rd: 0),
    ("2,2", "(4,0) or (2,2)", lambda r, rd: -2 * (r - rd)),
)

# -- Cardinalities of the four-vector sets per lambda type.
FOUR_VECTOR_COUNTS = {
    "E8": 2160, "E7": 756, "D6": 252, "D4+A1": 72, "4A1": 24, "D4": 24,
    "3A1": 12, "2A1": 4, "A1": 0, "0": 0,
}

# Splitting of the 252 D6 four-vectors by quadratic value: the twelve doubled
# roots plus nine of the fifteen sign-pattern families carry value 0, the
# remaining six families carry value 2 (16 vectors per family): 156 vs 96.
D6_FOUR_SPLIT = {0: 156, 2: 96}
