"""Output checks for the dp1 benchmark.

Each operation's stdout is checked against this module's own expectations,
never against tables imported from dp1, so a defect in dp1's golden data
cannot make a wrong answer look right.
"""

from __future__ import annotations

import hashlib
import json

# Class id -> (root-lattice type, rank), in the CLI's canonical order.
CLASSES = {
    "M-connected": ("E8", 8),
    "M-1-connected": ("E7", 7),
    "M-2-connected": ("D6", 6),
    "M-3-connected": ("D4+A1", 5),
    "M-4": ("4A1", 4),
    "M-2-I-a": ("D4", 4),
    "M-2-I-b": ("D4", 4),
    "M-split": ("0", 0),
    "M-1-split": ("A1", 1),
    "M-2-split": ("2A1", 2),
    "M-3-split": ("3A1", 3),
}
CLASS_IDS = tuple(CLASSES)

# Vectors of norm -2 (roots) and norm -4 in each root lattice.
ROOT_COUNTS = {"E8": 240, "E7": 126, "D6": 60, "D4+A1": 26, "4A1": 8, "D4": 24,
               "0": 0, "A1": 2, "2A1": 4, "3A1": 6}
FOUR_COUNTS = {"E8": 2160, "E7": 756, "D6": 252, "D4+A1": 72, "4A1": 24, "D4": 24,
               "0": 0, "A1": 0, "2A1": 4, "3A1": 12}

MINUS_2K = (6, -2, -2, -2, -2, -2, -2, -2, -2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dot(a: list[int], b: list[int] | tuple[int, ...]) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def expected_block(class_id: str, stratum: int) -> tuple[int, int]:
    """(count, signed sum) of the stratum B^stratum of a class."""
    lam, r = CLASSES[class_id]
    if stratum == 0:
        return 1, 1
    if stratum == 2:
        return ROOT_COUNTS[lam], 2 * r
    return FOUR_COUNTS[lam], 2 * r * (r - 1)


def check_enumerate(payload: dict) -> list[str]:
    """Every (class, stratum) block once, with the expected count and signed sum.

    Each listed class is also checked item by item: v is orthogonal to K with
    v.v = -stratum, alpha = -2K - v, the value is even, and no v repeats.
    """
    problems = []
    blocks = payload.get("enumeration")
    if not isinstance(blocks, list):
        return ["no enumeration list"]
    seen = set()
    for block in blocks:
        cid, stratum = block.get("class"), block.get("stratum")
        where = f"{cid}/B^{stratum}"
        if cid not in CLASSES or stratum not in (0, 2, 4) or (cid, stratum) in seen:
            problems.append(f"{where}: unexpected block")
            continue
        seen.add((cid, stratum))
        count, signed = expected_block(cid, stratum)
        items = block.get("classes", [])
        if block.get("count") != count or len(items) != count:
            problems.append(f"{where}: count {block.get('count')} with {len(items)} items, "
                            f"expected {count}")
        if block.get("signed_sum") != signed:
            problems.append(f"{where}: signed sum {block.get('signed_sum')}, expected {signed}")
        vs = set()
        item_sum = 0
        for item in items:
            v, alpha, q = item.get("v"), item.get("alpha"), item.get("qhat")
            if (not isinstance(v, list) or len(v) != 9 or q not in (0, 2)
                    or _dot(v, (-3,) + (1,) * 8) != 0 or _dot(v, v) != -stratum
                    or alpha != [k - x for k, x in zip(MINUS_2K, v)]):
                problems.append(f"{where}: bad item {item}")
                break
            vs.add(tuple(v))
            item_sum += 1 if q == 0 else -1
        else:
            if len(vs) != len(items):
                problems.append(f"{where}: repeated vectors")
            if item_sum != block.get("signed_sum"):
                problems.append(f"{where}: items sum to {item_sum}, block says "
                                f"{block.get('signed_sum')}")
    missing = {(c, s) for c in CLASSES for s in (0, 2, 4)} - seen
    if missing:
        problems.append(f"missing blocks {sorted(missing)}")
    return problems


def check_verify(payload: dict, scope: str) -> list[str]:
    """A green report: summary consistent with the records and nothing failed."""
    problems = []
    summary = payload.get("summary", {})
    records = payload.get("records", [])
    total, passed, failed = (summary.get(k) for k in ("total", "passed", "failed"))
    if payload.get("scope") != scope:
        problems.append(f"scope {payload.get('scope')!r}, expected {scope!r}")
    if failed != 0:
        problems.append(f"summary.failed = {failed}")
    if not (isinstance(total, int) and total > 0 and passed == total):
        problems.append(f"summary passed/total = {passed}/{total}")
    if len(records) != total:
        problems.append(f"{len(records)} records, summary.total = {total}")
    bad = [r.get("name") for r in records if r.get("passed") is not True]
    if bad:
        problems.append(f"records not passed: {bad[:5]}")
    if scope != "all":
        foreign = [r.get("name") for r in records if scope not in r.get("classes", ())]
        if foreign:
            problems.append(f"records outside scope {scope}: {foreign[:5]}")
    return problems


def check_output(argv: tuple[str, ...], exit_code: int | None, stdout: bytes) -> list[str]:
    """Problems with one operation's result; an empty list means it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
    except ValueError as err:
        return [f"stdout is not JSON: {err}"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    if argv[0] == "verify":
        scope = argv[argv.index("--class") + 1] if "--class" in argv else "all"
        return check_verify(payload, scope)
    if argv[0] == "enumerate":
        return check_enumerate(payload)
    raise ValueError(f"no check for {argv}")


class OutputLedger:
    """Requires every operation with the same argv to print the same bytes.

    Content checks run once per distinct (argv, stdout) pair: identical bytes
    give identical verdicts.
    """

    def __init__(self) -> None:
        self.first: dict[tuple[str, ...], str] = {}
        self.sizes: dict[tuple[str, ...], int] = {}
        self._verdicts: dict[tuple[tuple[str, ...], str], list[str]] = {}

    def check(self, argv: tuple[str, ...], exit_code: int | None, stdout: bytes) -> list[str]:
        digest = sha256(stdout)
        if exit_code != 0:
            return check_output(argv, exit_code, stdout)
        key = (argv, digest)
        if key not in self._verdicts:
            self._verdicts[key] = check_output(argv, exit_code, stdout)
        problems = list(self._verdicts[key])
        first = self.first.setdefault(argv, digest)
        self.sizes.setdefault(argv, len(stdout))
        if digest != first:
            problems.append(f"stdout sha256 {digest[:12]} differs from the first "
                            f"run of the same argv ({first[:12]})")
        return problems
