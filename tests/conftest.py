"""Shared fixtures/helpers and the acceptance summary reporter."""

from __future__ import annotations

import random

import pytest

from qimatch.images import Image
from qimatch.verify import MatchMode, classical_match

_acceptance_results: list[tuple[str, str, bool]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        label = name.removeprefix("test_criterion_").replace("_", " ")
        num, _, title = label.partition(" ")
        _acceptance_results.append((num, title, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, title, passed in sorted(_acceptance_results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({title}): {status}")


def quartic_doubled(i: int, a: int) -> int:
    """Twice i**4 + 4i**3 + (2-3a**2)i**2 + (-1-6a**2)i + 1.5a**4 - 1.5a**2,
    the planning quartic of exact mode, in exact integers.  Written out here
    independently of the planner so tests can check it."""
    return (
        2 * i**4 + 8 * i**3 + 2 * (2 - 3 * a * a) * i * i
        + 2 * (-1 - 6 * a * a) * i + 3 * a**4 - 3 * a * a
    )


# ---------------------------------------------------------------------------
# Instance builders shared across test modules
# ---------------------------------------------------------------------------


def classical_anchors(big: Image, small: Image) -> set[int]:
    """The marked set from the exhaustive classical anchor-pixel scan, as positions y * side + x."""
    return {y * big.width + x for x, y in classical_match(big, small, MatchMode.ANCHOR_PIXEL).locations}


def make_image(values: list[int], side: int, bit_depth: int) -> Image:
    return Image(width=side, height=side, bit_depth=bit_depth, pixels=tuple(values))


def random_image(rng: random.Random, side: int, bit_depth: int) -> Image:
    top = (1 << bit_depth) - 1
    return make_image([rng.randint(0, top) for _ in range(side * side)], side, bit_depth)


def random_instance(rng: random.Random, n: int, m: int, bit_depth: int) -> tuple[Image, Image]:
    return random_image(rng, 1 << n, bit_depth), random_image(rng, 1 << m, bit_depth)


def planted_instance(
    rng: random.Random, n: int, m: int, bit_depth: int
) -> tuple[Image, Image, tuple[int, int]]:
    """Instance whose anchor value is unique in the big image and whose block
    matches the small image exactly at the planted offset."""
    side, bside = 1 << n, 1 << m
    top = (1 << bit_depth) - 1
    anchor = rng.randint(1, top)
    big = [rng.choice([v for v in range(top + 1) if v != anchor]) for _ in range(side * side)]
    small = [anchor] + [rng.randint(0, top) for _ in range(bside * bside - 1)]
    x = rng.randint(0, side - bside)
    y = rng.randint(0, side - bside)
    for dy in range(bside):
        for dx in range(bside):
            big[(y + dy) * side + (x + dx)] = small[dy * bside + dx]
    # the anchor value may reappear inside the small image itself; dedupe
    if small.count(anchor) != 1:
        for i in range(1, len(small)):
            if small[i] == anchor:
                small[i] = (anchor + 1) % (top + 1)
        for dy in range(bside):
            for dx in range(bside):
                big[(y + dy) * side + (x + dx)] = small[dy * bside + dx]
    return (
        make_image(big, side, bit_depth),
        make_image(small, bside, bit_depth),
        (x, y),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
