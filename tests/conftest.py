"""Shared test fixtures."""

import pytest

from e8magic.e8 import _coordinates


@pytest.fixture(scope="session")
def walk_shell_counts():
    """The shell counts N(2n) for 2n <= max_norm by a walk over the eight
    half-unit coordinates, independent of E4: it counts the coordinate
    prefixes by state (stored norm still to place, coordinate sum mod 4)."""

    def count(max_norm: int) -> dict[int, int]:
        entries: dict[int, int] = {}
        for odd in (False, True):
            states = {(4 * max_norm, 0): 1}
            for _ in range(8):
                grown: dict[tuple[int, int], int] = {}
                for (rest, parity_sum), n in states.items():
                    for value in _coordinates(rest, odd):
                        key = (rest - value * value, (parity_sum + value) % 4)
                        grown[key] = grown.get(key, 0) + n
                states = grown
            for (rest, parity_sum), n in states.items():
                if parity_sum == 0:
                    norm2 = max_norm - rest // 4
                    entries[norm2] = entries.get(norm2, 0) + n
        return dict(sorted(entries.items()))

    return count
