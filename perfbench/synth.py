"""Seeded generator for the `loocv-continuous` workload's dataset.

The shipped datasets have no continuous attribute, so on them the
entropy-MDL grid fit and continuous level components never run. This
generator plants interval rules on continuous attributes, mixes in nominal,
ordered and boolean attributes, flips a fixed share of labels and blanks a
fixed share of cells. Like `scripts/make_datasets.py` it asserts its counts
before returning, so a drift in the definitions cannot yield a plausible but
different dataset. It returns CSV and schema text, which the benchmark feeds
through `parse_dataset` exactly like shipped data.

The output is for performance and robustness measurement only; no
correctness gate of the test suite reads it.
"""

from __future__ import annotations

from random import Random

N_ROWS = 400
LABEL_NOISE = 0.06  # share of rows whose planted label is flipped
MISSING_RATE = 0.03  # share of attribute cells written as "?"

SCHEMA = """\
x1: continuous
x2: continuous
x3: continuous
color: nominal {red, green, blue}
size: ordered {s, m, l}
flag: bool
c: class {pos, neg}
"""
N_ATTRS = 6  # attribute columns before the class column


def _planted(x1: float, x2: float, color: str, size: str) -> bool:
    """The rule behind the positive class: two interval rules and a threshold."""
    return (
        (30.0 <= x1 < 60.0 and color != "blue")
        or (x2 > 65.0 and size != "s")
        or x1 >= 90.0
    )


def make_continuous(seed: int) -> tuple[str, str]:
    """(csv_text, schema_text) for one seed; the same seed gives the same text."""
    rng = Random(seed)
    cells: list[list[str]] = []
    labels: list[bool] = []
    for _ in range(N_ROWS):
        x1 = round(rng.uniform(0.0, 100.0), 2)
        x2 = round(rng.gauss(50.0, 15.0), 1)
        x3 = round(rng.uniform(-1.0, 1.0), 3)  # irrelevant
        color = rng.choice(("red", "green", "blue"))
        size = rng.choice(("s", "m", "l"))
        flag = rng.choice(("T", "F"))  # irrelevant
        cells.append([repr(x1), repr(x2), repr(x3), color, size, flag])
        labels.append(_planted(x1, x2, color, size))

    n_flipped = round(LABEL_NOISE * N_ROWS)
    for i in rng.sample(range(N_ROWS), n_flipped):
        labels[i] = not labels[i]

    n_missing = round(MISSING_RATE * N_ROWS * N_ATTRS)
    for pos in rng.sample(range(N_ROWS * N_ATTRS), n_missing):
        cells[pos // N_ATTRS][pos % N_ATTRS] = "?"

    lines = ["x1,x2,x3,color,size,flag,c"]
    for row, positive in zip(cells, labels):
        lines.append(",".join(row + ["pos" if positive else "neg"]))

    assert len(lines) == N_ROWS + 1, f"expected {N_ROWS} rows, got {len(lines) - 1}"
    missing = sum(row.count("?") for row in cells)
    assert missing == n_missing, f"expected {n_missing} missing cells, got {missing}"
    positives = sum(labels)
    assert min(positives, N_ROWS - positives) >= N_ROWS // 5, (
        f"class balance drifted: {positives} positive of {N_ROWS}"
    )
    return "\n".join(lines) + "\n", SCHEMA
