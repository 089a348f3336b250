"""Agreement of the reproduced series with the paper's reference values.

A point is the fig2 round count of one (dataset, model) pair, or one
fig3-fig7 value. A value matches when the float the metrics layer
computed, truncated to as many decimals as the reference shows, equals
the reference: the paper truncates (33/34 reads 0.9705) and drops
trailing digits (2.41477 reads 2.414). The float is cut in its shortest
decimal form, ``repr``: its binary expansion can sit just below a short
decimal (6.72 is stored as 6.71999...). The six-decimal CSV cell is not
scored, because its rounding can carry into a kept digit: karate ic
average distance at iteration 3 is 2.4081996..., written 2.408200.

Floors hold for the two real networks under the two cascade models.
The jazz and polblogs files are synthetic stand-ins and si is judged on
one draw, so those scores are printed (``pytest -s``), never asserted.
"""
from __future__ import annotations

from decimal import ROUND_DOWN, Decimal
from pathlib import Path

import pytest

from netdiffuse import golden, harness
from netdiffuse.harness import DATASET_NAMES, MODELS, parse_seeds_file, reproduce_paper
from netdiffuse.metrics import format_cell

# (dataset, model): (least matched points, the misses allowed; None: any)
FLOORS = {
    ("karate", "cns"): (16, set()),
    ("karate", "ic"): (16, set()),
    # The reference density 0.868 at iteration 4 is out of trend (0.0868).
    ("lesmis", "ic"): (20, {("fig6", 4)}),
    ("lesmis", "cns"): (5, None),
}


def truncated_equal(value: float, reference: float) -> bool:
    """``value`` cut (not rounded) to the decimals of ``reference`` equals it."""
    text = repr(reference)
    places = len(text.partition(".")[2])
    cut = Decimal(repr(value)).quantize(Decimal(1).scaleb(-places), rounding=ROUND_DOWN)
    return cut == Decimal(text)


def score(produced):
    """{(dataset, model): (matched, points, misses)}; a miss is
    (figure, iteration), with iteration None for the fig2 count."""
    points = dict.fromkeys(golden.FIG2_ITERATIONS, 0)
    misses = {key: [] for key in golden.FIG2_ITERATIONS}
    for key, count in golden.FIG2_ITERATIONS.items():
        points[key] += 1
        if len(produced[key]) != count:
            misses[key].append(("fig2", None))
    for (figure, dataset, model), series in golden.SERIES.items():
        rows = produced[(dataset, model)]
        for iteration, reference in series:
            points[(dataset, model)] += 1
            value = (
                getattr(rows[iteration - 1], golden.FIGURE_METRICS[figure])
                if iteration <= len(rows)
                else None
            )
            if value is None or not truncated_equal(value, reference):
                misses[(dataset, model)].append((figure, iteration))
    return {key: (points[key] - len(misses[key]), points[key], misses[key]) for key in points}


@pytest.fixture(scope="module")
def produced(data_dir, tmp_path_factory):
    """The per-iteration metrics ``reproduce_paper`` reports, in process."""
    seen = {}
    report = harness._deviation_report

    def capture(produced, avg_degrees):
        seen.update(produced)
        return report(produced, avg_degrees)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_deviation_report", capture)
        seeds = parse_seeds_file(data_dir / "seeds_example.txt")
        reproduce_paper(data_dir, tmp_path_factory.mktemp("fidelity"), seeds)
    return seen


@pytest.fixture(scope="module")
def scores(produced):
    return score(produced)


@pytest.mark.parametrize(
    "value, reference, expected",
    [
        (2.4081996434937611, 2.4081, True),
        (33 / 34, 0.9705, True),  # rounds to 0.9706
        (2.41477, 2.414, True),
        (1.0, 1.0, True),
        (5, 5, True),
        (4, 5, False),
        (0.0868080, 0.868, False),
        (2.4080999, 2.4081, False),
        (6.72, 6.72, True),  # 6.71999... in binary
    ],
)
def test_truncation_rule(value, reference, expected):
    assert truncated_equal(value, reference) is expected


def test_float_not_csv_cell(produced):
    value = produced[("karate", "ic")][2].avg_distance
    assert format_cell(value) == "2.408200"
    assert truncated_equal(value, 2.4081)
    assert not truncated_equal(float(format_cell(value)), 2.4081)


@pytest.mark.parametrize("key", FLOORS, ids="-".join)
def test_floor(scores, key):
    least, allowed = FLOORS[key]
    matched, points, misses = scores[key]
    assert matched >= least, (matched, points, misses)
    if allowed is not None:
        assert set(misses) <= allowed, misses


def test_report_other_scores(scores):
    for (dataset, model), (matched, points, misses) in scores.items():
        if (dataset, model) not in FLOORS:
            print(f"fidelity {dataset} {model}: {matched}/{points}")
    assert set(scores) == set(golden.FIG2_ITERATIONS)


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_paper_cns_within_two_hop_ceiling(dataset):
    """Each CNS round reaches at most two hops further, so the paper's CNS
    coverage after round t is at most its IC (p = 1) coverage after round
    2t, or after IC's last round."""
    ic = dict(golden.SERIES[("fig3", dataset, "ic")])
    assert sorted(ic) == list(range(1, len(ic) + 1))
    for t, coverage in golden.SERIES[("fig3", dataset, "cns")]:
        assert coverage <= ic[min(2 * t, len(ic))], t


def paper_speed_and_outspread(dataset):
    """The final coverage, the coverage after round 2 and the round count
    of the paper's cns, ic and si on one network, as README table cells."""
    coverage = [dict(golden.SERIES[("fig3", dataset, model)]) for model in MODELS]
    columns = (
        [series[max(series)] for series in coverage],
        [series[2] for series in coverage],
        [golden.FIG2_ITERATIONS[(dataset, model)] for model in MODELS],
    )
    return [dataset, *(" / ".join(map(str, column)) for column in columns)]


def test_readme_quotes_the_papers_speed_and_outspread():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("## The paper's speed and outspread") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("## "))
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in lines[start:end]
        if line.startswith("| ")
    ]
    models = " / ".join(MODELS)
    assert rows[0] == [
        "dataset", f"final coverage, {models}", f"coverage after round 2, {models}",
        f"rounds, {models}",
    ]
    assert rows[1:] == [paper_speed_and_outspread(dataset) for dataset in DATASET_NAMES]
