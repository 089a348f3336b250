"""Reference series for the reproduction benchmark.

Every target coordinate the harness compares against lives here, keyed
by (figure file, dataset, model) exactly as the reproduce command names
its outputs. Values are kept verbatim from the published series,
including a couple of visibly out-of-trend points (lesmis/ic density at
iteration 4, polblogs/si density at iteration 7); the deviation report
is expected to flag those, not silently smooth them.

The jazz and polblogs series describe the original networks; the
vendored files for those two names are synthetic stand-ins, so their
deviations are structural and reported as such, never asserted against.
"""
from __future__ import annotations

__all__ = [
    "FIG2_ITERATIONS",
    "SERIES",
    "TABLE1_AVG_DEGREE",
    "FIGURE_METRICS",
]

# Total iterations to completion per dataset and model.
FIG2_ITERATIONS: dict[tuple[str, str], int] = {
    ("karate", "cns"): 3,
    ("karate", "ic"): 3,
    ("karate", "si"): 5,
    ("lesmis", "cns"): 3,
    ("lesmis", "ic"): 4,
    ("lesmis", "si"): 5,
    ("jazz", "cns"): 4,
    ("jazz", "ic"): 5,
    ("jazz", "si"): 6,
    ("polblogs", "cns"): 4,
    ("polblogs", "ic"): 6,
    ("polblogs", "si"): 10,
}

# Whole-graph average degree per dataset (2|E|/|V|, reported values).
TABLE1_AVG_DEGREE: dict[str, float] = {
    "karate": 4.59,
    "lesmis": 6.60,
    "jazz": 27.70,
    "polblogs": 27.31,
}

# Which per-iteration metric each figure file carries.
FIGURE_METRICS: dict[str, str] = {
    "fig3": "coverage",
    "fig4": "diameter",
    "fig5": "avg_distance",
    "fig6": "density",
    "fig7": "avg_degree",
}

# Per-iteration series, one tuple of (iteration, value) pairs each.
SERIES: dict[tuple[str, str, str], tuple[tuple[int, float], ...]] = {
    ("fig3", "karate", "cns"): ((1, 0.3235), (2, 0.7941), (3, 0.9705),),
    ("fig3", "karate", "ic"): ((1, 0.2941), (2, 0.6764), (3, 1.0),),
    ("fig3", "karate", "si"): ((1, 0.2058), (2, 0.3235), (3, 0.6176), (4, 0.8823), (5, 1.0),),
    ("fig3", "lesmis", "cns"): ((1, 0.1428), (2, 0.7272), (3, 0.9480),),
    ("fig3", "lesmis", "ic"): ((1, 0.1428), (2, 0.5714), (3, 0.9740), (4, 1.0),),
    ("fig3", "lesmis", "si"): ((1, 0.0779), (2, 0.2857), (3, 0.5584), (4, 0.8441), (5, 0.9090),),
    ("fig3", "jazz", "cns"): ((1, 0.4848), (2, 0.6919), (3, 0.7323), (4, 0.7373),),
    ("fig3", "jazz", "ic"): ((1, 0.1212), (2, 0.6363), (3, 0.9242), (4, 0.9949), (5, 1.0),),
    ("fig3", "jazz", "si"): ((1, 0.0757), (2, 0.5404), (3, 0.8434), (4, 0.9545), (5, 0.9848), (6, 0.9898),),
    ("fig3", "polblogs", "cns"): ((1, 0.0441), (2, 0.5743), (3, 0.8905), (4, 0.9199),),
    ("fig3", "polblogs", "ic"): ((1, 0.0040), (2, 0.3382), (3, 0.9313), (4, 0.9942), (5, 0.9975), (6, 0.9983),),
    ("fig3", "polblogs", "si"): ((1, 0.0032), (2, 0.0514), (3, 0.4852), (4, 0.8937), (5, 0.9591), (6, 0.9779), (7, 0.9893), (8, 0.9959), (9, 0.9975), (10, 0.9983),),
    ("fig4", "karate", "cns"): ((1, 2), (2, 4), (3, 5),),
    ("fig4", "karate", "ic"): ((1, 2), (2, 3), (3, 5),),
    ("fig4", "karate", "si"): ((1, 2), (2, 3), (3, 4), (4, 4), (5, 5),),
    ("fig4", "lesmis", "cns"): ((1, 2), (2, 4), (3, 5),),
    ("fig4", "lesmis", "ic"): ((1, 2), (2, 3), (3, 4), (4, 5),),
    ("fig4", "lesmis", "si"): ((1, 2), (2, 3), (3, 4), (4, 4), (5, 4),),
    ("fig4", "jazz", "cns"): ((1, 3), (2, 4), (3, 5), (4, 5),),
    ("fig4", "jazz", "ic"): ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6),),
    ("fig4", "jazz", "si"): ((1, 2), (2, 3), (3, 4), (4, 5), (5, 5), (6, 5),),
    ("fig4", "polblogs", "cns"): ((1, 2), (2, 4), (3, 6), (4, 6),),
    ("fig4", "polblogs", "ic"): ((1, 2), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8),),
    ("fig4", "polblogs", "si"): ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 7), (8, 7), (9, 7), (10, 8),),
    ("fig5", "karate", "cns"): ((1, 1.5636), (2, 2.2905), (3, 2.414),),
    ("fig5", "karate", "ic"): ((1, 1.5333), (2, 1.9762), (3, 2.4081),),
    ("fig5", "karate", "si"): ((1, 1.6190), (2, 1.6545), (3, 2.0333), (4, 2.2758), (5, 2.4081),),
    ("fig5", "lesmis", "cns"): ((1, 1.76), (2, 2.3188), (3, 2.5742),),
    ("fig5", "lesmis", "ic"): ((1, 1.7636), (2, 2.1183), (3, 2.5834), (4, 2.6411),),
    ("fig5", "lesmis", "si"): ((1, 1.6), (2, 2.1731), (3, 2.3122), (4, 2.4841), (5, 2.5457),),
    ("fig5", "jazz", "cns"): ((1, 1.7006), (2, 1.8623), (3, 1.9632), (4, 1.9799),),
    ("fig5", "jazz", "ic"): ((1, 1.3152), (2, 1.8020), (3, 2.0751), (4, 2.2109), (5, 2.2350),),
    ("fig5", "jazz", "si"): ((1, 1.2761), (2, 1.7550), (3, 2.0116), (4, 2.1291), (5, 2.1881), (6, 2.1957),),
    ("fig5", "polblogs", "cns"): ((1, 1.7002), (2, 2.2894), (3, 2.5929), (4, 2.6517),),
    ("fig5", "polblogs", "ic"): ((1, 1.4), (2, 2.0555), (3, 2.6077), (4, 2.7203), (5, 2.7329), (6, 2.7375),),
    ("fig5", "polblogs", "si"): ((1, 1.1666), (2, 1.7644), (3, 2.2443), (4, 2.5886), (5, 2.6761), (6, 2.7042), (7, 2.7211), (8, 2.7314), (9, 2.7329), (10, 2.7375),),
    ("fig6", "karate", "cns"): ((1, 0.4363), (2, 0.1737), (3, 0.1439),),
    ("fig6", "karate", "ic"): ((1, 0.4666), (2, 0.2094), (3, 0.1390),),
    ("fig6", "karate", "si"): ((1, 0.3809), (2, 0.4181), (3, 0.2285), (4, 0.1609), (5, 0.1390),),
    ("fig6", "lesmis", "cns"): ((1, 0.2363), (2, 0.1207), (3, 0.0943),),
    ("fig6", "lesmis", "ic"): ((1, 0.2363), (2, 0.1257), (3, 0.0908), (4, 0.8680),),
    ("fig6", "lesmis", "si"): ((1, 0.4), (2, 0.1298), (3, 0.1207), (4, 0.1091), (5, 0.1010),),
    ("fig6", "jazz", "cns"): ((1, 0.3212), (2, 0.2259), (3, 0.2041), (4, 0.2014),),
    ("fig6", "jazz", "ic"): ((1, 0.6847), (2, 0.2485), (3, 0.1594), (4, 0.1419), (5, 0.1405),),
    ("fig6", "jazz", "si"): ((1, 0.7238), (2, 0.2846), (3, 0.1761), (4, 0.1532), (5, 0.1447), (6, 0.1433),),
    ("fig6", "polblogs", "cns"): ((1, 0.2997), (2, 0.0514), (3, 0.0276), (4, 0.0260),),
    ("fig6", "polblogs", "ic"): ((1, 0.6), (2, 0.09670), (3, 0.0255), (4, 0.0225), (5, 0.0224), (6, 0.0224),),
    ("fig6", "polblogs", "si"): ((1, 0.833), (2, 0.2401), (3, 0.0675), (4, 0.0275), (5, 0.0241), (6, 0.0233), (7, 0.2279), (8, 0.0225), (9, 0.0224), (10, 0.0224),),
    ("fig7", "karate", "cns"): ((1, 4.3636), (2, 4.5185), (3, 4.6060),),
    ("fig7", "karate", "ic"): ((1, 4.2), (2, 4.6086), (3, 4.5882),),
    ("fig7", "karate", "si"): ((1, 2.2857), (2, 4.1818), (3, 4.5714), (4, 4.6666), (5, 4.5882),),
    ("fig7", "lesmis", "cns"): ((1, 2.3636), (2, 6.6428), (3, 6.7945),),
    ("fig7", "lesmis", "ic"): ((1, 2.3636), (2, 5.4090), (3, 6.72), (4, 6.5974),),
    ("fig7", "lesmis", "si"): ((1, 2.0), (2, 2.7272), (3, 5.0697), (4, 6.9846), (5, 6.9714),),
    ("fig7", "jazz", "cns"): ((1, 30.5208), (2, 30.7299), (3, 29.3931), (4, 29.2054),),
    ("fig7", "jazz", "ic"): ((1, 15.75), (2, 31.0634), (3, 20.0163), (4, 27.8172), (5, 27.6969),),
    ("fig7", "jazz", "si"): ((1, 10.1333), (2, 30.1682), (3, 29.2335), (4, 28.8148), (5, 28.0820), (6, 27.9489),),
    ("fig7", "polblogs", "cns"): ((1, 15.8888), (2, 36.1109), (3, 30.1596), (4, 29.3019),),
    ("fig7", "polblogs", "ic"): ((1, 2.4), (2, 39.9613), (3, 29.1210), (4, 27.4576), (5, 27.3759), (6, 27.3551),),
    ("fig7", "polblogs", "si"): ((1, 2.5), (2, 14.8888), (3, 40.0437), (4, 30.1352), (5, 28.3696), (6, 27.8813), (7, 27.5854), (8, 27.4175), (9, 27.3759), (10, 27.3551),),
}
