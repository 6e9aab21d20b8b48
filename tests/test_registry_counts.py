"""Golden counts of every REGISTRY algorithm and the fixed-pivot target.

Each entry pins one sort's counters over the 7x6 battery at n=600:
comparisons, array writes, scratch writes, max depth and stages, plus
(tristate only) buffer high water, state activations in STATE_IDS order
and handler activations.  The figures were taken before the default
comparator was compiled inline, and must not move with it.
"""

import pytest

from tsqsort import GenSpec, generate
from tsqsort.baselines import REGISTRY, fixed_pivot_qsort
from tsqsort.bench import BATTERY_REORDERS
from tsqsort.datagen import DISTRIBUTIONS
from tsqsort.stats import STATE_IDS

ALGORITHMS = dict(REGISTRY,
                  fixedpivot=lambda ar, cmp=None: fixed_pivot_qsort(ar, cmp))


def counts(st):
    t = (st.comparisons, st.array_writes, st.scratch_writes, st.max_depth,
         st.stages)
    if st.state_activations:
        t += (st.temp_high_water,
              tuple(st.state_activations[k] for k in STATE_IDS),
              tuple(st.handler_activations[k]
                    for k in ("sorted", "reversed", "fallbacks")))
    return t


GOLDEN = {
    "sawtooth/sorted": {
        "tristate": (2801, 24, 24, 6, 24, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (24, 0, 0)),
        "classic": (3812, 608, 304, 6, 40),
        "threeway": (2947, 1650, 825, 6, 40),
        "dualpivot": (3993, 1546, 750, 4, 23),
        "fixedpivot": (48798, 1360, 680, 159, 319),
    },
    "sawtooth/reversed": {
        "tristate": (2804, 624, 310, 6, 24, 0,
                     (0, 0, 1, 0, 0, 1, 0, 0), (23, 1, 1)),
        "classic": (3820, 1218, 609, 6, 41),
        "threeway": (2944, 2488, 1244, 6, 40),
        "dualpivot": (4563, 2138, 1045, 5, 24),
        "fixedpivot": (31096, 1960, 980, 99, 319),
    },
    "sawtooth/fronthalfreversed": {
        "tristate": (2949, 498, 83, 8, 23, 14,
                     (6, 0, 4, 2, 1, 7, 2, 1), (17, 1, 2)),
        "classic": (4132, 968, 484, 9, 45),
        "threeway": (2993, 1986, 993, 6, 40),
        "dualpivot": (4300, 1834, 892, 5, 25),
        "fixedpivot": (21946, 1660, 830, 84, 319),
    },
    "sawtooth/backhalfreversed": {
        "tristate": (2805, 325, 161, 6, 24, 0,
                     (1, 0, 1, 0, 0, 2, 0, 0), (22, 1, 1)),
        "classic": (4327, 1052, 526, 11, 48),
        "threeway": (2944, 2098, 1049, 6, 40),
        "dualpivot": (4313, 2040, 996, 5, 24),
        "fixedpivot": (44446, 1660, 830, 129, 319),
    },
    "sawtooth/dither": {
        "tristate": (3090, 1762, 82, 8, 26, 13,
                     (26, 10, 10, 0, 1, 26, 0, 1), (7, 0, 7)),
        "classic": (5275, 2755, 1185, 11, 51),
        "threeway": (3027, 2828, 1414, 7, 40),
        "dualpivot": (5490, 2670, 1305, 7, 30),
        "fixedpivot": (7412, 3278, 1639, 19, 449),
    },
    "sawtooth/fort": {
        "tristate": (3171, 1880, 118, 9, 26, 14,
                     (26, 10, 9, 3, 1, 26, 3, 1), (12, 0, 12)),
        "classic": (4903, 2856, 1171, 9, 43),
        "threeway": (3110, 2828, 1414, 8, 40),
        "dualpivot": (5325, 2762, 1349, 8, 32),
        "fixedpivot": (7854, 3288, 1644, 23, 466),
    },
    "random/sorted": {
        "tristate": (2756, 29, 29, 6, 29, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (29, 0, 0)),
        "classic": (3838, 684, 342, 6, 46),
        "threeway": (2890, 1772, 886, 6, 40),
        "dualpivot": (4431, 1530, 735, 5, 30),
        "fixedpivot": (54408, 1812, 906, 174, 439),
    },
    "random/reversed": {
        "tristate": (2759, 625, 322, 6, 29, 0,
                     (0, 0, 1, 0, 0, 1, 0, 0), (28, 1, 1)),
        "classic": (3835, 1270, 635, 6, 46),
        "threeway": (2946, 2462, 1231, 6, 40),
        "dualpivot": (4913, 2102, 1020, 5, 31),
        "fixedpivot": (32478, 2368, 1184, 108, 440),
    },
    "random/fronthalfreversed": {
        "tristate": (2966, 819, 77, 8, 30, 16,
                     (10, 2, 8, 1, 0, 13, 1, 0), (20, 1, 4)),
        "classic": (3852, 972, 486, 6, 47),
        "threeway": (2959, 2070, 1035, 7, 40),
        "dualpivot": (4408, 1806, 873, 5, 30),
        "fixedpivot": (22496, 2088, 1044, 83, 444),
    },
    "random/backhalfreversed": {
        "tristate": (2992, 520, 84, 8, 28, 20,
                     (8, 0, 2, 1, 2, 8, 1, 2), (21, 0, 1)),
        "classic": (3860, 974, 487, 6, 47),
        "threeway": (2908, 2092, 1046, 6, 40),
        "dualpivot": (4847, 2060, 999, 5, 31),
        "fixedpivot": (49766, 2140, 1070, 142, 459),
    },
    "random/dither": {
        "tristate": (3595, 1982, 157, 10, 30, 23,
                     (26, 5, 11, 4, 3, 26, 4, 3), (11, 1, 8)),
        "classic": (5381, 2734, 1178, 12, 47),
        "threeway": (3082, 2814, 1407, 8, 42),
        "dualpivot": (5321, 3104, 1490, 6, 30),
        "fixedpivot": (7233, 3360, 1680, 17, 462),
    },
    "random/fort": {
        "tristate": (2953, 1723, 94, 8, 29, 14,
                     (24, 4, 13, 0, 2, 24, 0, 2), (12, 0, 7)),
        "classic": (4709, 2829, 1218, 8, 49),
        "threeway": (3064, 2850, 1425, 8, 40),
        "dualpivot": (5162, 2384, 1154, 5, 31),
        "fixedpivot": (6410, 3346, 1673, 16, 457),
    },
    "stagger/sorted": {
        "tristate": (4187, 63, 63, 7, 63, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (63, 0, 0)),
        "classic": (4205, 0, 0, 6, 63),
        "threeway": (4769, 508, 254, 7, 127),
        "dualpivot": (3921, 1836, 878, 4, 40),
        "fixedpivot": (180898, 0, 0, 599, 599),
    },
    "stagger/reversed": {
        "tristate": (4189, 662, 362, 7, 63, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (62, 1, 0)),
        "classic": (4206, 604, 302, 6, 63),
        "threeway": (8834, 1796, 898, 20, 256),
        "dualpivot": (4628, 2726, 1269, 4, 40),
        "fixedpivot": (181196, 600, 300, 599, 599),
    },
    "stagger/fronthalfreversed": {
        "tristate": (4821, 787, 165, 11, 60, 0,
                     (25, 0, 0, 20, 2, 23, 20, 2), (35, 0, 1)),
        "classic": (5269, 892, 446, 9, 62),
        "threeway": (5527, 994, 497, 15, 142),
        "dualpivot": (4353, 2546, 1158, 4, 40),
        "fixedpivot": (91646, 300, 150, 301, 599),
    },
    "stagger/backhalfreversed": {
        "tristate": (4189, 362, 212, 7, 63, 0,
                     (1, 0, 0, 0, 0, 0, 0, 0), (61, 1, 0)),
        "classic": (4206, 304, 152, 6, 63),
        "threeway": (6802, 1152, 576, 20, 191),
        "dualpivot": (4124, 2185, 1024, 4, 31),
        "fixedpivot": (181046, 300, 150, 599, 599),
    },
    "stagger/dither": {
        "tristate": (5711, 3609, 545, 9, 54, 0,
                     (53, 0, 0, 26, 27, 54, 26, 27), (10, 5, 15)),
        "classic": (5813, 3488, 1283, 10, 56),
        "threeway": (5469, 3230, 1615, 10, 118),
        "dualpivot": (5765, 4717, 1878, 5, 32),
        "fixedpivot": (9230, 2586, 1293, 21, 599),
    },
    "stagger/fort": {
        "tristate": (5738, 3530, 555, 10, 58, 0,
                     (57, 0, 0, 34, 19, 58, 34, 19), (3, 6, 9)),
        "classic": (5663, 3508, 1274, 8, 57),
        "threeway": (5485, 3374, 1687, 10, 112),
        "dualpivot": (6104, 4550, 1759, 6, 31),
        "fixedpivot": (8258, 2588, 1294, 21, 599),
    },
    "plateau/sorted": {
        "tristate": (723, 4, 4, 4, 4, 0, (0, 0, 0, 0, 0, 0, 0, 0), (4, 0, 0)),
        "classic": (3690, 2748, 1374, 7, 36),
        "threeway": (887, 1330, 665, 10, 10),
        "dualpivot": (744, 118, 57, 2, 2),
        "fixedpivot": (28188, 4832, 2416, 49, 551),
    },
    "plateau/reversed": {
        "tristate": (724, 125, 25, 4, 4, 0,
                     (1, 0, 1, 0, 0, 1, 0, 0), (2, 1, 0)),
        "classic": (3983, 3118, 1559, 7, 51),
        "threeway": (892, 1316, 658, 9, 15),
        "dualpivot": (830, 267, 107, 2, 2),
        "fixedpivot": (16252, 4896, 2448, 49, 551),
    },
    "plateau/fronthalfreversed": {
        "tristate": (804, 138, 20, 6, 6, 0,
                     (6, 1, 0, 3, 0, 4, 3, 0), (0, 0, 0)),
        "classic": (3855, 3060, 1519, 7, 44),
        "threeway": (854, 1320, 660, 8, 12),
        "dualpivot": (832, 266, 105, 2, 2),
        "fixedpivot": (5527, 4860, 2430, 19, 495),
    },
    "plateau/backhalfreversed": {
        "tristate": (723, 4, 4, 4, 4, 0, (0, 0, 0, 0, 0, 0, 0, 0), (4, 0, 0)),
        "classic": (3690, 2748, 1374, 7, 36),
        "threeway": (887, 1330, 665, 10, 10),
        "dualpivot": (744, 118, 57, 2, 2),
        "fixedpivot": (28188, 4832, 2416, 49, 551),
    },
    "plateau/dither": {
        "tristate": (1733, 946, 27, 6, 8, 0,
                     (3, 1, 2, 0, 3, 6, 0, 3), (6, 0, 4)),
        "classic": (4295, 2477, 1210, 8, 48),
        "threeway": (1826, 2182, 1091, 7, 12),
        "dualpivot": (3367, 941, 459, 5, 8),
        "fixedpivot": (23382, 3862, 1931, 45, 446),
    },
    "plateau/fort": {
        "tristate": (815, 268, 32, 4, 3, 0,
                     (2, 0, 1, 0, 1, 3, 0, 1), (1, 0, 1)),
        "classic": (4193, 3498, 1713, 6, 61),
        "threeway": (856, 1326, 663, 6, 9),
        "dualpivot": (849, 278, 101, 2, 2),
        "fixedpivot": (5354, 5030, 2515, 13, 519),
    },
    "shuffle/sorted": {
        "tristate": (4187, 63, 63, 7, 63, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (63, 0, 0)),
        "classic": (4205, 0, 0, 6, 63),
        "threeway": (4769, 508, 254, 7, 127),
        "dualpivot": (3921, 1836, 878, 4, 40),
        "fixedpivot": (180898, 0, 0, 599, 599),
    },
    "shuffle/reversed": {
        "tristate": (4189, 662, 362, 7, 63, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (62, 1, 0)),
        "classic": (4206, 604, 302, 6, 63),
        "threeway": (8834, 1796, 898, 20, 256),
        "dualpivot": (4628, 2726, 1269, 4, 40),
        "fixedpivot": (181196, 600, 300, 599, 599),
    },
    "shuffle/fronthalfreversed": {
        "tristate": (4821, 787, 165, 11, 60, 0,
                     (25, 0, 0, 20, 2, 23, 20, 2), (35, 0, 1)),
        "classic": (5269, 892, 446, 9, 62),
        "threeway": (5527, 994, 497, 15, 142),
        "dualpivot": (4353, 2546, 1158, 4, 40),
        "fixedpivot": (91646, 300, 150, 301, 599),
    },
    "shuffle/backhalfreversed": {
        "tristate": (4189, 362, 212, 7, 63, 0,
                     (1, 0, 0, 0, 0, 0, 0, 0), (61, 1, 0)),
        "classic": (4206, 304, 152, 6, 63),
        "threeway": (6802, 1152, 576, 20, 191),
        "dualpivot": (4124, 2185, 1024, 4, 31),
        "fixedpivot": (181046, 300, 150, 599, 599),
    },
    "shuffle/dither": {
        "tristate": (4263, 277, 180, 7, 61, 0,
                     (0, 0, 0, 0, 0, 22, 0, 0), (61, 0, 22)),
        "classic": (4257, 238, 119, 6, 61),
        "threeway": (4820, 890, 445, 7, 114),
        "dualpivot": (4223, 2464, 1109, 4, 40),
        "fixedpivot": (180779, 238, 119, 599, 599),
    },
    "shuffle/fort": {
        "tristate": (5510, 3808, 548, 9, 59, 0,
                     (54, 0, 0, 28, 31, 59, 28, 31), (15, 4, 19)),
        "classic": (5567, 3315, 1265, 8, 57),
        "threeway": (5536, 3296, 1648, 11, 116),
        "dualpivot": (6061, 4792, 1870, 5, 28),
        "fixedpivot": (9845, 2532, 1266, 27, 599),
    },
    "hill/sorted": {
        "tristate": (908, 8, 8, 5, 8, 0, (0, 0, 0, 0, 0, 0, 0, 0), (8, 0, 0)),
        "classic": (3733, 2550, 1275, 7, 37),
        "threeway": (1087, 1480, 740, 11, 18),
        "dualpivot": (994, 290, 140, 3, 5),
        "fixedpivot": (49009, 4710, 2355, 88, 590),
    },
    "hill/reversed": {
        "tristate": (912, 246, 49, 5, 8, 0,
                     (1, 0, 1, 0, 0, 1, 0, 0), (6, 1, 0)),
        "classic": (4093, 3008, 1504, 8, 55),
        "threeway": (1349, 1544, 772, 18, 31),
        "dualpivot": (1104, 459, 204, 3, 5),
        "fixedpivot": (25149, 4294, 2147, 87, 462),
    },
    "hill/fronthalfreversed": {
        "tristate": (984, 250, 28, 6, 8, 0,
                     (8, 1, 0, 4, 3, 8, 4, 3), (3, 0, 3)),
        "classic": (3998, 3068, 1531, 8, 49),
        "threeway": (1150, 1424, 712, 14, 21),
        "dualpivot": (1118, 487, 214, 3, 5),
        "fixedpivot": (5984, 4742, 2371, 32, 512),
    },
    "hill/backhalfreversed": {
        "tristate": (908, 8, 8, 5, 8, 0, (0, 0, 0, 0, 0, 0, 0, 0), (8, 0, 0)),
        "classic": (3733, 2550, 1275, 7, 37),
        "threeway": (1087, 1480, 740, 11, 18),
        "dualpivot": (994, 290, 140, 3, 5),
        "fixedpivot": (49009, 4710, 2355, 88, 590),
    },
    "hill/dither": {
        "tristate": (1840, 1051, 52, 7, 12, 0,
                     (10, 4, 1, 3, 1, 10, 3, 1), (3, 0, 1)),
        "classic": (4877, 2571, 1214, 11, 47),
        "threeway": (1987, 2264, 1132, 9, 16),
        "dualpivot": (2957, 1234, 577, 4, 10),
        "fixedpivot": (9661, 3878, 1939, 20, 465),
    },
    "hill/fort": {
        "tristate": (1077, 507, 66, 6, 7, 1,
                     (7, 1, 0, 3, 2, 7, 3, 2), (2, 0, 2)),
        "classic": (3990, 3164, 1535, 7, 43),
        "threeway": (1039, 1496, 748, 8, 16),
        "dualpivot": (3586, 1061, 485, 4, 7),
        "fixedpivot": (5480, 4744, 2372, 16, 504),
    },
    "organpipes/sorted": {
        "tristate": (2666, 26, 26, 6, 26, 0,
                     (0, 0, 0, 0, 0, 0, 0, 0), (26, 0, 0)),
        "classic": (3881, 746, 373, 7, 48),
        "threeway": (2802, 1768, 884, 6, 37),
        "dualpivot": (4318, 1672, 804, 5, 32),
        "fixedpivot": (54539, 1884, 942, 171, 448),
    },
    "organpipes/reversed": {
        "tristate": (2669, 620, 314, 6, 26, 0,
                     (0, 0, 1, 0, 0, 1, 0, 0), (25, 1, 1)),
        "classic": (3901, 1344, 672, 7, 49),
        "threeway": (2821, 2452, 1226, 7, 37),
        "dualpivot": (4872, 2318, 1128, 5, 31),
        "fixedpivot": (34401, 2418, 1209, 106, 445),
    },
    "organpipes/fronthalfreversed": {
        "tristate": (2886, 781, 66, 8, 26, 16,
                     (12, 5, 3, 2, 0, 13, 2, 0), (16, 0, 3)),
        "classic": (3907, 1048, 524, 7, 49),
        "threeway": (2843, 1916, 958, 6, 36),
        "dualpivot": (4562, 1916, 921, 5, 34),
        "fixedpivot": (21931, 2170, 1085, 81, 453),
    },
    "organpipes/backhalfreversed": {
        "tristate": (2898, 435, 62, 7, 26, 18,
                     (6, 1, 1, 1, 1, 6, 1, 1), (21, 0, 1)),
        "classic": (3920, 1061, 524, 7, 49),
        "threeway": (2849, 2114, 1057, 7, 37),
        "dualpivot": (5020, 2228, 1083, 5, 31),
        "fixedpivot": (48498, 2148, 1074, 129, 440),
    },
    "organpipes/dither": {
        "tristate": (3098, 1734, 148, 9, 28, 21,
                     (24, 11, 6, 2, 3, 24, 2, 3), (8, 1, 5)),
        "classic": (4881, 2766, 1209, 10, 52),
        "threeway": (3089, 2832, 1416, 7, 38),
        "dualpivot": (4845, 2693, 1313, 7, 33),
        "fixedpivot": (7724, 3256, 1628, 19, 451),
    },
    "organpipes/fort": {
        "tristate": (2978, 1837, 99, 8, 27, 30,
                     (22, 5, 14, 1, 0, 22, 1, 0), (9, 0, 4)),
        "classic": (4812, 2688, 1202, 9, 55),
        "threeway": (2887, 2818, 1409, 7, 37),
        "dualpivot": (4705, 2432, 1186, 6, 30),
        "fixedpivot": (6602, 3340, 1670, 19, 461),
    },
}


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("kind", BATTERY_REORDERS)
def test_registry_golden_counts(dist, kind):
    spec = GenSpec(distribution=dist, reorder=kind, n=600, arange=40, seed=3)
    got = {}
    for name, fn in ALGORITHMS.items():
        ar = generate(spec)
        got[name] = counts(fn(ar))
        assert ar == sorted(ar), name
    assert got == GOLDEN[f"{dist}/{kind}"]
