import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def test_summary_reads_medians_iqr_wins_and_shift():
    base = [{"ops_per_s": x, "peak_rss_mb": y}
            for x, y in ((400, 30.0), (430, 31.0), (410, 32.0), (420, 33.0))]
    change = [{"ops_per_s": x, "peak_rss_mb": y}
              for x, y in ((500, 31.5), (420, 33.0), (520, 32.0), (510, 34.0))]
    ops, rss = load_script().summarize(END_TO_END, base, change)
    # base ops median 415, quartiles 407.5 and 422.5; change median 505,
    # better in three pairs; 90/415 = 21.7 % better, 0.87 of the 0.25 bound
    assert ops == ("ops_per_s      base 415  change 505 1/s  base IQR 15  "
                   "change wins 3/4  shift -21.7% = -0.87 of bound 0.25")
    # rss: 31.5 -> 32.5 is 3.2 % worse, 0.32 of the 0.1 bound; three pairs
    # higher and one tie, which is no win
    assert rss == ("peak_rss_mb    base 31.5  change 32.5 MB  base IQR 1.5  "
                   "change wins 0/4  shift +3.2% = +0.32 of bound 0.1")


def test_summary_of_one_pair_has_no_spread():
    (ops, _) = load_script().summarize(END_TO_END, [{"ops_per_s": 10, "peak_rss_mb": 20}],
                                       [{"ops_per_s": 8, "peak_rss_mb": 20}])
    assert "base IQR 0 " in ops and "change wins 0/1" in ops and "shift +20.0%" in ops


def test_attempted_medians_and_shift():
    base = [{"attempted": x} for x in (179000, 180200, 179600)]
    change = [{"attempted": x} for x in (198100, 197000, 199500)]
    # medians 179600 and 198100: 18500 more operations, 10.3 % of the base
    assert load_script().attempted_summary(base, change) == (
        "attempted      base 179600  change 198100  shift +10.3%")


def test_memory_fit_reads_bytes_per_operation_and_intercept():
    # base: 20 MB plus 128 B per operation; change: 21 MB plus 96 B
    def run(n, rss):
        return {"attempted": n, "metrics": {"peak_rss_mb": {"value": rss}}}

    mb = 2 ** 20
    base = [run(n, 20 + 128 * n / mb) for n in (30000, 40000, 50000)]
    change = [run(n, 21 + 96 * n / mb) for n in (45000, 42000, 48000)]
    assert load_script().memory_fit(base, change) == (
        "memory fit     base 128 B/op + 20.00 MB  change 96 B/op + 21.00 MB")
    same = [run(100, 20.0)] * 2
    assert load_script().memory_fit(same, change).startswith("memory fit     base no fit  ")
