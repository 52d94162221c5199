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


def run(n, rss):
    return {"attempted": n, "metrics": {"peak_rss_mb": {"value": rss}}}


def test_memory_fit_reads_bytes_per_operation_and_intercept():
    # base: 20 MB plus 128 B per operation; change: 21 MB plus the same; the
    # base's mean RSS is 20 + 128 * 40000 / 2^20 = 24.88 MB, and 1 / 24.88 = 4.0 %
    mb = 2 ** 20
    base = [run(n, 20 + 128 * n / mb) for n in (30000, 40000, 50000)]
    change = [run(n, 21 + 128 * n / mb) for n in (45000, 42000, 48000)]
    assert load_script().memory_fit(base, change) == (
        "memory fit     shared 128 B/op  change +1.00 MB = +4.0% at equal operations")


def test_memory_fit_compares_at_an_equal_count_not_at_zero():
    # within each side RSS rises 1 MB per 10,000 operations (base) and 2 MB
    # (change): pooled sxx = 4 * 5000^2 = 1e8 and sxy = 5000 + 10000, so the
    # shared slope is 1.5e-4 MB = 157 B per operation. Means (15000, 30.5)
    # and (45000, 31.5): intercepts 28.25 and 24.75, so the change reads
    # 1 MB more but keeps 3.5 MB less at an equal count, 11.5 % of 30.5
    base = [run(10000, 30.0), run(20000, 31.0)]
    change = [run(40000, 30.5), run(50000, 32.5)]
    assert load_script().memory_fit(base, change) == (
        "memory fit     shared 157 B/op  change -3.50 MB = -11.5% at equal operations")


def test_memory_fit_needs_a_spread_of_counts_on_one_side():
    same = [run(100, 20.0)] * 2
    assert load_script().memory_fit(same, [run(200, 21.0)]) == (
        "memory fit     no fit: each side attempted one count")
    # one side's spread is enough for the shared slope: 10 MB per 100 ops,
    # so the change's 21 MB at 200 ops is 9 MB under the base line there
    assert load_script().memory_fit(same + [run(200, 30.0)], [run(200, 21.0)]).startswith(
        "memory fit     shared 104858 B/op  change -9.00 MB")
