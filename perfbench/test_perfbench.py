"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


# ---- the percentile rule for job_tail_s ----------------------------------------


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert metrics.tail(range(1, 101)) == (90, 90.0, 100)
    assert metrics.tail(range(1, 1001)) == (990, 99.0, 1000)
    assert metrics.tail(range(1, 10001)) == (9990, 99.9, 10000)


def test_tail_steps_down_when_too_few_beyond():
    # p99.9 of 9999 samples leaves only 9 beyond it
    assert metrics.tail(range(1, 10000)) == (9900, 99.0, 9999)
    # p90 of 99 samples leaves only 9 beyond it: the median stands in
    assert metrics.tail(range(1, 100)) == (50, 50.0, 99)
    assert metrics.tail(range(1, 6)) == (3, 50.0, 5)


def test_tail_ignores_input_order():
    values = list(range(1, 201))
    random.Random(3).shuffle(values)
    assert metrics.tail(values) == (180, 90.0, 200)


def test_job_times_use_each_jobs_median():
    times = {0: [1.0, 1.0, 9.0], 1: [2.0, 2.0, 2.0]}
    per_s, p50, (tail, p, n) = metrics.job_times(times)
    assert per_s == 2 / 3.0
    assert p50 == 1.5
    assert (tail, p, n) == (1.0, 50.0, 6)


def test_quartile_spread():
    assert metrics.quartile_spread([10, 10, 10, 10]) == 0
    # statistics.quantiles, exclusive method: q1 = 8.5, q3 = 11.5
    assert round(metrics.quartile_spread([8, 9, 10, 11, 12]), 6) == 0.3


# ---- self time on nested spans ----------------------------------------------------


def _recorded(rows):
    """Recorder holding (name, parent, start, end) rows."""
    rec = spans.Recorder()
    for name, parent, start, end in rows:
        rec.name_id.append(rec.intern(name))
        rec.parent.append(parent)
        rec.job_id.append(0)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = _recorded([
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("d", 0, 5.0, 7.0),
    ])
    assert spans.self_times(rec.start, rec.end, rec.parent) == [5.0, 2.0, 1.0, 2.0]


def test_summary_counts_reentry_once_and_sums_self_time():
    # poly.add (sub) calling poly.add (add) is one call into the layer
    rec = _recorded([
        ("groebner.reduce", -1, 0.0, 8.0),
        ("poly.add", 0, 1.0, 5.0),
        ("poly.add", 1, 2.0, 4.0),
        ("poly.add", 0, 6.0, 7.0),
    ])
    rows = spans.summarize(rec)
    assert rows["poly.add"] == {"calls": 2, "self_s": 2.0 + 2.0 + 1.0}
    assert rows["groebner.reduce"] == {"calls": 1, "self_s": 3.0}


def test_traced_calls_nest_count_errors_and_uninstall():
    import lndkit
    from lndkit.errors import ParseError

    original = lndkit.groebner
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        ideal = lndkit.Ideal.of(
            [lndkit.parse_poly(g, ["x", "y"]) for g in ("x^2 - y", "x*y - 1")]
        )
        gb = lndkit.groebner(ideal, lndkit.LEX)
        try:
            lndkit.parse_poly("x +", ["x"])
        except ParseError:
            pass
    finally:
        uninstall()
    assert lndkit.groebner is original
    assert len(lndkit.groebner(ideal, lndkit.LEX).basis) == len(gb.basis)
    rows = spans.summarize(rec)
    assert rows["poly.parse"]["calls"] == 3
    assert rows["groebner.buchberger"]["calls"] == 1
    names = [rec.names[i] for i in rec.name_id]
    reduces = [k for k, n in enumerate(names) if n == "groebner.reduce"]
    assert reduces and all(
        names[rec.parent[k]] == "groebner.buchberger" for k in reduces
    )
    assert rec.errors["poly"] == 1 and rec.errors["groebner"] == 0
    assert rec.counters["groebner.basis_len_max"] == len(gb.basis)


# ---- seeded inputs ------------------------------------------------------------------


def _round_bytes(workload, seed):
    return inputs.canonical_bytes(inputs.ROUNDS[workload](seed))


def test_same_seed_gives_identical_inputs():
    for workload in inputs.ROUNDS:
        assert _round_bytes(workload, 7) == _round_bytes(workload, 7)
        assert _round_bytes(workload, 7) != _round_bytes(workload, 8)


def test_round_quotas_do_not_depend_on_the_seed():
    def shape(jobs):
        if isinstance(jobs, tuple):
            jobs = jobs[0]
        return sorted((j["kind"], j.get("family", ""), j.get("order", ""))
                      if j["kind"] != "cli" else ("cli", j["argv"][0], "")
                      for j in jobs)

    for workload, make in inputs.ROUNDS.items():
        assert shape(make(1)) == shape(make(2)), workload


def test_generated_cones_have_the_promised_line_factors():
    rng = random.Random(11)
    for dim in (3, 4, 5):
        for _ in range(5):
            with_lf = inputs.cone_with_line_factor(rng, dim)
            without = inputs.cone_without_line_factor(rng, dim)
            assert inputs.line_factor_rays(with_lf) == [0]
            assert inputs.line_factor_rays(without) == []
    assert inputs.line_factor_rays(inputs.cone_with_line_factor(rng, 2)) == [0, 1]


def test_known_zeros_are_zeros():
    for job in inputs.ideal_round(5):
        if job["kind"] == "gb" and job["zero"] is not None:
            for g in job["gens"]:
                assert oracle.evaluate(oracle.parse(g, job["vars"]), job["zero"]) == 0


# ---- the independent oracle ----------------------------------------------------------


def test_oracle_parse_and_division():
    v = ["x", "y"]
    square = oracle.parse("(x + 1/2*y)^2", v)
    assert square == {(2, 0): 1, (1, 1): 1, (0, 2): oracle.const(2, "1/4")[(0, 0)]}
    basis = [oracle.parse("x - y", v)]
    assert oracle.remainder(oracle.parse("x^2 - y^2", v), basis, "lex") == {}
    assert oracle.remainder(oracle.parse("x^2", v), basis, "lex") == {(0, 2): 1}
