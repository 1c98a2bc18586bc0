#!/usr/bin/env python3
"""Self-tests of the benchmark's own statistics and output checks.

    python3 perfbench/selftest.py

Run it from the repository root. The unit tests take milliseconds; the
last test runs nofail-default once against a corrupted expectation (it
builds the runner first if needed) and takes about as long as one
fig04 regeneration.
"""

import contextlib
import io
import json
import shutil
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

SCRATCH = run.WORK / "selftest"


def test_fnv1a():
    assert run.fnv1a(b"") == 0xCBF29CE484222325
    assert run.fnv1a(b"a") == 0xAF63DC4C8601EC8C


def test_quantile_on_known_distributions():
    xs = list(range(1, 101))
    assert run.quantile(xs, 0.0) == 1
    assert run.quantile(xs, 1.0) == 100
    assert run.quantile(xs, 0.5) == 50.5
    assert abs(run.quantile(xs, 0.99) - 99.01) < 1e-9
    assert run.quantile(list(reversed(xs)), 0.25) == 25.75
    # A long tail: p99 interpolates below the single outlier instead of
    # clamping to the maximum.
    tail = [1.0] * 99 + [1000.0]
    assert run.quantile(tail, 0.5) == 1.0
    assert abs(run.quantile(tail, 0.99) - 10.99) < 1e-9
    assert run.quantile([], 0.5) == 0.0
    try:
        run.quantile(xs, 50.0)
    except ValueError:
        pass
    else:
        raise AssertionError("a percentile passed as a quantile must be refused")


def test_paper_gap_of_committed_results():
    fig = {n: (run.ROOT / "results" / f"{n}.tsv").read_text() for n in ("fig04", "fig05")}
    assert round(run.paper_gap({"fig04": fig["fig04"]}), 3) == 0.116
    assert round(run.paper_gap({"fig05": fig["fig05"]}), 3) == 0.262


def test_corrupted_pinned_fingerprint_fails():
    results = SCRATCH / "pinned"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    data = b"design\tx\nWL-Cache\t1.000\n"
    (results / "fig04.tsv").write_bytes(data)
    saved = run.SMALL_TSV_FNV["fig04"]
    try:
        run.SMALL_TSV_FNV["fig04"] = run.fnv1a(data)
        checks = run.Checks()
        run.check_tsvs(results, ["fig04"], None, checks)
        assert (checks.attempted, checks.failed) == (1, 0)
        run.SMALL_TSV_FNV["fig04"] = run.fnv1a(data) ^ 1
        run.check_tsvs(results, ["fig04", "fig05"], None, checks)
        assert (checks.attempted, checks.failed) == (3, 2), "mismatch and missing file both fail"
    finally:
        run.SMALL_TSV_FNV["fig04"] = saved


def test_corrupted_expectation_fails_the_run():
    expect = SCRATCH / "expect"
    shutil.rmtree(expect, ignore_errors=True)
    expect.mkdir(parents=True)
    text = (run.EXPECT / "fig04.tsv").read_text()
    (expect / "fig04.tsv").write_text(text.replace("1.000", "1.001", 1))
    saved, run.EXPECT = run.EXPECT, expect
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", "nofail-default", "--seed", "1", "--seconds", "1", "--trace", "0"])
    finally:
        run.EXPECT = saved
    assert status == 1, "a failed output check must give a non-zero exit"
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
