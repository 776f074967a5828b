import ast
import contextlib
import copy
import csv
import dataclasses
import errno
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chi2chaos
from chi2chaos import chaos, cli, criteria, montecarlo
from chi2chaos.chaos import ChaosExpansion
from chi2chaos.cli import (
    config_diagnostics,
    family_kernel,
    family_spectrum,
    load_config,
    main,
    resolve_config,
    run_scenario,
    shipped_scenarios,
)
from chi2chaos.errors import ConfigError, ConsistencyError
from chi2chaos.spectral2 import TargetSpec, spectral


BASE_CONFIG = {
    "id": "tiny",
    "target": {"alphas": [1.0, 2.0]},
    "family": {"name": "diag", "entries": [[1.0, 1.0], [2.0, -1.0], [0.0, 1.0]]},
    "indices": [2, 4, 8],
    "mc": {"samples": 2000, "seed": 321},
    "outputs": ["cumulant_gaps", "gamma_stat", "ks", "empirical_cumulants"],
}


RANK_ONE = {"name": "rank-one-difference", "scale": 0.5}


def diagnostics(path):
    """The problems of the config file at path, read as run reads it."""
    return config_diagnostics(cli._read_config(path))


def write_config(tmp_path, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_shipped_scenarios_present_and_valid():
    shipped = shipped_scenarios()
    assert set(shipped) == {
        "second-chaos-converging", "gaussian-counterexample",
        "two-eigenvalue-q2-example", "gamma-nu1",
    }
    for path in shipped.values():
        assert diagnostics(path) == []


def test_validate_ok(tmp_path):
    path = write_config(tmp_path)
    assert diagnostics(path) == []


def test_validate_duplicate_alphas(tmp_path):
    path = write_config(tmp_path, target={"alphas": [1.0, 1.0]})
    problems = diagnostics(path)
    assert problems and "alphas[1]" in problems[0]


def test_validate_decreasing_indices(tmp_path):
    path = write_config(tmp_path, indices=[4, 2])
    problems = diagnostics(path)
    assert problems and "strictly increasing" in problems[0]


def test_validate_unknown_family_and_outputs(tmp_path):
    path = write_config(tmp_path, family={"name": "nope"})
    assert any("unknown family" in p for p in diagnostics(path))
    path = write_config(tmp_path, outputs=["gamma_stat", "wat"])
    assert any("unknown metric" in p for p in diagnostics(path))


def test_validate_q_chaos_needs_two_weights(tmp_path):
    path = write_config(tmp_path, target={"alphas": [1.0]},
                        outputs=["q_chaos"])
    assert any("two-weight" in p for p in diagnostics(path))


def test_q_chaos_with_a_bad_target_reports_both_problems(tmp_path):
    # the two-weight rule reads the raw alphas list, not the TargetSpec
    path = write_config(tmp_path, target={"alphas": [1.0, 0.0, 2.0]},
                        outputs=["q_chaos"])
    assert diagnostics(path) == [
        "target.alphas[1]: nonzero weight required",
        "outputs: 'q_chaos' requires a two-weight target"]
    with pytest.raises(ConfigError, match="^target.alphas.*; outputs: "):
        load_config(path)


def test_load_config_raises_on_invalid(tmp_path):
    path = write_config(tmp_path, indices=[])
    with pytest.raises(ConfigError):
        load_config(path)


def test_family_kernels():
    diag = family_kernel(BASE_CONFIG["family"], 4)
    assert np.allclose(diag.coeffs, np.diag([1.25, 1.75, 0.25]))

    split = family_kernel({"name": "equal-split", "signs": "alternating"}, 6)
    vals = np.diag(split.coeffs)
    assert np.allclose(np.abs(vals), 1.0 / math.sqrt(12.0))
    assert np.sum(vals > 0) == 3

    # the defaults: alternating signs, scale 0.5
    assert np.array_equal(family_kernel({"name": "equal-split"}, 6).coeffs,
                          split.coeffs)
    rank1 = family_kernel({"name": "rank-one-difference"}, 4)
    eig = spectral(rank1).eigenvalues
    c = 0.25
    assert np.allclose(sorted(eig), sorted([0.5 * math.sqrt(1 - c * c),
                                            -0.5 * math.sqrt(1 - c * c)]))


@pytest.mark.parametrize("family, field", [
    (None, "family:"),
    ({"entries": [[1.0, 0.0]]}, "family:"),
    ({"name": "nope"}, "family.name"),
    ({"name": "diag"}, "family.entries:"),
    ({"name": "diag", "entries": [[1.0, 0.0], [2.0]]}, "family.entries:"),
    ({"name": "diag", "entries": [[1.0, 0.0], [2.0, None]]}, "family.entries[1][1]"),
    ({"name": "diag", "entries": [[False, 0.0]]}, "family.entries[0][0]"),
    ({"name": "equal-split", "signs": "negative"}, "family.signs"),
    ({**RANK_ONE, "scale": 0}, "family.scale"),
    ({**RANK_ONE, "scale": "0.5"}, "family.scale"),
    ({**RANK_ONE, "scale": -math.inf}, "family.scale"),
])
def test_family_kernel_owns_the_family_rules(family, field):
    # a bad parameter fails at every n, from the spectrum and the kernel
    # alike, and validate reports that same error
    for build in (family_spectrum, family_kernel):
        for n in (1, 2, 7):
            with pytest.raises(ConfigError) as exc:
                build(family, n)
            assert str(exc.value).startswith(field)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["family"] = family
    assert config_diagnostics(doc) == [str(exc.value)]


def _closed_form_cases():
    """(family, n, target) for the cross-check of the closed forms."""
    cases = []
    for path in shipped_scenarios().values():
        scenario = load_config(path)
        cases += [(scenario.family, n, scenario.target)
                  for n in scenario.indices]
    rng = np.random.default_rng(36)
    for size in (1, 3, 8):
        entries = rng.uniform(-2.0, 2.0, (size, 2)).tolist()
        for alphas in ((1.0,), (1.0, 2.0), (0.5, -0.5), (-1.5, 0.25, 3.0)):
            cases.append(({"name": "diag", "entries": entries},
                          int(rng.integers(1, 50)), TargetSpec(alphas)))
    for signs in ("alternating", "positive"):
        for n in (1, 2, 7, 16, 33):
            cases.append(({"name": "equal-split", "signs": signs}, n,
                          TargetSpec((1.0, 2.0))))
    for scale in (-3.0, -0.5, 0.25, 0.5, 2.0):
        for n in (1, 2, 5, 64):
            cases.append(({**RANK_ONE, "scale": scale}, n,
                          TargetSpec((0.5, -0.5))))
    return cases


def test_the_closed_forms_match_the_gamma_engine_on_every_family():
    # the runner reads each order-2 row's exact columns from its spectrum;
    # criterion_statistic on the d x d kernel is the path it no longer runs.
    # A column that cancels to about 0 is judged on the scale of its terms:
    # c_r sum |lambda|^r for kappa_r, and for gamma_stat the rounding of an
    # expanded P that gamma_stat_tolerance bounds.
    for family, n, spec in _closed_form_cases():
        lam = family_spectrum(family, n)
        got = criteria.spectrum_criterion(lam, spec)
        want = criteria.criterion_statistic(
            ChaosExpansion.from_kernel(family_kernel(family, n)), spec)
        where = (family, n, spec.alphas)
        assert [g[0] for g in got.cumulant_gaps] == list(range(2, spec.k + 2))
        assert len(got.cumulant_gaps) == len(want.cumulant_gaps), where
        for (r, kn, kt, gap), (_, kn_ref, kt_ref, gap_ref) in zip(
                got.cumulant_gaps, want.cumulant_gaps):
            scale = (abs(kn_ref) + 2.0 ** (r - 1) * math.factorial(r - 1)
                     * np.sum(np.abs(lam) ** r) + abs(kt_ref))
            assert kt == kt_ref, (where, r)
            assert abs(kn - kn_ref) <= 1e-9 * scale, (where, r, kn, kn_ref)
            assert abs(gap - gap_ref) <= 1e-9 * scale, (where, r, gap, gap_ref)
        assert abs(got.gamma_stat - want.gamma_stat) <= (
            criteria.gamma_stat_tolerance(lam, spec)), (
            where, got.gamma_stat, want.gamma_stat)


def test_rank_one_difference_is_the_spectrum_of_its_outer_products():
    # scale (u u^T - v v^T) with u = e_1 and v = (1/n, sqrt(1 - 1/n^2)),
    # the kernel the family was defined by
    for scale in (-3.0, -0.5, 0.25, 0.5, 2.0, 1e100):
        for n in (1, 2, 3, 5, 64, 10 ** 6):
            c = 1.0 / n
            u = np.array([1.0, 0.0])
            v = np.array([c, math.sqrt(1.0 - c * c)])
            want = np.linalg.eigvalsh(scale * (np.outer(u, u) - np.outer(v, v)))
            got = np.sort(family_spectrum({**RANK_ONE, "scale": scale}, n))
            assert np.all(np.abs(got - want) <= 1e-15 * max(1.0, abs(scale))), (
                scale, n, got, want)


def test_an_order_2_row_reaches_far_beyond_the_dense_guard(tmp_path, peak_mb):
    # gaussian-counterexample's family at n = 10^6, 316 times the dense
    # guard's 3 162: n eigenvalues +-1/sqrt(2n), whose kappa_2 is 1 and
    # kappa_3 0 against (1, 2)'s 10 and 72, and gamma_stat = sum Q -> 2
    config = write_config(tmp_path, family={"name": "equal-split"},
                          indices=[10 ** 6],
                          outputs=["cumulant_gaps", "gamma_stat"])
    start = time.perf_counter()
    csv_path, _ = run_scenario(config, tmp_path / "out", no_mc=True)
    elapsed = time.perf_counter() - start
    with open(csv_path) as fh:
        row = next(csv.DictReader(fh))
    assert math.isclose(float(row["kappa_gap_2"]), 9.0, rel_tol=1e-12)
    assert math.isclose(float(row["kappa_gap_3"]), 72.0, rel_tol=1e-12)
    assert abs(float(row["gamma_stat"]) - 2.0) < 1e-5, row
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    # two-eigenvalue-q2-example far out, where P(lambda) ~ -lambda/(4 n^2)
    # cancels in gamma_explicit's expanded sum: its conditions still agree
    # with the spectrum's gamma_stat to within gamma_stat_tolerance
    config = write_config(tmp_path, target={"alphas": [0.5, -0.5]},
                          family=RANK_ONE, indices=[2 ** 14, 2 ** 16, 10 ** 6],
                          outputs=["q_chaos"])
    csv_path, _ = run_scenario(config, tmp_path / "far", no_mc=True)
    with open(csv_path) as fh:
        for row in csv.DictReader(fh):
            eps = 1.0 / int(row["n"]) ** 2
            # sum_j Q(lambda_j) = (1 - eps) eps^2 / 32 for lambda = +-s,
            # up to the rounding of s, amplified by 1 / (s - 1/2) ~ n^2
            assert math.isclose(float(row["gamma_stat"]),
                                (1 - eps) * eps ** 2 / 32, rel_tol=1e-3)
            assert math.isclose(float(row["cond_b1"]),
                                float(row["gamma_stat"]), rel_tol=1e-3)
    # validate reads the family's spectrum, never a d x d kernel: 3 162
    # entries are the most the dense guard takes, 40 000 far more
    for entries in (3162, 40000):
        doc = {**BASE_CONFIG,
               "family": {"name": "diag", "entries": [[1.0, 0.5]] * entries}}
        problems = []
        assert peak_mb(lambda: problems.extend(config_diagnostics(doc))) < 1.0
        assert problems == []


def test_the_runner_samples_each_order_2_row_as_sample_chaos_on_its_kernel(
        monkeypatch):
    # the reference is the pathwise sampler on the row's d x d kernel.
    # Two blocks and five rows, so the draws cross block boundaries; d
    # reaches 256 in gaussian-counterexample
    sampled = []
    sample_weights = montecarlo._sample_weights

    def recording(weights, n, seed):
        batch = sample_weights(weights, n, seed)
        sampled.append(batch.values)
        return batch

    monkeypatch.setattr(cli.montecarlo, "_sample_weights", recording)
    for name, path in shipped_scenarios().items():
        scenario = load_config(path)
        for position, n in enumerate(scenario.indices):
            kernel = family_kernel(scenario.family, n)
            samples = 2 * chaos._block_rows(kernel.dim) + 5
            row, _, _ = cli._index_row(dataclasses.replace(
                scenario, mc_samples=samples,
                outputs=("empirical_cumulants",)), position, True)
            want = montecarlo.sample_chaos(
                ChaosExpansion.from_kernel(kernel), samples,
                scenario.mc_seed + position).values
            assert np.array_equal(sampled.pop(), want), (name, n)
            assert row["emp_kappa_2"] == montecarlo.k_statistics(want, 4)[1]


def test_run_scenario_outputs(tmp_path):
    path = write_config(tmp_path)
    csv_path, summary_path = run_scenario(path, tmp_path / "out")
    rows = list(csv.DictReader(open(csv_path)))
    assert [int(r["n"]) for r in rows] == [2, 4, 8]
    assert list(rows[0]) == ["n", "kappa_gap_2", "kappa_gap_3", "gamma_stat",
                             "ks", "emp_kappa_2", "emp_kappa_3", "emp_kappa_4"]
    gs = [float(r["gamma_stat"]) for r in rows]
    assert gs[0] > gs[1] > gs[2]

    summary = json.load(open(summary_path))
    assert summary["metrics"]["gamma_stat"]["monotone_decreasing"] is True
    assert summary["labels"]["gamma_stat"] == "unconditional (sufficient)"
    assert summary["labels"]["distance"] == "kolmogorov"


def test_run_scenario_summary_records_the_cdf_work_per_index(tmp_path):
    path = write_config(tmp_path)
    _, summary_path = run_scenario(path, tmp_path / "out")
    work = json.load(open(summary_path))["cdf_diagnostics"]
    guards = work["guards"]
    assert guards == {"max_doublings": 64, "max_subpanels": 100_000,
                      "max_bound": 1e-6}
    assert [row["n"] for row in work["by_index"]] == [2, 4, 8]
    for row in work["by_index"]:
        assert set(row) == {"n", "points", "quadrature_points", "max_doublings",
                            "max_subpanels", "max_bound", "stopped_on"}
        # 2 000 samples: cdf_batch inverts all of them up to 256 grid nodes
        assert 0 < row["points"] <= 256
        assert row["quadrature_points"] >= 16 * row["points"]
        assert 0 < row["max_doublings"] <= guards["max_doublings"]
        assert 0 < row["max_subpanels"] <= guards["max_subpanels"]
        assert 0.0 < row["max_bound"] < guards["max_bound"]
        stopped = row["stopped_on"]
        assert set(stopped) == {"envelope", "three_terms"}
        assert sum(stopped.values()) == row["points"]
        assert stopped["three_terms"] > 0


def test_run_scenario_summary_has_the_monte_carlo_standard_errors(tmp_path):
    path = write_config(tmp_path)
    csv_path, summary_path = run_scenario(path, tmp_path / "out")
    rows = list(csv.DictReader(open(csv_path)))
    se = json.load(open(summary_path))["emp_kappa_se"]
    assert [row["n"] for row in se] == [2, 4, 8]
    batch = montecarlo.sample_chaos(
        ChaosExpansion.from_kernel(family_kernel(BASE_CONFIG["family"], 2)),
        2000, 321)
    want = montecarlo.k_statistic_errors(batch, 4)
    assert se[0] == {"n": 2, "emp_kappa_2": want[1], "emp_kappa_3": want[2],
                     "emp_kappa_4": want[3]}
    for row, errors in zip(rows, se):
        assert set(errors) == {"n", "emp_kappa_2", "emp_kappa_3", "emp_kappa_4"}
        assert all(errors[c] > 0.0 for c in errors if c != "n")
        assert float(row["emp_kappa_2"]) > 3.0 * errors["emp_kappa_2"]
    # fewer than 50 samples leave no ten sub-batches of more than 4 rows
    path = write_config(tmp_path, mc={"samples": 20, "seed": 1})
    _, summary_path = run_scenario(path, tmp_path / "small")
    se = json.load(open(summary_path))["emp_kappa_se"]
    assert se[0] == {"n": 2, "emp_kappa_2": None, "emp_kappa_3": None,
                     "emp_kappa_4": None}
    _, summary_path = run_scenario(path, tmp_path / "no_mc", no_mc=True)
    assert "emp_kappa_se" not in json.load(open(summary_path))


def test_run_scenario_summary_records_the_software(tmp_path):
    path = write_config(tmp_path)
    _, summary_path = run_scenario(path, tmp_path / "out", no_mc=True)
    provenance = json.load(open(summary_path))["provenance"]
    assert provenance == {"chi2chaos": chi2chaos.__version__,
                          "numpy": np.__version__,
                          "python": platform.python_version(),
                          "generator_id": montecarlo.GENERATOR_ID,
                          "stream_fingerprint_matched": True}


def test_run_scenario_summary_has_the_ks_noise_floor(tmp_path):
    path = write_config(tmp_path)
    _, summary_path = run_scenario(path, tmp_path / "out")
    summary = json.load(open(summary_path))
    assert summary["ks_noise_floor"] == 1.36 / math.sqrt(2000)
    _, summary_path = run_scenario(path, tmp_path / "no_mc", no_mc=True)
    summary = json.load(open(summary_path))
    assert "ks_noise_floor" not in summary and "cdf_diagnostics" not in summary


def test_run_scenario_no_mc(tmp_path):
    path = write_config(tmp_path)
    csv_path, _ = run_scenario(path, tmp_path / "out", no_mc=True)
    rows = list(csv.DictReader(open(csv_path)))
    assert "ks" not in rows[0] and "emp_kappa_2" not in rows[0]
    assert "gamma_stat" in rows[0]


def test_run_scenario_exact_columns_independent_of_mc(tmp_path):
    path = write_config(tmp_path)
    a, _ = run_scenario(path, tmp_path / "a")
    b, _ = run_scenario(path, tmp_path / "b", seed=999)
    rows_a = list(csv.DictReader(open(a)))
    rows_b = list(csv.DictReader(open(b)))
    for ra, rb in zip(rows_a, rows_b):
        assert ra["gamma_stat"] == rb["gamma_stat"]
        assert ra["kappa_gap_2"] == rb["kappa_gap_2"]
        assert ra["ks"] != rb["ks"]


def test_run_scenario_checks_its_overrides_by_the_config_rule(tmp_path):
    # int() made 60.9 samples 60 and seed True seed 1
    path = write_config(tmp_path)
    for overrides, field in (({"mc_samples": 60.9}, "mc.samples"),
                             ({"seed": True}, "mc.seed")):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            run_scenario(path, tmp_path / "out", **overrides)
    assert not (tmp_path / "out").exists()


def test_run_scenario_q_chaos_columns(tmp_path):
    path = write_config(
        tmp_path,
        id="q2",
        target={"alphas": [0.5, -0.5]},
        family={"name": "rank-one-difference", "scale": 0.5},
        outputs=["gamma_stat", "q_chaos"],
    )
    csv_path, _ = run_scenario(path, tmp_path / "out", no_mc=True)
    rows = list(csv.DictReader(open(csv_path)))
    assert "cond_a" in rows[0] and "cond_b1" in rows[0]
    assert float(rows[-1]["cond_b1"]) < float(rows[0]["cond_b1"])


def test_resolve_config_and_exit_codes(tmp_path, capsys):
    assert resolve_config("gamma-nu1").name == "gamma-nu1.json"
    with pytest.raises(ConfigError):
        resolve_config("no-such-scenario")

    assert main(["list-scenarios"]) == 0
    assert "gamma-nu1" in capsys.readouterr().out

    bad = write_config(tmp_path, indices=[])
    assert main(["validate", str(bad)]) == 2
    good = write_config(tmp_path)
    assert main(["validate", str(good)]) == 0
    assert main(["run", "missing.json", "--out", str(tmp_path)]) == 2


def test_guard_abort_exit_code(tmp_path, capsys):
    # q_chaos reads the d x d kernel, whose 4000^2 coefficients trip the
    # size guard
    config = write_config(
        tmp_path,
        family={"name": "equal-split", "signs": "alternating"},
        indices=[2, 4000],
        outputs=["gamma_stat", "q_chaos"],
    )
    code = main(["run", str(config), "--out", str(tmp_path / "out"), "--no-mc"])
    assert code == 3
    err = capsys.readouterr().err
    assert "n=4000" in err


# main's exit code, stdout and stderr for each command on each kind of
# config, with the test's directory written <tmp>: a record of the CLI's
# behaviour, which a change to main must keep
MAIN_RECORD = {
    ("validate", "missing"): (2, "", "config: no file or shipped scenario "
                              "named 'no-such-scenario'\n"),
    ("run", "missing"): (2, "", "config: no file or shipped scenario named "
                         "'no-such-scenario'\n"),
    ("validate", "directory"): (2, "", "<tmp>/dir: Is a directory\n"),
    ("run", "directory"): (2, "", "<tmp>/dir: Is a directory\n"),
    ("validate", "invalid"): (2, "", "indices: nonempty list required; "
                              "outputs: unknown metric 'wat' (known: "
                              "cumulant_gaps, gamma_stat, ks, "
                              "empirical_cumulants, q_chaos)\n"),
    ("run", "invalid"): (2, "", "indices: nonempty list required; outputs: "
                         "unknown metric 'wat' (known: cumulant_gaps, "
                         "gamma_stat, ks, empirical_cumulants, q_chaos)\n"),
    ("validate", "guard"): (0, "ok\n", ""),
    ("run", "guard"): (3, "", "scenario 'tiny' aborted at n=4000: dense "
                       "tensor with dim=4000, order=2 has 16000000 entries, "
                       "above the guard MAX_ELEMENTS=10000000\n"),
    ("validate", "good"): (0, "ok\n", ""),
    ("run", "good"): (0, "<tmp>/out-good/tiny.csv\n"
                      "<tmp>/out-good/tiny_summary.json\n", ""),
}


def test_main_keeps_its_recorded_exit_codes_and_messages(tmp_path):
    (tmp_path / "dir").mkdir()
    configs = {"missing": "no-such-scenario", "directory": tmp_path / "dir"}
    for case, overrides in [
            ("invalid", {"indices": [], "outputs": ["wat"]}),
            ("guard", {"family": {"name": "equal-split"},
                       "indices": [2, 4000],
                       "outputs": ["cumulant_gaps", "gamma_stat", "q_chaos"]}),
            ("good", {})]:
        doc = {**BASE_CONFIG, "indices": [2, 4],
               "outputs": ["cumulant_gaps", "gamma_stat"], **overrides}
        configs[case] = tmp_path / f"{case}.json"
        configs[case].write_text(json.dumps(doc))
    got = {}
    for case, config in configs.items():
        for argv in (["validate", str(config)],
                     ["run", str(config), "--out", str(tmp_path / f"out-{case}"),
                      "--no-mc"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            got[argv[0], case] = (code, *(s.getvalue().replace(
                str(tmp_path), "<tmp>") for s in (out, err)))
    assert got == MAIN_RECORD
    # validate is run's config reader without the run: one line per fault
    for case in ("missing", "directory", "invalid"):
        assert got["validate", case] == got["run", case]


def test_main_run_tiny(tmp_path, capsys):
    config = write_config(tmp_path, mc={"samples": 500, "seed": 5},
                          indices=[2, 4])
    code = main(["run", str(config), "--out", str(tmp_path / "runout"),
                 "--mc-samples", "400"])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0].endswith("tiny.csv")


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    code = main(["run", "gamma-nu1", "--out", str(blocker), "--no-mc"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(blocker) in err and "File exists" in err
    code = main(["run", "gamma-nu1", "--out", str(blocker / "sub"), "--no-mc"])
    assert code == 2
    assert "Not a directory" in capsys.readouterr().err


def test_a_failed_output_write_names_its_file(tmp_path, capsys, monkeypatch):
    # a full disk raises from the write, with no file name of its own
    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.json, "dump", no_space)
    out = tmp_path / "out"
    assert main(["run", "gamma-nu1", "--out", str(out), "--no-mc"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"{out / 'gamma-nu1_summary.json'}: {os.strerror(errno.ENOSPC)}"]


def test_consistency_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def disagree(eigenvalues, spec):
        raise ConsistencyError("cumulant order 3: two forms disagree")

    monkeypatch.setattr(cli.criteria, "spectrum_criterion", disagree)
    code = main(["run", "gamma-nu1", "--out", str(tmp_path / "out"), "--no-mc"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "scenario 'gamma-nu1' aborted at n=2: cumulant order 3: two forms disagree"]


def test_gamma_stat_and_the_conditions_disagreeing_exits_3(tmp_path, capsys,
                                                           monkeypatch):
    # gamma_stat and the q_chaos b-keys come from two computations of the
    # gamma combination; run compares them at every index
    conditions = cli.criteria.q_chaos_conditions

    def off(kernel, spec):
        found = conditions(kernel, spec)
        return {**found, "b1": 1.01 * found["b1"]}

    monkeypatch.setattr(cli.criteria, "q_chaos_conditions", off)
    code = main(["run", "two-eigenvalue-q2-example", "--out",
                 str(tmp_path / "out"), "--no-mc"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "scenario 'two-eigenvalue-q2-example' aborted at n=")
    assert "from the spectrum" in lines[0] and "from gamma_explicit" in lines[0]
    assert not (tmp_path / "out" / "two-eigenvalue-q2-example.csv").exists()
    # far out, where gamma_stat is 7e-12, the same 1% still stops the run
    config = write_config(tmp_path, target={"alphas": [0.5, -0.5]},
                          family=RANK_ONE, indices=[256], outputs=["q_chaos"])
    with pytest.raises(ConsistencyError, match="from gamma_explicit"):
        run_scenario(config, tmp_path / "far", no_mc=True)


@pytest.mark.parametrize("flags, field", [
    (["--mc-samples", "0"], "mc.samples"),
    (["--mc-samples", "-5"], "mc.samples"),
    (["--mc-samples", "3"], "mc.samples"),  # gamma-nu1 asks for k-statistics
    (["--seed", "-1"], "mc.seed"),
    (["--mc-samples", str(2 ** 63 - 1)], "mc.samples"),
])
def test_run_rejects_bad_sample_count_and_seed_flags(tmp_path, capsys, flags,
                                                     field):
    code = main(["run", "gamma-nu1", "--out", str(tmp_path / "out")] + flags)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(field)


@pytest.mark.parametrize("mc, field", [
    ({"samples": 2000, "seed": -3}, "mc.seed"),
    ({"samples": 4, "seed": 1}, "mc.samples"),  # k_statistics(., 4) needs > 4
    # more float64 values than one NumPy array holds: np.empty raised
    # ValueError, not the MemoryError run maps to exit 3
    ({"samples": 2 ** 63 - 1, "seed": 1}, "mc.samples"),
    ({"samples": 10 ** 30, "seed": 1}, "mc.samples"),
])
def test_validate_and_run_reject_bad_mc_config(tmp_path, capsys, mc, field):
    config = write_config(tmp_path, mc=mc)
    assert main(["validate", str(config)]) == 2
    assert capsys.readouterr().err.startswith(field)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(field)


def test_mc_seed_bounds_leave_room_for_every_index():
    # the Philox key is a uint64 and index i runs on seed + i; 3 indices
    top = 2 ** 64 - 3
    for seed, ok in ((0, True), (top, True), (top + 1, False), (-1, False),
                     (1.5, False), (True, False), (np.uint64(top), True)):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["mc"]["seed"] = seed
        assert (config_diagnostics(doc) == []) is ok, seed
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["mc"] = {"samples": 4}
    doc["outputs"] = ["gamma_stat", "ks"]  # no k-statistics: 1 row will do
    assert config_diagnostics(doc) == []
    doc["mc"]["samples"] = 0
    assert config_diagnostics(doc)[0].startswith("mc.samples")
    # the most float64 values one NumPy array holds
    doc["mc"]["samples"] = np.iinfo(np.intp).max // 8
    assert config_diagnostics(doc) == []
    doc["mc"]["samples"] += 1
    assert config_diagnostics(doc)[0].startswith("mc.samples")


def test_run_rejects_invalid_json_and_non_list_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"id\": ")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config: invalid JSON")
    config = write_config(tmp_path, outputs="ks")
    assert main(["validate", str(config)]) == 2
    assert "outputs: list required" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ([BASE_CONFIG], "config: top-level JSON object expected"),
    ({**BASE_CONFIG, "mc": [2000, 321]}, "mc: object expected"),
])
def test_validate_and_run_reject_a_config_of_the_wrong_shape(tmp_path, capsys,
                                                             doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for argv in (["validate", str(config)],
                 ["run", str(config), "--out", str(tmp_path / "out"),
                  "--seed", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out").exists()


def test_equal_split_with_positive_signs_has_closed_form_columns(tmp_path):
    # n eigenvalues 1/sqrt(2n) against N^2 - 1: kappa_2 is 1 against the
    # target's 2, and gamma_stat is (1/2)(1 - 1/sqrt(2n))^2
    config = write_config(tmp_path, target={"alphas": [1.0]},
                          family={"name": "equal-split", "signs": "positive"},
                          indices=[2, 8, 32],
                          outputs=["cumulant_gaps", "gamma_stat"])
    csv_path, _ = run_scenario(config, tmp_path / "out", no_mc=True)
    rows = list(csv.DictReader(open(csv_path)))
    assert [int(row["n"]) for row in rows] == [2, 8, 32]
    for row in rows:
        n = int(row["n"])
        assert float(row["kappa_gap_2"]) == 1.0
        assert math.isclose(float(row["gamma_stat"]),
                            0.5 * (1.0 - 1.0 / math.sqrt(2 * n)) ** 2,
                            rel_tol=1e-12)


def test_a_target_whose_cumulants_overflow_a_float_exits_3(tmp_path, capsys):
    # 200 weights need cumulant gaps up to order 201, and (r - 1)! passes
    # the float range from r = 172
    config = write_config(tmp_path, id="many",
                          target={"alphas": [1.0 + i / 100 for i in range(200)]},
                          outputs=["cumulant_gaps", "gamma_stat"])
    assert main(["validate", str(config)]) == 0
    capsys.readouterr()
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--no-mc"]) == 3
    assert capsys.readouterr().err == (
        "scenario 'many' aborted at n=2: overflow: int too large to convert "
        "to float\n")
    assert not (tmp_path / "out" / "many.csv").exists()


def test_a_config_json_cannot_decode_exits_2_with_one_line(tmp_path, capsys):
    # a file that is not UTF-8 raised UnicodeDecodeError, and an array
    # nested 2e5 deep RecursionError, each with a traceback and exit 1
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b'{"id": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for config in (not_utf8, deep):
        for argv in (["validate", str(config)],
                     ["run", str(config), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert err.startswith("config: invalid JSON: "), err
    assert not (tmp_path / "out").exists()


def test_a_config_is_read_as_utf_8_under_an_ascii_locale(tmp_path,
                                                         python_child):
    # RFC 8259 JSON is UTF-8, whatever the locale's default encoding is:
    # the C locale without UTF-8 mode reads files as ASCII.  The only
    # problem found is the unknown field that carries the non-ASCII text,
    # so the file decoded.
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps({**BASE_CONFIG, "note": "caf\u00e9"},
                                  ensure_ascii=False).encode("utf-8"))
    out, _ = python_child(
        ["-c", "import sys; from chi2chaos import cli; "
               "print(cli.config_diagnostics(cli._read_config(sys.argv[1])))",
         str(config)],
        env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert out == repr(["config: unknown field 'note' (known: id, target, "
                        "family, indices, mc, outputs)"])


@pytest.mark.parametrize("entries", [4000, 40000])
def test_a_diag_family_above_the_element_guard_stops_where_its_kernel_is_built(
        tmp_path, capsys, monkeypatch, peak_mb, entries):
    # validate, the exact columns and Monte Carlo read the spectrum, so the
    # dense guard stops a run only at a row that builds the d x d kernel,
    # for q_chaos's gamma_explicit
    doc = {**BASE_CONFIG,
           "family": {"name": "diag", "entries": [[1.0, 0.5]] * entries}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "exact"),
                 "--no-mc"]) == 0
    capsys.readouterr()
    # eigenvalue 1 + 0.5/n, entries times, against the weights (1, 2)
    with open(tmp_path / "exact" / "tiny.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == BASE_CONFIG["indices"]
    for row in rows:
        lam = 1.0 + 0.5 / int(row["n"])
        assert math.isclose(float(row["kappa_gap_2"]),
                            abs(2 * entries * lam ** 2 - 10), rel_tol=1e-12)
        assert math.isclose(float(row["gamma_stat"]), entries * (
            lam * (lam - 1) * (lam - 2)) ** 2, rel_tol=1e-12)
    # the q_chaos run, its config already read, so the traced peak is the
    # run's own: no d x d array, and each row's kernel is built from its
    # spectrum, so its guard fires, before any other work or sampling
    fresh = json.loads(json.dumps(doc))
    fresh["outputs"] = BASE_CONFIG["outputs"] + ["q_chaos"]
    monkeypatch.setattr(cli, "_read_config", lambda config: fresh)
    codes = []
    peak = peak_mb(lambda: codes.append(
        main(["run", str(path), "--out", str(tmp_path / "mc")])))
    assert codes == [3]
    assert capsys.readouterr() == ("", (
        f"scenario 'tiny' aborted at n=2: dense tensor with dim={entries}, "
        f"order=2 has {entries ** 2} entries, above the guard "
        "MAX_ELEMENTS=10000000\n"))
    assert not (tmp_path / "mc" / "tiny.csv").exists()
    assert peak < 1.0, f"{peak:.2f} MB"


@pytest.mark.parametrize("family, n", [
    ({"name": "diag", "entries": [[1.0, 0.5]] * 4000}, 2),
    ({"name": "equal-split"}, 4096),
])
def test_a_sampled_row_beyond_the_element_guard_builds_no_kernel(
        tmp_path, capsys, monkeypatch, peak_mb, family, n):
    # d = 4 000 and 4 096, above the 3 162 of a d x d kernel the guard
    # takes: Monte Carlo draws the row's spectrum 64 rows (2 MB) a block,
    # so the run's traced peak stays far below one d x d array (128 MB)
    def unreachable(*args):
        raise AssertionError("a sampled row built its d x d kernel")

    path = tmp_path / "config.json"
    doc = {**BASE_CONFIG, "family": family, "indices": [n]}
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "_read_config", lambda config: doc)
    monkeypatch.setattr(cli.sym_tensor, "_diagonal", unreachable)
    codes = []
    peak = peak_mb(lambda: codes.append(main([
        "run", str(path), "--out", str(tmp_path / "out"),
        "--mc-samples", "64"])))
    assert codes == [0], capsys.readouterr().err
    assert peak < 8.0, f"{peak:.2f} MB"
    with open(tmp_path / "out" / "tiny.csv") as fh:
        row = next(csv.DictReader(fh))
    batch = montecarlo._sample_weights(family_spectrum(family, n), 64,
                                       BASE_CONFIG["mc"]["seed"])
    assert float(row["emp_kappa_2"]) == montecarlo.k_statistics(batch, 4)[1]


def test_failed_rows_keep_their_errors_but_not_their_arrays(
        tmp_path, capsys, monkeypatch, peak_mb):
    # every index of a 40 000-entry diag family fails where it builds the
    # d x d kernel for q_chaos.  Each failed row's error is kept until the
    # run ends, but the frames of its traceback, which held its spectrum
    # (0.3 MB), are cleared: 12 failed indices peak within one spectrum per
    # worker of one.  The first run only warms up.
    entries = 40000
    peaks = {}
    for count in (1, 1, 12):
        doc = {**BASE_CONFIG, "indices": list(range(1, count + 1)),
               "family": {"name": "diag", "entries": [[1.0, 0.5]] * entries},
               "outputs": BASE_CONFIG["outputs"] + ["q_chaos"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        fresh = json.loads(json.dumps(doc))
        monkeypatch.setattr(cli, "_read_config", lambda config, doc=fresh: doc)
        codes = []
        peaks[count] = peak_mb(lambda: codes.append(
            main(["run", str(path), "--out", str(tmp_path / "mc")])))
        assert codes == [3]
        assert capsys.readouterr() == ("", (
            "scenario 'tiny' aborted at n=1: dense tensor with "
            f"dim={entries}, order=2 has {entries ** 2} entries, above the "
            "guard MAX_ELEMENTS=10000000\n"))
    spectrum_mb = entries * 8 / 2 ** 20
    assert peaks[12] <= peaks[1] + cli._workers(12) * spectrum_mb, peaks


def test_a_diag_family_above_the_spectrum_guard_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # the spectrum's size depends on the entries alone, not on n, so a diag
    # family of more entries than the element guard takes is a config fault;
    # the guard is lowered to keep the config small
    monkeypatch.setattr(cli.sym_tensor, "MAX_ELEMENTS", 100)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        **BASE_CONFIG,
        "family": {"name": "diag", "entries": [[1.0, 0.5]] * 101}}))
    line = ("family: dense tensor with dim=101, order=1 has 101 entries, "
            "above the guard MAX_ELEMENTS=100")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [line]


def test_a_config_name_longer_than_the_system_takes_exits_2(tmp_path, capsys):
    # validate raised OSError (ENAMETOOLONG) from Path.exists with a
    # traceback; run already ended with exit 2
    name = "x" * 5000
    for argv in (["validate", name], ["run", name, "--out", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("overrides, field", [
    ({"target": {"alphas": ["x"]}}, "target.alphas[0]"),
    ({"target": {"alphas": [1.0, None]}}, "target.alphas[1]"),
    ({"target": {"alphas": "12"}}, "target:"),
    ({"family": {"name": "diag", "entries": [["x", 0.0]]}},
     "family.entries[0][0]"),
    ({"family": {"name": "diag", "entries": [[math.nan, 0.0]]},
      "outputs": ["ks"]}, "family.entries[0][0]"),
    ({"family": {**RANK_ONE, "scale": math.inf}}, "family.scale"),
    ({"family": {**RANK_ONE, "scale": True}}, "family.scale"),
    ({"indices": [True, 2]}, "indices[0]"),
    ({"id": "a/b"}, "id"),
])
def test_validate_and_run_reject_the_same_bad_fields(tmp_path, capsys,
                                                     overrides, field):
    config = write_config(tmp_path, **overrides)
    for argv in (["validate", str(config)],
                 ["run", str(config), "--out", str(tmp_path / "out"),
                  "--mc-samples", "10"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(field), err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"mc": {"sample": 100}},
     "mc: unknown field 'sample' (known: samples, seed)"),
    ({"index": [2]}, "config: unknown field 'index' (known: id, target, "
     "family, indices, mc, outputs)"),
    ({"target": {"alphas": [1.0, 2.0], "alpha": [1.0]}},
     "target: unknown field 'alpha' (known: alphas)"),
    ({"family": {"name": "diag", "entries": [[1.0, 0.0]], "signs": "positive"}},
     "family: unknown field 'signs' of family 'diag' (known: name, entries)"),
    ({"family": {"name": "equal-split", "scale": 2.0}}, "family: unknown "
     "field 'scale' of family 'equal-split' (known: name, signs)"),
    ({"family": {**RANK_ONE, "entries": []}}, "family: unknown field "
     "'entries' of family 'rank-one-difference' (known: name, scale)"),
    ({"target": {"alpha": [1.0]}}, "target: unknown field 'alpha' (known: "
     "alphas); target: object with an 'alphas' list required"),
    ({"mc": {"seed": 1, "Samples": 10, "\n": 0}},
     "mc: unknown field 'Samples' (known: samples, seed); "
     "mc: unknown field '\\n' (known: samples, seed)"),
])
def test_validate_and_run_reject_unknown_fields(tmp_path, capsys, overrides,
                                                message):
    # a misspelt field is an error, not a default silently used
    config = write_config(tmp_path, **overrides)
    assert main(["validate", str(config)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale, outputs, message", [
    (1e200, ["cumulant_gaps", "gamma_stat"], "kappa_gap_2 = inf is not finite"),
    # the exact columns are checked before any sampling
    (1e308, ["ks"], "kappa_gap_2 = inf is not finite"),
])
def test_non_finite_values_exit_3_naming_n(tmp_path, capsys, monkeypatch,
                                           scale, outputs, message):
    def unreachable(*args):
        raise AssertionError("Monte Carlo ran after a non-finite exact column")

    monkeypatch.setattr(cli.montecarlo, "_sample_weights", unreachable)
    monkeypatch.setattr(cli.montecarlo, "kolmogorov_distance", unreachable)
    config = write_config(tmp_path, target={"alphas": [0.5, -0.5]},
                          family={**RANK_ONE, "scale": scale}, outputs=outputs)
    assert main(["validate", str(config)]) == 0
    capsys.readouterr()
    code = main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--mc-samples", "10", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"scenario 'tiny' aborted at n=2: {message}"), err
    assert not (tmp_path / "out" / "tiny.csv").exists()


def test_a_non_finite_sample_exits_3_before_the_distance_runs(
        tmp_path, capsys, monkeypatch):
    # finite exact columns, one infinite Monte Carlo value
    def sample(weights, n, seed):
        values = np.zeros(n)
        values[n // 2] = math.inf
        return montecarlo.SampleBatch(values, seed)

    def unreachable(*args):
        raise AssertionError("the Kolmogorov distance ran on a non-finite sample")

    monkeypatch.setattr(cli.montecarlo, "_sample_weights", sample)
    monkeypatch.setattr(cli.montecarlo, "kolmogorov_distance", unreachable)
    monkeypatch.setattr(cli, "TargetLaw", unreachable)
    config = write_config(tmp_path, target={"alphas": [0.5, -0.5]},
                          family=RANK_ONE, outputs=["ks"])
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--mc-samples", "10", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err == ("scenario 'tiny' aborted at n=2: Monte Carlo sample for ks "
                   "holds a non-finite value\n")
    assert not (tmp_path / "out" / "tiny.csv").exists()


def test_an_infinite_exact_column_is_named_before_the_target_cdf_runs(
        tmp_path, capsys, monkeypatch):
    # with ks on, the target CDF at x = 1.6e198 found no remainder bound
    # and its message named no column
    def unreachable(spec):
        raise AssertionError("TargetLaw built after a non-finite exact column")

    monkeypatch.setattr(cli, "TargetLaw", unreachable)
    entries = [[1e200, 0.0], [2.0, -1.0], [0.0, 1.0]]
    config = write_config(tmp_path, family={"name": "diag", "entries": entries},
                          mc={"samples": 200, "seed": 1},
                          outputs=["cumulant_gaps", "gamma_stat", "ks"])
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "scenario 'tiny' aborted at n=2: kappa_gap_2 = inf is not finite\n"


def test_a_target_weight_beyond_the_float_range_names_its_column(tmp_path,
                                                                 capsys):
    # a Python float power raised OverflowError here, naming no column
    config = write_config(tmp_path, target={"alphas": [1e200]})
    assert main(["validate", str(config)]) == 0
    capsys.readouterr()
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--no-mc"]) == 3
    err = capsys.readouterr().err
    assert err == "scenario 'tiny' aborted at n=2: kappa_gap_2 = inf is not finite\n"


def test_a_sample_count_the_machine_cannot_hold_exits_3(tmp_path, capsys,
                                                        monkeypatch):
    # the sampler's np.empty(n) raised MemoryError, a traceback and exit 1;
    # it is replaced here, so nothing is allocated
    def sample(weights, n, seed):
        raise MemoryError(f"Unable to allocate {8 * n} bytes")

    monkeypatch.setattr(cli.montecarlo, "_sample_weights", sample)
    config = write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--mc-samples", "1000000000000"]) == 3
    err = capsys.readouterr().err
    assert err == ("scenario 'tiny' aborted at n=2: out of memory with "
                   "mc.samples = 1000000000000\n")
    assert not (tmp_path / "out" / "tiny.csv").exists()


@pytest.mark.parametrize("scenario_id, ok", [
    ("x" * 242, True),           # <id>_summary.json is 255 bytes
    ("x" * 243, False),
    ("\u00e9" * 121, True),      # two bytes a character: 255 bytes
    ("\u00e9" * 122, False),
    ("a\ud800b", False),         # a lone surrogate has no file-name bytes
    ("with space", True),
    ("a\nb", False),             # a line break would split a printed path
    ("a\rb", False),
    ("a\u2028b", False),
    ("\x1b[0m", False),          # a terminal escape
])
def test_the_id_must_make_file_names_the_system_takes(tmp_path, capsys,
                                                      scenario_id, ok):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "id": scenario_id}))
    out = tmp_path / "out"
    argvs = (["validate", str(config)],
             ["run", str(config), "--out", str(out), "--no-mc"])
    codes = [main(argv) for argv in argvs]
    err = capsys.readouterr().err
    if ok:
        assert codes == [0, 0] and err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            f"{scenario_id}.csv", f"{scenario_id}_summary.json"]
    else:
        assert codes == [2, 2]
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0].startswith("id: ")
        assert not out.exists()


def test_the_output_does_not_depend_on_the_number_of_workers(tmp_path,
                                                             monkeypatch):
    # the shipped scenarios, fewer samples: d reaches 256, every output kind
    # is on somewhere, and each index has its own seed and TargetLaw.  Three
    # workers, switching threads often, run indices side by side even on a
    # one-core host.
    default = cli._workers
    assert default(8) == min(8, len(os.sched_getaffinity(0)))
    assert default(1) == 1
    runs = {}
    interval = sys.getswitchinterval()
    for label, workers in (("default", default), ("one", lambda n: 1),
                           ("three", lambda n: min(3, n))):
        monkeypatch.setattr(cli, "_workers", workers)
        if label == "three":
            sys.setswitchinterval(1e-5)
        try:
            for name, path in shipped_scenarios().items():
                csv_path, summary_path = run_scenario(
                    path, tmp_path / label / name, mc_samples=3000)
                runs[label, name] = (csv_path.read_bytes(),
                                     summary_path.read_bytes())
        finally:
            sys.setswitchinterval(interval)
    for name in shipped_scenarios():
        assert runs["one", name] == runs["default", name], name
        assert runs["one", name] == runs["three", name], name


# Each shipped scenario runs once per condition in a child process, at its
# default 1e5 samples, and every check below reads that one run.
# run computes one index per usable core; pinned to core 0 it has one, so
# its indices run one after another.  No step of run calls a BLAS product,
# so one BLAS thread is only a guard: a BLAS product that came back and
# summed differently on one thread would move a byte.  Eight workers hold
# eight indices' samples and KS arrays at once.
CHILD_CONDITIONS = {
    "all cores": {},
    "one core": {"one_core": True},
    "one BLAS thread": {"env": {"OPENBLAS_NUM_THREADS": "1"}},
    "eight workers": {"workers": 8},
}


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory, python_child):
    """shipped_run(name, condition) -> (csv bytes, summary bytes, peak RSS
    in MB) of ``run <name>`` in a child process, run once per module."""
    runs = {}

    def run(name, condition):
        if (name, condition) not in runs:
            out = tmp_path_factory.mktemp("shipped")
            argv = ["run", name, "--out", str(out)]
            options = dict(CHILD_CONDITIONS[condition])
            workers = options.pop("workers", None)
            args = (["-m", "chi2chaos", *argv] if workers is None else
                    ["-c", "import sys; from chi2chaos import cli; "
                           f"cli._workers = lambda tasks: min({workers}, "
                           f"tasks); sys.exit(cli.main({argv!r}))"])
            _, peak = python_child(args, **options)
            runs[name, condition] = (
                (out / f"{name}.csv").read_bytes(),
                (out / f"{name}_summary.json").read_bytes(), peak)
        return runs[name, condition]
    return run


def test_a_pinned_child_has_one_usable_core(python_child):
    # else the one-core runs below would compare every core with itself
    out, _ = python_child(
        ["-c", "import os; print(len(os.sched_getaffinity(0)))"],
        one_core=True)
    assert out == "1"


def test_the_shipped_scenarios_stay_within_the_cdf_work_ceilings(shipped_run):
    # every index must stop on a remainder bound below 1e-6 and use at most
    # 48 of the 64 doublings, so a drift toward the guards shows here before
    # it turns into a NumericalError.  Quadrature points per inverted point
    # stay under a ceiling about 25% above the most any index takes, so a
    # weaker stop rule shows too: the two-term tail bound took 362-704.
    ceilings = {"gamma-nu1": 350, "second-chaos-converging": 290,
                "two-eigenvalue-q2-example": 280,
                "gaussian-counterexample": 280}
    bad = [f"{name}: no quadrature-point ceiling"
           for name in shipped_scenarios() if name not in ceilings]
    peaks = {}
    for name in shipped_scenarios():
        _, summary, peaks[name] = shipped_run(name, "all cores")
        for row in json.loads(summary)["cdf_diagnostics"]["by_index"]:
            where = f"{name} n={row['n']}"
            if not row["max_bound"] < 1e-6 or row["max_doublings"] > 48:
                bad.append(f"{where}: bound {row['max_bound']:g}, "
                           f"{row['max_doublings']} doublings")
            stopped = row["stopped_on"]
            if (set(stopped) != {"envelope", "three_terms"}
                    or sum(stopped.values()) != row["points"]):
                bad.append(f"{where}: stopped_on {stopped} for "
                           f"{row['points']} points")
            per_point = row["quadrature_points"] / row["points"]
            if per_point > ceilings.get(name, 0):
                bad.append(f"{where}: {per_point:.1f} quadrature points "
                           f"per point, ceiling {ceilings.get(name)}")
    assert bad == [], "\n".join(bad)
    # gaussian-counterexample reaches d = 256, where a sample block of
    # 16 384 rows once took its run to 155 MB.  One index runs on each
    # usable core, and peak memory grows with them.
    cores = len(os.sched_getaffinity(0))
    assert max(peaks.values()) < 100, (peaks, f"{cores} usable cores")


@pytest.mark.parametrize("condition", ["one core", "one BLAS thread"])
def test_one_core_and_one_blas_thread_write_the_same_bytes(shipped_run,
                                                          condition):
    for name in shipped_scenarios():
        assert (shipped_run(name, condition)[:2]
                == shipped_run(name, "all cores")[:2]), name


@pytest.mark.parametrize("name", ["second-chaos-converging",
                                  "gaussian-counterexample"])
def test_eight_workers_write_the_same_bytes_under_85_mb(shipped_run, name):
    # each worker holds its own index's sample, sorted copy and CDF values
    # and one quadrature block at a time, so peak memory grows with the
    # workers: the two (1, 2) scenarios peak near 69 MB at eight.  85 MB
    # leaves room for that and still catches CDF blocks of twice the
    # points, which took second-chaos-converging over 100 MB.
    csv_bytes, summary, peak = shipped_run(name, "eight workers")
    assert (csv_bytes, summary) == shipped_run(name, "all cores")[:2]
    assert peak < 85, f"{peak:.1f} MB"


def test_the_exact_columns_match_the_golden_file(tmp_path):
    # run --no-mc on the shipped scenarios, one (scenario, n, column, value)
    # row per entry.  The bitwise tests compare the code with itself; this
    # file holds the values themselves, so a NumPy release that moves them
    # shows here.  The absolute floor covers the rounding noise of
    # two-eigenvalue-q2-example: its kappa_gap_3 is 0 to 3.3e-16 and its
    # cond_a is +-4.2e-17.
    with open(Path(__file__).with_name("shipped_no_mc.csv")) as fh:
        want = {(row["scenario"], int(row["n"]), row["column"]):
                float(row["value"]) for row in csv.DictReader(fh)}
    got = {}
    for name, path in shipped_scenarios().items():
        csv_path, _ = run_scenario(path, tmp_path / name, no_mc=True)
        with open(csv_path) as fh:
            for row in csv.DictReader(fh):
                for column, value in row.items():
                    if column != "n":
                        got[name, int(row["n"]), column] = float(value)
    assert got.keys() == want.keys()
    assert [key for key in want if not abs(got[key] - want[key])
            <= 1e-12 * abs(want[key]) + 1e-14] == []


# np.convolve takes its dot products through BLAS too
BLAS_PRODUCTS = ("tensordot", "dot", "matmul", "inner", "vdot", "convolve")


def test_the_shipped_scenarios_run_without_a_blas_product(tmp_path,
                                                          monkeypatch):
    # BLAS threads would compete with run's index workers for the cores,
    # so each shipped scenario must run with NumPy's BLAS products raising
    def blas(*args, **kwargs):
        raise AssertionError("a BLAS product was called")

    for name in BLAS_PRODUCTS:
        monkeypatch.setattr(np, name, blas)
    for name, path in shipped_scenarios().items():
        run_scenario(path, tmp_path / name, mc_samples=2000)


def test_the_package_source_has_no_blas_product():
    # the guard above cannot see the @ operator, a method call or einsum's
    # optimize path (which calls tensordot), so read the source: none of
    # them, no BLAS product by name and no np.linalg call but the eigh of
    # spectral2.spectral, which only the cross-checks use
    found = []
    for path in sorted(Path(chi2chaos.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult):
                found.append(f"{where} @")
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "einsum"
                  and any(k.arg == "optimize" for k in node.keywords)):
                found.append(f"{where} einsum optimize")
            elif isinstance(node, ast.Attribute):
                on_numpy = (isinstance(node.value, ast.Name)
                            and node.value.id in ("np", "numpy"))
                # sym_tensor.inner is no BLAS product
                if node.attr in BLAS_PRODUCTS and (on_numpy
                                                   or node.attr != "inner"):
                    found.append(f"{where} {node.attr}")
                elif (isinstance(node.value, ast.Attribute)
                      and node.value.attr == "linalg" and node.attr != "eigh"):
                    found.append(f"{where} linalg.{node.attr}")
    assert found == []


def test_workers_without_affinity_masks_are_the_cpu_count(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert [cli._workers(n) for n in (1, 4, 6, 9)] == [1, 4, 6, 6]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert [cli._workers(n) for n in (1, 9)] == [1, 1]


def test_the_first_failing_index_is_the_one_reported(tmp_path, capsys,
                                                    monkeypatch):
    # indices 4 and 16 fail: a serial run reports n = 4, though n = 16, the
    # first to start, fails first
    ran = []
    spectrum_of = cli.family_spectrum

    def family_spectrum(family, n):
        ran.append(n)
        if n in (4, 16):
            raise cli.ResourceGuardError(f"spectrum {n} is too large")
        return spectrum_of(family, n)

    monkeypatch.setattr(cli, "family_spectrum", family_spectrum)
    monkeypatch.setattr(cli, "_workers", lambda n: 1)
    config = write_config(tmp_path, indices=[2, 4, 8, 16])
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "scenario 'tiny' aborted at n=4: spectrum 4 is too large\n"
    # the config check at n = 1, then the largest n first
    assert ran == [1, 16, 8, 4, 2]
    assert not (tmp_path / "out" / "tiny.csv").exists()


def test_a_non_finite_run_prints_only_its_one_line(tmp_path):
    # NumPy's overflow warnings in the worker threads would come first
    # unless the CLI's np.errstate reaches them
    config = write_config(tmp_path, target={"alphas": [0.5, -0.5]},
                          family={**RANK_ONE, "scale": 1e308},
                          outputs=["cumulant_gaps", "gamma_stat", "ks"])
    proc = subprocess.run(
        [sys.executable, "-m", "chi2chaos", "run", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(chi2chaos.__file__).parents[1])})
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "scenario 'tiny' aborted at n=2: kappa_gap_2 = inf is not finite"]


def test_each_index_runs_under_the_callers_error_handling(tmp_path,
                                                         monkeypatch):
    # NumPy < 2 keeps np.errstate per thread, NumPy >= 2 per context, and
    # neither reaches a pool's worker threads by itself
    seen = []
    index_row = cli._index_row

    def recording(scenario, position, with_mc):
        seen.append(np.geterr())
        return index_row(scenario, position, with_mc)

    monkeypatch.setattr(cli, "_index_row", recording)
    monkeypatch.setattr(cli, "_workers", lambda n: 2)
    config = write_config(tmp_path, outputs=["cumulant_gaps", "gamma_stat"])
    with np.errstate(over="ignore", invalid="raise", divide="warn"):
        want = np.geterr()
        run_scenario(config, tmp_path / "out", no_mc=True)
    assert want != np.geterr()
    assert seen == [want] * 3


# one odd value goes into one field of BASE_CONFIG
ODD_VALUES = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, 1e308, -1e308]),
    st.lists(st.floats(-3.0, 3.0), max_size=2),
    st.integers(-3, 10), st.floats(-10.0, 10.0),
)


def _put(doc, field, value):
    if field == "target.alphas[0]":
        doc["target"]["alphas"][0] = value
    elif field.startswith("family.entries[0]"):
        doc["family"]["entries"][0][int(field[-2])] = value
    elif field == "family.scale":
        doc["family"] = {**RANK_ONE, "scale": value}
    elif field == "family.signs":
        doc["family"] = {"name": "equal-split", "signs": value}
    elif field == "indices[0]":
        doc["indices"][0] = value
    else:
        doc["id"] = value


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


@settings(max_examples=60, deadline=None)
@example(field="id", value="\r")
@given(field=st.sampled_from(["target.alphas[0]", "family.entries[0][0]",
                              "family.entries[0][1]", "family.scale",
                              "family.signs", "indices[0]", "id"]),
       value=ODD_VALUES)
def test_validate_and_run_agree_on_any_field_value_property(field, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    _put(doc, field, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        checked, _, check_err = _cli(["validate", str(config)])
        ran, out, run_err = _cli(["run", str(config), "--out",
                                  str(Path(tmp) / "out"), "--no-mc"])
        assert checked in (0, 2) and ran in (0, 2, 3)
        assert (checked == 2) == (ran == 2), (check_err, run_err)
        if ran:
            assert len(run_err) == 1, run_err
        else:
            rows = Path(out[0]).read_text().splitlines()[1:]
            assert all(math.isfinite(float(v))
                       for row in rows for v in row.split(","))


# The config fuzzer: 1-3 changes to a shipped config, each a value put at
# one place in it (a field, a list item, a new key) or a key taken out.
# Deep lists are written as text, as deep as the JSON decoder takes and
# beyond; a file may be written as Latin-1, which is not UTF-8.
DEEP = "\x00deep{}\x00"
FUZZ_VALUES = st.one_of(
    # numbers that many fields take, so that a share of the configs run
    st.sampled_from([1, 2, 3, 0.5, -0.5, 2.0, 64, 2 ** 64, 10 ** 400]),
    st.sampled_from([
        -1, 0, 1, 2, 2 ** 64, 10 ** 400, 1e308, -1e308, 0.5, math.nan,
        math.inf, -math.inf, True, False, None, "", "x", "caf\u00e9", "a/b",
        "\n", "x" * 300, [], {}, [1, 2], [[1.0, 0.0]], [[1.0]], [[[1.0, 0.0]]],
        *cli.FAMILY_FIELDS, "alternating", "positive", *cli.KNOWN_OUTPUTS,
        {"name": "diag"}, {"name": "equal-split"},
        {"name": "rank-one-difference", "scale": 2 ** 64}]),
    st.sampled_from([5, 900, 3000]).map(DEEP.format),
    st.recursive(st.none() | st.booleans() | st.integers(-3, 3)
                 | st.floats(-1e3, 1e3) | st.text(max_size=3),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                 max_leaves=6),
)
SHIPPED_DOCS = {name: json.loads(path.read_text())
                for name, path in shipped_scenarios().items()}


def _places(value, where=()):
    """Every place in a parsed config: (container path, key or index)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [place for key, item in items
            for place in [(where, key)] + _places(item, where + (key,))]


# whole fields that the config rules take, so that a share of the fuzzed
# configs runs: the large indices reach the guards of the spectrum and of
# the d x d kernel
VALID_FIELDS = {
    "id": ["fuzz", "x" * 242],
    "target": [{"alphas": [0.5]}, {"alphas": [1.0, -2.0]},
               {"alphas": [3.0, 1.0, -0.5]}],
    "family": [{"name": "diag", "entries": [[2.0, -1.0]]},
               {"name": "equal-split", "signs": "positive"},
               {"name": "equal-split"}, {"name": "rank-one-difference"},
               {"name": "rank-one-difference", "scale": -2}],
    "indices": [[1], [3, 5], [2, 10 ** 6], [1, 2 ** 64]],
    "mc": [{}, {"samples": 5}, {"seed": 2 ** 64 - 2}],
    "outputs": [[], ["ks"], ["q_chaos"], ["gamma_stat", "empirical_cumulants"],
                list(cli.KNOWN_OUTPUTS)],
}


@st.composite
def fuzzed_configs(draw):
    """The bytes of a shipped config with 1-3 changes, indices [1, 2]."""
    doc = json.loads(json.dumps(SHIPPED_DOCS[draw(st.sampled_from(
        sorted(SHIPPED_DOCS)))]))
    doc["indices"] = [1, 2]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            field = draw(st.sampled_from(sorted(VALID_FIELDS)))
            doc[field] = copy.deepcopy(draw(st.sampled_from(VALID_FIELDS[field])))
            continue
        # a wide integer, reduced, picks every place about as often:
        # Hypothesis draws the first items of a short list most often
        places = _places(doc) + [((), "new")]
        where, key = places[draw(st.integers(0, 2 ** 16)) % len(places)]
        container = doc
        for step in where:
            container = container[step]
        if isinstance(container, dict) and not draw(st.integers(0, 3)):
            container.pop(key, None)
        elif isinstance(container, (dict, list)):
            # a copy: a later change must not reach the shared pool value
            container[key] = copy.deepcopy(draw(FUZZ_VALUES))
    text = re.sub(r'"\\u0000deep(\d+)\\u0000"',
                  lambda m: "[" * int(m[1]) + "]" * int(m[1]),
                  json.dumps(doc, ensure_ascii=False))
    encoding = draw(st.sampled_from(["utf-8", "latin-1"]))
    return text.encode(encoding, errors="replace")


@settings(max_examples=400, deadline=None)
@given(config_bytes=fuzzed_configs())
def test_validate_and_run_agree_on_fuzzed_shipped_configs(config_bytes):
    # every exit code is 0, 2 or 3, with at most one stderr line and no
    # traceback; a config validate rejects, run rejects with the same line
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(config_bytes)
        checked, _, check_err = _cli(["validate", str(config)])
        assert checked in (0, 2, 3) and len(check_err) <= 1, check_err
        if checked == 2:
            ran, _, run_err = _cli(["run", str(config), "--out",
                                    str(Path(tmp) / "out")])
            assert (ran, run_err) == (2, check_err)
            assert not (Path(tmp) / "out").exists()
        else:
            ran, _, run_err = _cli(["run", str(config), "--out",
                                    str(Path(tmp) / "out"),
                                    "--mc-samples", "64"])
            assert ran in (0, 3) and len(run_err) == (ran == 3), run_err
        assert not any("Traceback" in line for line in check_err + run_err)
