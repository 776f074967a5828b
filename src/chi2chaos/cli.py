"""Config-driven experiment runner.

A scenario names a target law, a parametrized kernel family f_n, the index
set to sweep, and which metrics to report.  For each n the runner evaluates
the exact criterion (cumulant gaps and the gamma statistic), optionally the
order-q contraction conditions, and optionally Monte Carlo validation
(empirical cumulants and the Kolmogorov distance to the target CDF).  Exact
columns are bitwise reproducible; Monte Carlo columns are reproducible given
the seed, which is offset by the index position to give each n its own
substream.

Exit codes: 0 success, 2 configuration error or unusable output path,
3 numerical-guard abort or internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, criteria, montecarlo, sym_tensor
from .chaos import ChaosExpansion
from .errors import ConfigError, ConsistencyError, NumericalError, ResourceGuardError
from .montecarlo import TargetLaw
from .spectral2 import TargetSpec, finite_real
from .sym_tensor import SymmetricKernel

KNOWN_OUTPUTS = ("cumulant_gaps", "gamma_stat", "ks", "empirical_cumulants",
                 "q_chaos")
DEFAULT_MC_SAMPLES = 100_000
# the longest file name most file systems take, in bytes
NAME_MAX = 255
METRIC_LABELS = {
    "gamma_stat": "unconditional (sufficient)",
    "distance": "kolmogorov",
}


@dataclass(frozen=True)
class Scenario:
    id: str
    target: TargetSpec
    family: dict
    indices: tuple
    mc_samples: int
    mc_seed: int
    outputs: tuple


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def config_diagnostics(doc) -> list:
    """Schema and invariant report for a parsed config; empty means valid."""
    out = []
    if not isinstance(doc, dict):
        return ["config: top-level JSON object expected"]
    # the id names the output files <id>.csv and <id>_summary.json
    scenario_id = doc.get("id")
    if (not isinstance(scenario_id, str) or not scenario_id
            or "/" in scenario_id or "\0" in scenario_id):
        out.append(f"id: plain file name required (nonempty, no '/'), "
                   f"got {scenario_id!r}")
    else:
        # the longer name, <id>_summary.json, must fit a file name
        try:
            size = len(os.fsencode(scenario_id + "_summary.json"))
        except UnicodeEncodeError:
            out.append(f"id: not encodable as a file name, got {scenario_id!r}")
        else:
            if size > NAME_MAX:
                out.append(f"id: {scenario_id[:16]!r}... makes the file name "
                           f"<id>_summary.json {size} bytes long, over "
                           f"{NAME_MAX}")
    target = doc.get("target")
    if not isinstance(target, dict) or not isinstance(target.get("alphas"), list):
        out.append("target: object with an 'alphas' list required")
    else:
        try:
            TargetSpec(tuple(target["alphas"]))
        except ConfigError as exc:
            out.append(f"target.{exc}")
    # family_kernel owns the family rules, and none of them depends on n
    try:
        family_kernel(doc.get("family"), 1)
    except ConfigError as exc:
        out.append(str(exc))
    indices = doc.get("indices")
    if not isinstance(indices, list) or not indices:
        out.append("indices: nonempty list required")
    else:
        for i, n in enumerate(indices):
            if not _is_int(n) or n < 1:
                out.append(f"indices[{i}]: positive integer required, got {n!r}")
                break
            if i > 0 and n <= indices[i - 1]:
                out.append(f"indices[{i}]: must be strictly increasing "
                           f"({n} follows {indices[i - 1]})")
                break
    outputs = doc.get("outputs", [])
    if not isinstance(outputs, list):
        out.append("outputs: list required")
        outputs = []
    mc = doc.get("mc", {})
    if not isinstance(mc, dict):
        out.append("mc: object expected")
    else:
        samples = mc.get("samples", DEFAULT_MC_SAMPLES)
        # k_statistics(batch, 4) needs more than 4 rows
        least = 5 if "empirical_cumulants" in outputs else 1
        if not _is_int(samples) or samples < least:
            out.append(f"mc.samples: integer >= {least} required"
                       + (" with 'empirical_cumulants'" if least > 1 else "")
                       + f", got {samples!r}")
        # the Philox key is a uint64, and the index at position i uses seed + i
        most = 2 ** 64 - (len(indices) if isinstance(indices, list) else 1)
        seed = mc.get("seed", 0)
        if not _is_int(seed) or not 0 <= seed <= most:
            out.append(f"mc.seed: integer in [0, 2**64 - len(indices)] = "
                       f"[0, {most}] required, got {seed!r}")
    for name in outputs:
        if name not in KNOWN_OUTPUTS:
            out.append(f"outputs: unknown metric {name!r} "
                       f"(known: {', '.join(KNOWN_OUTPUTS)})")
    if "q_chaos" in outputs and isinstance(target, dict):
        alphas = target.get("alphas", [])
        if isinstance(alphas, list) and len(alphas) != 2:
            out.append("outputs: 'q_chaos' requires a two-weight target")
    return out


def validate_config(path) -> list:
    """Diagnostics for a config file without running it."""
    try:
        doc = _read_config(path)
    except OSError as exc:
        return [f"config: cannot read {path}: {exc}"]
    except ConfigError as exc:
        return [str(exc)]
    return config_diagnostics(doc)


def _read_config(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON: {exc}") from None


def load_config(path) -> Scenario:
    return _scenario(_read_config(path))


def _scenario(doc) -> Scenario:
    problems = config_diagnostics(doc)
    if problems:
        raise ConfigError("; ".join(problems))
    mc = doc.get("mc", {})
    return Scenario(
        id=doc["id"],
        target=TargetSpec(tuple(doc["target"]["alphas"])),
        family=doc["family"],
        indices=tuple(doc["indices"]),
        mc_samples=int(mc.get("samples", DEFAULT_MC_SAMPLES)),
        mc_seed=int(mc.get("seed", 0)),
        outputs=tuple(doc.get("outputs", ())),
    )


def family_kernel(family: dict, n: int) -> SymmetricKernel:
    """Construct the order-2 scenario kernel f_n from its family parameters.

    A bad parameter raises ConfigError naming its field, whatever n is.
    """
    if not isinstance(family, dict) or "name" not in family:
        raise ConfigError("family: must be an object with a 'name' field")
    name = family["name"]
    if name == "diag":
        entries = family.get("entries")
        if (not isinstance(entries, list) or not entries
                or not all(isinstance(e, list) and len(e) == 2 for e in entries)):
            raise ConfigError("family.entries: expected a nonempty list of "
                              "[base, perturbation] pairs")
        vals = [finite_real(base, f"family.entries[{i}][0]")
                + finite_real(pert, f"family.entries[{i}][1]") / n
                for i, (base, pert) in enumerate(entries)]
        return SymmetricKernel(2, len(vals), np.diag(vals))
    if name == "equal-split":
        signs = family.get("signs", "alternating")
        if signs not in ("alternating", "positive"):
            raise ConfigError("family.signs: expected 'alternating' or "
                              f"'positive', got {signs!r}")
        sym_tensor._check_guard(2, n)  # kernel dimension grows with n
        mag = 1.0 / math.sqrt(2.0 * n)
        if signs == "alternating":
            vals = [mag if i % 2 == 0 else -mag for i in range(n)]
        else:
            vals = [mag] * n
        return SymmetricKernel(2, n, np.diag(vals))
    if name == "rank-one-difference":
        scale = finite_real(family.get("scale", 0.5), "family.scale")
        if scale == 0.0:
            raise ConfigError("family.scale: nonzero number required")
        c = 1.0 / n
        u = np.array([1.0, 0.0])
        v = np.array([c, math.sqrt(1.0 - c * c)])
        return SymmetricKernel(2, 2, scale * (np.outer(u, u) - np.outer(v, v)))
    raise ConfigError(f"family.name: unknown family {name!r} "
                      "(known: diag, equal-split, rank-one-difference)")


def _workers(tasks: int) -> int:
    """Threads for a scenario's indices: one per usable core, at most one
    per index.  Each worker holds its own index's sample and CDF buffers,
    so peak memory grows with the number of workers."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity masks (macOS, Windows)
        cores = os.cpu_count() or 1
    return min(cores, tasks)


def _index_row(scenario: Scenario, position: int, with_mc: bool):
    """(row, cdf_work, kappa_se) of the index at ``position``: its CSV row
    in column order, its target-CDF work and the standard errors of its
    emp_kappa_* columns (None where not computed).  It builds its own
    ``TargetLaw``, which is not safe to share between threads."""
    n = scenario.indices[position]
    sampled_for = [name for name in scenario.outputs
                   if with_mc and name in ("ks", "empirical_cumulants")]
    work = se = None
    try:
        kernel = family_kernel(scenario.family, n)
        F = ChaosExpansion.from_kernel(kernel)
        report = criteria.criterion_statistic(F, scenario.target)
        exact = {}
        for (r, _, _, gap) in report.cumulant_gaps:
            exact[f"kappa_gap_{r}"] = gap
        exact["gamma_stat"] = report.gamma_stat
        conditions = {}
        if "q_chaos" in scenario.outputs:
            for key, val in criteria.q_chaos_conditions(
                    kernel, scenario.target).items():
                conditions[f"cond_{key}"] = val
        # the exact columns are checked before Monte Carlo, which a
        # non-finite kernel would only make fail less clearly
        _check_finite(exact | conditions)
        sampled = {}
        if sampled_for:
            batch = montecarlo.sample_chaos(
                F, scenario.mc_samples, scenario.mc_seed + position)
            if not np.isfinite(batch.values).all():
                raise NumericalError(
                    f"Monte Carlo sample for {', '.join(sampled_for)} "
                    "holds a non-finite value")
            if "ks" in scenario.outputs:
                law = TargetLaw(scenario.target)
                sampled["ks"] = montecarlo.kolmogorov_distance(
                    batch.values, law.cdf_batch)
                work = {"n": n, **law.take_diagnostics()}
            if "empirical_cumulants" in scenario.outputs:
                emp = montecarlo.k_statistics(batch, 4)
                errors = montecarlo.k_statistic_errors(batch, 4)
                se = {"n": n}
                for r in (2, 3, 4):
                    sampled[f"emp_kappa_{r}"] = emp[r - 1]
                    se[f"emp_kappa_{r}"] = errors[r - 1]
            _check_finite(sampled)
    except (ResourceGuardError, NumericalError, ConsistencyError) as exc:
        raise type(exc)(f"scenario {scenario.id!r} aborted at n={n}: {exc}")
    except OverflowError as exc:  # a float power beyond the float range
        raise NumericalError(f"scenario {scenario.id!r} aborted at n={n}: "
                             f"overflow: {exc}") from None
    except MemoryError:  # e.g. an mc.samples too large for the machine
        raise ResourceGuardError(
            f"scenario {scenario.id!r} aborted at n={n}: out of memory "
            f"with mc.samples = {scenario.mc_samples}") from None
    # each row is built in CSV column order
    return {"n": n, **exact, **sampled, **conditions}, work, se


def _check_finite(columns: dict):
    for column, val in columns.items():
        if not math.isfinite(val):
            raise NumericalError(f"{column} = {val} is not finite")


def run_scenario(config_path, out_dir, mc_samples=None, seed=None,
                 no_mc: bool = False):
    """Run one scenario end to end; returns (csv_path, summary_path)."""
    # imported here: concurrent.futures imports logging, about 12 ms of
    # start-up that validate and list-scenarios do not need
    from concurrent.futures import ThreadPoolExecutor

    doc = _read_config(config_path)
    # the overrides go into the document, so the config rules check them too
    if isinstance(doc, dict) and isinstance(doc.get("mc", {}), dict):
        mc = dict(doc.get("mc", {}))
        if mc_samples is not None:
            mc["samples"] = int(mc_samples)
        if seed is not None:
            mc["seed"] = int(seed)
        doc["mc"] = mc
    scenario = _scenario(doc)
    with_mc = not no_mc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    positions = range(len(scenario.indices))
    # the caller's floating-point error handling (the CLI's np.errstate),
    # which NumPy < 2 keeps per thread, is set again in each task
    err = np.geterr()

    def row_at(position):
        with np.errstate(**err):
            return _index_row(scenario, position, with_mc)

    with ThreadPoolExecutor(_workers(len(positions))) as pool:
        # the largest n (indices increase) starts first, so it does not run
        # last.  Results are taken in index order, so the outputs and the
        # first error raised are those of a serial run.
        tasks = [pool.submit(row_at, position)
                 for position in reversed(positions)][::-1]
        try:
            results = [task.result() for task in tasks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    rows = [row for row, _, _ in results]
    cdf_work = [work for _, work, _ in results if work is not None]
    kappa_se = [se for _, _, se in results if se is not None]

    columns = list(rows[0])
    csv_path = out_dir / f"{scenario.id}.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format(row.get(c)) for c in columns) + "\n")

    summary = {
        "id": scenario.id,
        "indices": list(scenario.indices),
        "columns": columns,
        "labels": dict(METRIC_LABELS),
        "mc": None if not with_mc else
            {"samples": scenario.mc_samples, "seed": scenario.mc_seed,
             "generator_id": montecarlo.GENERATOR_ID},
        "metrics": {},
        "final": {c: rows[-1].get(c) for c in columns},
        "provenance": {"chi2chaos": __version__, "numpy": np.__version__,
                       "python": platform.python_version(),
                       "generator_id": montecarlo.GENERATOR_ID},
    }
    if kappa_se:
        # standard errors of the emp_kappa_* columns, from 10 sub-batches
        summary["emp_kappa_se"] = kappa_se
    if cdf_work:
        # the 95% quantile of the Kolmogorov statistic of N draws against
        # their own law, 1.36 / sqrt(N) (Marsaglia, Tsang and Wang 2003):
        # a ks near it is Monte Carlo noise
        summary["ks_noise_floor"] = 1.36 / math.sqrt(scenario.mc_samples)
        summary["cdf_diagnostics"] = {
            "guards": {"max_doublings": montecarlo._MAX_DOUBLINGS,
                       "max_subpanels": montecarlo._MAX_SUBPANELS,
                       "max_bound": montecarlo._TOL},
            "by_index": cdf_work,
        }
    for metric in ("gamma_stat", "ks"):
        if metric not in columns:
            continue
        vals = [row[metric] for row in rows]
        decreased = [bool(b < a) for a, b in zip(vals, vals[1:])]
        summary["metrics"][metric] = {
            "values": vals,
            "decreased_at_step": decreased,
            "monotone_decreasing": all(decreased),
        }
    summary_path = out_dir / f"{scenario.id}_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary_path


def _format(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def shipped_scenarios() -> dict:
    """Map scenario id -> packaged config path."""
    base = resources.files("chi2chaos") / "scenarios"
    out = {}
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = Path(str(entry))
    return out


def resolve_config(name_or_path) -> Path:
    """Treat the argument as a path first, then as a shipped scenario id."""
    p = Path(name_or_path)
    if p.exists():
        return p
    shipped = shipped_scenarios()
    if str(name_or_path) in shipped:
        return shipped[str(name_or_path)]
    raise ConfigError(f"config: no file or shipped scenario named {name_or_path!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chi2chaos",
        description="Evaluate chi-squared-combination convergence criteria "
                    "over kernel-sequence scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="config path or shipped scenario id")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--mc-samples", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--no-mc", action="store_true")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")

    sub.add_parser("list-scenarios", help="list the shipped scenarios")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, path in shipped_scenarios().items():
            print(f"{name}\t{path}")
        return 0

    if args.command == "validate":
        try:
            path = resolve_config(args.config)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
        problems = validate_config(path)
        if problems:
            for line in problems:
                print(line, file=sys.stderr)
            return 2
        print("ok")
        return 0

    try:
        path = resolve_config(args.config)
        # a non-finite value ends the run with one line (exit 3), so numpy's
        # floating-point warnings would only repeat it
        with np.errstate(all="ignore"):
            csv_path, summary_path = run_scenario(
                path, args.out, mc_samples=args.mc_samples, seed=args.seed,
                no_mc=args.no_mc)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ResourceGuardError, NumericalError, ConsistencyError) as exc:
        print(exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    print(csv_path)
    print(summary_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
