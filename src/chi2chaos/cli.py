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
3 numerical-guard abort or internal consistency failure (with q_chaos on,
gamma_stat from gamma_sequence disagreeing with (1/2) sum_m m! b_m over the
conditions from gamma_explicit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, chaos, criteria, montecarlo, sym_tensor
from .chaos import ChaosExpansion
from .errors import ConfigError, ConsistencyError, NumericalError, ResourceGuardError
from .montecarlo import TargetLaw
from .spectral2 import TargetSpec, finite_real
from .sym_tensor import SymmetricKernel

KNOWN_OUTPUTS = ("cumulant_gaps", "gamma_stat", "ks", "empirical_cumulants",
                 "q_chaos")
DEFAULT_MC_SAMPLES = 100_000
# the most float64 values one NumPy array can hold: its size in bytes must
# fit an intp (numpy raises ValueError, not MemoryError, above it)
MAX_MC_SAMPLES = np.iinfo(np.intp).max // 8
# the longest file name most file systems take, in bytes
NAME_MAX = 255
# the fields a config may have: at the top level, in target and in mc, and
# in family for each family name
CONFIG_FIELDS = {"config": ("id", "target", "family", "indices", "mc", "outputs"),
                 "target": ("alphas",), "mc": ("samples", "seed")}
FAMILY_FIELDS = {"diag": ("name", "entries"), "equal-split": ("name", "signs"),
                 "rank-one-difference": ("name", "scale")}
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
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _unknown_fields(where, obj, known, of="") -> list:
    return [f"{where}: unknown field {key!r}{of} (known: {', '.join(known)})"
            for key in obj if key not in known]


def config_diagnostics(doc) -> list:
    """Schema and invariant report for a parsed config; empty means valid."""
    return _read_doc(doc)[1]


def _read_doc(doc):
    """(scenario, problems) of a parsed config: each field is checked and
    read, with its default, in one pass; the scenario is None unless the
    problems are empty."""
    if not isinstance(doc, dict):
        return None, ["config: top-level JSON object expected"]
    out = _unknown_fields("config", doc, CONFIG_FIELDS["config"])
    # the id names the output files <id>.csv and <id>_summary.json
    scenario_id = doc.get("id")
    # printable: no NUL, and no line break or escape in a printed path
    if (not isinstance(scenario_id, str) or not scenario_id
            or "/" in scenario_id or not scenario_id.isprintable()):
        out.append(f"id: plain file name required (nonempty, printable, "
                   f"no '/'), got {scenario_id!r}")
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
    target, spec = doc.get("target"), None
    if isinstance(target, dict):
        out += _unknown_fields("target", target, CONFIG_FIELDS["target"])
    if not isinstance(target, dict) or not isinstance(target.get("alphas"), list):
        out.append("target: object with an 'alphas' list required")
    else:
        try:
            spec = TargetSpec(tuple(target["alphas"]))
        except ConfigError as exc:
            out.append(f"target.{exc}")
    # family_kernel owns the family rules and diag's size; none depends on n
    family = doc.get("family")
    try:
        family_kernel(family, 1)
    except ConfigError as exc:
        out.append(str(exc))
    except ResourceGuardError as exc:
        out.append(f"family: {exc}")
    name = family.get("name") if isinstance(family, dict) else None
    if isinstance(name, str) and name in FAMILY_FIELDS:
        out += _unknown_fields("family", family, FAMILY_FIELDS[name],
                               f" of family {name!r}")
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
        out += _unknown_fields("mc", mc, CONFIG_FIELDS["mc"])
        samples = mc.get("samples", DEFAULT_MC_SAMPLES)
        # k_statistics(batch, 4) needs more than 4 rows
        least = 5 if "empirical_cumulants" in outputs else 1
        if not _is_int(samples) or not least <= samples <= MAX_MC_SAMPLES:
            out.append(f"mc.samples: integer in [{least}, {MAX_MC_SAMPLES}] "
                       "required"
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
    # on the raw list, so a target with a bad weight reports this too
    if "q_chaos" in outputs and isinstance(target, dict):
        alphas = target.get("alphas", [])
        if isinstance(alphas, list) and len(alphas) != 2:
            out.append("outputs: 'q_chaos' requires a two-weight target")
    if out:
        return None, out
    return Scenario(id=scenario_id, target=spec, family=family,
                    indices=tuple(indices), mc_samples=int(samples),
                    mc_seed=int(seed), outputs=tuple(outputs)), out


def _read_config(path):
    # RFC 8259 JSON is UTF-8, whatever the locale's default encoding
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # UnicodeDecodeError is a ValueError, like json.JSONDecodeError; a
        # deeply nested document exhausts the decoder's recursion
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config: invalid JSON: {exc}") from None


def load_config(path) -> Scenario:
    """The scenario a config file states.  An unreadable file raises
    OSError; a config with problems raises one ConfigError, its problems
    joined by '; '."""
    return _scenario(_read_config(path))


def _scenario(doc) -> Scenario:
    scenario, problems = _read_doc(doc)
    if problems:
        raise ConfigError("; ".join(problems))
    return scenario


def family_kernel(family: dict, n: int) -> SymmetricKernel:
    """Construct the order-2 scenario kernel f_n from its family parameters.

    A bad parameter raises ConfigError naming its field, whatever n >= 1 is.
    The array comes from ``sym_tensor._zeros``: a ``diag`` family of over
    3 162 entries, or ``equal-split`` at n > 3 162, raises ResourceGuardError.
    """
    n = sym_tensor._integer(n, "n", 1)
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
        coeffs = sym_tensor._zeros(2, len(vals))
        np.fill_diagonal(coeffs, vals)
        return SymmetricKernel(2, len(vals), sym_tensor._sealed(coeffs))
    if name == "equal-split":
        signs = family.get("signs", "alternating")
        if signs not in ("alternating", "positive"):
            raise ConfigError("family.signs: expected 'alternating' or "
                              f"'positive', got {signs!r}")
        coeffs = sym_tensor._zeros(2, n)  # guarded before any work on n
        mag = 1.0 / math.sqrt(2.0 * n)
        np.fill_diagonal(coeffs, (mag, -mag) if signs == "alternating" else mag)
        return SymmetricKernel(2, n, sym_tensor._sealed(coeffs))
    if name == "rank-one-difference":
        scale = finite_real(family.get("scale", 0.5), "family.scale")
        if scale == 0.0:
            raise ConfigError("family.scale: nonzero number required")
        c = 1.0 / n
        u = np.array([1.0, 0.0])
        v = np.array([c, math.sqrt(1.0 - c * c)])
        return SymmetricKernel(2, 2, sym_tensor._sealed(
            scale * (np.outer(u, u) - np.outer(v, v))))
    raise ConfigError(f"family.name: unknown family {name!r} "
                      f"(known: {', '.join(FAMILY_FIELDS)})")


def _workers(tasks: int) -> int:
    """Threads for a scenario's indices: one per usable core, at most one
    per index.  No step of an index calls BLAS (the exact engine contracts
    by einsum), so these workers never share the cores with BLAS threads.
    Each worker holds its own index's sample, its sorted copy and CDF
    values (0.8 MB each at 1e5 samples) and a sample block of at most
    2 MB, so peak memory grows with the number of workers: at 1e5 samples
    second-chaos-converging peaks at about 44, 48, 56 and 68 MB with 1, 2,
    4 and 8 workers."""
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
        found = (criteria.q_chaos_conditions(kernel, scenario.target)
                 if "q_chaos" in scenario.outputs else {})
        conditions = {f"cond_{key}": val for key, val in found.items()}
        # the exact columns are checked before Monte Carlo, which a
        # non-finite kernel would only make fail less clearly
        _check_finite(exact | conditions)
        if found:
            # gamma_sequence and gamma_explicit must give one gamma_stat
            total = criteria.conditions_gamma_stat(found, kernel.order)
            if abs(total - report.gamma_stat) > 1e-9 * abs(report.gamma_stat):
                raise ConsistencyError(
                    f"gamma_stat {report.gamma_stat!r} from gamma_sequence, "
                    f"but (1/2) sum m! b_m = {total!r} from gamma_explicit")
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
        doc["mc"] = doc.get("mc", {}) | {
            key: value for key, value in (("samples", mc_samples),
                                          ("seed", seed)) if value is not None}
    scenario = _scenario(doc)
    with_mc = not no_mc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    positions = range(len(scenario.indices))
    # each task runs under the caller's error handling (the CLI's np.errstate)
    row_at = chaos._under_callers_errstate(
        lambda position: _index_row(scenario, position, with_mc))
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
    with _output(csv_path) as fh:
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
                       "generator_id": montecarlo.GENERATOR_ID,
                       "stream_fingerprint_matched":
                           montecarlo.stream_fingerprint_matches()},
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
    with _output(summary_path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary_path


@contextlib.contextmanager
def _output(path):
    """``open(path, "w")``, but an OSError that names no file, such as a
    full disk in a write or the closing flush, is raised naming path."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise


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


def _path_error(exc: OSError) -> str:
    return f"{exc.filename}: {exc.strerror}"


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

    try:
        path = resolve_config(args.config)
        if args.command == "validate":
            load_config(path)
            print("ok")
            return 0
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
    except OSError as exc:  # e.g. a name longer than the system takes
        print(_path_error(exc), file=sys.stderr)
        return 2
    print(csv_path)
    print(summary_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
