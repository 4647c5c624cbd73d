"""Command-line entry point.

Five subcommands over one JSON model file:

validate   load the model and report the derived checks
solve      robust maximization, report the strategy, value and certificate
saddle     extract and certify a worst-case mixture
simulate   Monte Carlo at a given or solved strategy, against the closed form
verify     saddle + independent recheck + Monte Carlo + martingale test

verify draws one Monte Carlo sample. Under power utility its martingale block
is that sample's expected-utility estimate divided by the closed form, so it
passes exactly when mc_vs_closed_form does, up to rounding, unless the closed
form overflowed or underflowed to 0: then the block reads inf and fails.

Exit codes: 0 success, 1 operational error (also bad usage), 2 for a run that
completed but failed certification or an oracle check.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .errors import FileIoError, ModelError, NanResultError, RlpError, SaddleNotCertifiedError
from .growth import worst_case_growth
from .model_io import ProblemSpec, Report, emit_report, load_model
from .optimizer import (
    SaddleCertificate,
    find_saddle,
    maximize_robust,
    problem_value,
    verify_saddle,
)
from .simulator import closed_form_expected_utility, mc_expected_utility

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, keeping exit code 2 for
    certified failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _checked(convert, accept, expected: str):
    """argparse type: convert the text, then require accept(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got '{text}'")
        return value

    return parse


# The optional flags besides --model, --format and --out, each registered
# only on the subcommands whose handler reads it (see COMMANDS).
_FLAGS = {
    "--pi": dict(type=_checked(lambda t: [float(v) for v in t.split(",")],
                               lambda pi: all(map(math.isfinite, pi)),
                               "comma-separated finite floats"),
                 metavar="FLOATS", help="fixed strategy (comma-separated); default: solve first"),
    "--paths": dict(type=_checked(int, lambda n: n >= 1, "an integer >= 1"), metavar="N",
                    help="Monte Carlo path count (default from the model)"),
    "--seed": dict(type=_checked(int, lambda s: 0 <= s < 2 ** 64, "an integer in [0, 2**64)"),
                   metavar="S", help="simulation seed (default from the model)"),
    "--tol": dict(type=_checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number"),
                  default=1e-6, metavar="X",
                  help="certification or recheck tolerance (default 1e-6)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="rlp", description="Robust constant-proportion "
                     "portfolios under model uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="path to the JSON model file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead of stdout")
    return parser


def _solution_results(spec: ProblemSpec, tol: float) -> dict:
    solution = maximize_robust(spec.theta, spec.feasible, spec.utility)
    value = problem_value(solution.robust_g, spec.utility, spec.x0, spec.horizon)
    return {
        "y_hat": [float(v) for v in solution.y_hat],
        "robust_g": float(solution.robust_g),
        "value": float(value),
        "worst_vertex": solution.worst_vertex,
        "gap": float(solution.certificate.gap),
        "certified": solution.certificate.passes(tol),
        "diagnostics": solution.diagnostics,
    }


def _certificate_results(certificate: SaddleCertificate, certified: bool) -> dict:
    return {
        "y_hat": [float(v) for v in certificate.y_hat],
        "theta_hat_weights": [float(w) for w in certificate.theta_hat_weights],
        "face_multipliers": [float(v) for v in certificate.face_multipliers],
        "value": float(certificate.value),
        "residual_max_y": float(certificate.residual_max_y),
        "residual_min_theta": float(certificate.residual_min_theta),
        "gap": float(certificate.gap),
        "certified": certified,
    }


def _estimate_dict(estimate) -> dict:
    return {
        "mean": float(estimate.mean),
        "stderr": float(estimate.stderr),
        "n_paths": int(estimate.n_paths),
        "seed": int(estimate.seed),
        "minus_inf": bool(estimate.minus_inf),
    }


def _agreement(mean: float, stderr: float, reference: float,
               zero_underflowed: bool = False) -> tuple[float, bool]:
    """Absolute error and the 3.5-sigma agreement flag. Both values at -inf
    (log utility of a strategy that can go bankrupt) agree; any other
    non-finite pair is (inf, False), as nothing can be compared. So is a
    reference of 0 when zero_underflowed: a power-utility closed form
    x0^p e^{pTg}/p never vanishes, so its 0 is an underflow."""
    if mean == reference == -math.inf:
        return 0.0, True
    if not (math.isfinite(mean) and math.isfinite(reference)) or (
            zero_underflowed and reference == 0.0):
        return math.inf, False
    error = abs(mean - reference)
    return error, bool(error <= 3.5 * stderr)


def _pick_strategy(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[np.ndarray, str, dict]:
    if flags.pi is not None:
        pi = np.asarray(flags.pi, dtype=float)
        if len(pi) != spec.dimension:
            raise ModelError(f"--pi needs {spec.dimension} component(s), got {len(pi)}")
        return pi, "user", {}
    results = _solution_results(spec, flags.tol)
    return np.asarray(results["y_hat"]), "solved", results


def _cmd_validate(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    results = {
        "kappa": float(spec.kappa),
        "dimension": int(spec.dimension),
        "n_vertices": len(spec.theta.vertices),
        "n_constraints": int(spec.feasible.m),
    }
    return results, 0, []


def _cmd_solve(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    results = _solution_results(spec, flags.tol)
    if results["certified"]:
        return results, 0, []
    return results, 2, ["solve_uncertified"]


def _cmd_saddle(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    try:
        certificate = find_saddle(spec.theta, spec.feasible, spec.utility, certify_tol=flags.tol)
    except SaddleNotCertifiedError as exc:
        results = _certificate_results(exc.certificate, certified=False)
        results["reason"] = str(exc)
        return results, 2, ["saddle_uncertified"]
    return _certificate_results(certificate, certified=True), 0, []


def _cmd_simulate(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    pi, source, solved = _pick_strategy(spec, flags)
    n_paths = flags.paths if flags.paths is not None else spec.simulation.n_paths
    seed = flags.seed if flags.seed is not None else spec.simulation.seed
    _, worst_idx = worst_case_growth(spec.theta, pi, spec.utility)
    vertex = spec.theta.vertices[worst_idx]
    estimate = mc_expected_utility(vertex, pi, spec.utility, spec.x0,
                                   spec.horizon, n_paths, seed)
    closed = closed_form_expected_utility(vertex, pi, spec.utility, spec.x0,
                                          spec.horizon)
    error, agree = _agreement(estimate.mean, estimate.stderr, closed, not spec.utility.is_log)
    results = {
        "pi": [float(v) for v in pi],
        "pi_source": source,
        "worst_vertex": int(worst_idx),
        "mc": _estimate_dict(estimate),
        "closed_form": float(closed),
        "abs_error": float(error),
        "within_3p5_sigma": agree,
    }
    if solved:
        results["solve"] = solved
    return results, 0, []


def _cmd_verify(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    n_paths = flags.paths if flags.paths is not None else spec.simulation.n_paths
    seed = flags.seed if flags.seed is not None else spec.simulation.seed
    provenance: list[str] = []
    try:
        certificate = find_saddle(spec.theta, spec.feasible, spec.utility, certify_tol=flags.tol)
        certified = True
    except SaddleNotCertifiedError as exc:
        certificate = exc.certificate
        certified = False
        provenance.append("saddle_uncertified")
    results: dict = {"saddle": _certificate_results(certificate, certified)}
    recheck_ok, recheck = verify_saddle(spec.theta, spec.feasible, spec.utility,
                                        certificate, tol=flags.tol)
    results["independent_recheck"] = {"passed": bool(recheck_ok), **recheck}
    y_hat = certificate.y_hat
    theta_hat = spec.theta.mix(certificate.theta_hat_weights)
    estimate = mc_expected_utility(theta_hat, y_hat, spec.utility, spec.x0,
                                   spec.horizon, n_paths, seed)
    closed = closed_form_expected_utility(theta_hat, y_hat, spec.utility, spec.x0,
                                          spec.horizon)
    error, mc_ok = _agreement(estimate.mean, estimate.stderr, closed, not spec.utility.is_log)
    results["mc_vs_closed_form"] = {
        "mc": _estimate_dict(estimate),
        "closed_form": float(closed),
        "abs_error": float(error),
        "passed": mc_ok,
    }
    checks = [certified, recheck_ok, mc_ok]
    if spec.utility.is_log:
        results["martingale"] = {"applicable": False}
    else:
        # E[U(W_T)] = x0^p exp(p T g) / p, so the sample mean over the closed
        # form estimates E[W_T^p exp(-p T g)] at unit capital, which is 1;
        # where the closed form overflowed or underflowed to 0 the quotient
        # is undefined and, as in _agreement, reads (inf, inf) and fails
        if math.isfinite(closed) and closed != 0.0:
            mean, stderr = estimate.mean / closed, estimate.stderr / abs(closed)
        else:
            mean = stderr = math.inf
        mart = replace(estimate, mean=mean, stderr=stderr, minus_inf=False)
        _, mart_ok = _agreement(mart.mean, mart.stderr, 1.0)
        results["martingale"] = {"applicable": True, "passed": mart_ok,
                                 **_estimate_dict(mart)}
        checks.append(mart_ok)
    passed = all(checks)
    results["passed"] = passed
    return results, 0 if passed else 2, provenance


# Each subcommand's help line, handler and the flags that handler reads, in
# the order the usage lists them.
COMMANDS = {
    "validate": ("check a model file and report kappa and its shape", _cmd_validate, ()),
    "solve": ("maximize the worst-case growth rate", _cmd_solve, ("--tol",)),
    "saddle": ("solve and certify a saddle point", _cmd_saddle, ("--tol",)),
    "simulate": ("Monte Carlo expected utility against the closed form", _cmd_simulate,
                 ("--pi", "--paths", "--seed", "--tol")),
    "verify": ("run every oracle check at the solved saddle", _cmd_verify,
               ("--paths", "--seed", "--tol")),
}


def run_command(command: str, spec: ProblemSpec, flags: argparse.Namespace) -> Report:
    """Dispatch one subcommand against a loaded spec and wrap the result."""
    started = time.perf_counter()
    # overflow and NaN end in emit_report's NanResult check, not in warnings
    with np.errstate(all="ignore"):
        results, status, extra_provenance = COMMANDS[command][1](spec, flags)
    elapsed = time.perf_counter() - started
    return Report(
        command=command,
        model=flags.model,
        digest=spec.digest,
        status=status,
        results=results,
        provenance=list(spec.provenance) + extra_provenance,
        timings={"total_s": elapsed},
    )


def _error_report(flags: argparse.Namespace, exc: RlpError) -> Report:
    return Report(command=flags.command, model=flags.model, digest="", status=1,
                  results={"error": {"code": exc.code, "message": str(exc)}})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_model(args.model)
        report = run_command(args.command, spec, args)
    except RlpError as exc:
        report = _error_report(args, exc)
    try:
        try:
            emit_report(report, args.format, args.out)
        except NanResultError as exc:  # raised before anything is written
            report = _error_report(args, exc)
            emit_report(report, args.format, args.out)
    except FileIoError as exc:
        sys.stderr.write(f"rlp: {exc}\n")
        return 1
    return report.status


if __name__ == "__main__":
    sys.exit(main())
