"""Command-line entry point.

Five subcommands over one JSON model file:

validate   load the model and report the derived checks
solve      robust maximization, report the strategy and value
saddle     extract and certify a worst-case mixture
simulate   Monte Carlo at a given or solved strategy, against the closed form
verify     saddle + independent recheck + Monte Carlo + martingale test

Exit codes: 0 success, 1 operational error (also bad usage), 2 for a run that
completed but failed certification or an oracle check.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .errors import ModelError, RlpError, SaddleNotCertifiedError
from .growth import worst_case_growth
from .model_io import ProblemSpec, Report, emit_report, load_model
from .optimizer import (
    SaddleCertificate,
    find_saddle,
    maximize_robust,
    problem_value,
    verify_saddle,
)
from .simulator import (
    closed_form_expected_utility,
    martingale_check,
    mc_expected_utility,
)

COMMANDS = ("validate", "solve", "saddle", "simulate", "verify")


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rlp", description="Robust constant-proportion "
                     "portfolios under model uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "validate": "check a model file and report kappa and compactness",
        "solve": "maximize the worst-case growth rate",
        "saddle": "solve and certify a saddle point",
        "simulate": "Monte Carlo expected utility against the closed form",
        "verify": "run every oracle check at the solved saddle",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name], parents=[], add_help=True)
        p.add_argument("--model", required=True, help="path to the JSON model file")
        p.add_argument("--pi", type=_checked(lambda t: [float(v) for v in t.split(",")],
                                             lambda pi: all(map(math.isfinite, pi)),
                                             "comma-separated finite floats"),
                       default=None, metavar="FLOATS",
                       help="fixed strategy (comma-separated); default: solve first")
        p.add_argument("--paths", type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                       default=None, metavar="N",
                       help="Monte Carlo path count (default from the model)")
        p.add_argument("--seed", type=_checked(int, lambda s: 0 <= s < 2 ** 64,
                                               "an integer in [0, 2**64)"),
                       default=None, metavar="S",
                       help="simulation seed (default from the model)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--tol", type=_checked(float, lambda x: 0.0 < x < math.inf,
                                              "a positive finite number"),
                       default=1e-6, metavar="X",
                       help="verification tolerance (default 1e-6)")
    return parser


def _solution_results(spec: ProblemSpec) -> dict:
    solution = maximize_robust(spec.theta, spec.feasible, spec.utility, spec.solver)
    value = problem_value(solution.robust_g, spec.utility, spec.x0, spec.horizon)
    return {
        "y_hat": [float(v) for v in solution.y_hat],
        "robust_g": float(solution.robust_g),
        "value": float(value),
        "worst_vertex": int(np.argmax(solution.worst_vertex_weights)),
        "diagnostics": dict(solution.diagnostics),
    }


def _certificate_results(certificate: SaddleCertificate, certified: bool) -> dict:
    return {
        "y_hat": [float(v) for v in certificate.y_hat],
        "theta_hat_weights": [float(w) for w in certificate.theta_hat_weights],
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


def _agreement(mean: float, stderr: float, reference: float) -> tuple[float, bool]:
    """Absolute error and the 3.5-sigma agreement flag, tolerating -inf == -inf."""
    if math.isinf(reference) and math.isinf(mean) and reference == mean:
        return 0.0, True
    error = abs(mean - reference)
    return error, bool(error <= 3.5 * stderr)


def _pick_strategy(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[np.ndarray, str, dict]:
    if flags.pi is not None:
        pi = np.asarray(flags.pi, dtype=float)
        if len(pi) != spec.dimension:
            raise ModelError(f"--pi needs {spec.dimension} component(s), got {len(pi)}")
        return pi, "user", {}
    results = _solution_results(spec)
    return np.asarray(results["y_hat"]), "solved", results


def _cmd_validate(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    results = {
        "ok": bool(spec.validation.ok),
        "kappa": float(spec.kappa),
        "compact": bool(spec.compact),
        "dimension": int(spec.dimension),
        "n_vertices": len(spec.theta.vertices),
        "n_constraints": int(spec.feasible.m),
        "messages": list(spec.validation.messages),
    }
    return results, 0, []


def _cmd_solve(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    return _solution_results(spec), 0, []


def _cmd_saddle(spec: ProblemSpec, flags: argparse.Namespace) -> tuple[dict, int, list]:
    try:
        certificate = find_saddle(spec.theta, spec.feasible, spec.utility, spec.solver,
                                  certify_tol=flags.tol)
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
    error, agree = _agreement(estimate.mean, estimate.stderr, closed)
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
        certificate = find_saddle(spec.theta, spec.feasible, spec.utility, spec.solver,
                                  certify_tol=flags.tol)
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
    error, mc_ok = _agreement(estimate.mean, estimate.stderr, closed)
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
        mart, mart_ok = martingale_check(theta_hat, y_hat, spec.utility,
                                         spec.horizon, n_paths, seed)
        results["martingale"] = {"applicable": True, "passed": mart_ok,
                                 **_estimate_dict(mart)}
        checks.append(mart_ok)
    passed = all(checks)
    results["passed"] = passed
    return results, 0 if passed else 2, provenance


_DISPATCH = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "saddle": _cmd_saddle,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def run_command(command: str, spec: ProblemSpec, flags: argparse.Namespace) -> Report:
    """Dispatch one subcommand against a loaded spec and wrap the result."""
    if command not in _DISPATCH:
        raise ValueError(f"unknown command '{command}'")
    started = time.perf_counter()
    results, status, extra_provenance = _DISPATCH[command](spec, flags)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_model(args.model)
        report = run_command(args.command, spec, args)
    except RlpError as exc:
        report = Report(command=args.command, model=args.model, digest="",
                        status=1,
                        results={"error": {"code": exc.code, "message": str(exc)}})
    try:
        emit_report(report, args.format, args.out)
    except RlpError as exc:
        sys.stderr.write(f"rlp: {exc}\n")
        return 1
    return report.status


if __name__ == "__main__":
    sys.exit(main())
