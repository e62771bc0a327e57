"""Command-line front end.

Subcommands: classify, decompose, generate, project, verify.  Matrices
travel as Matrix Market 'array complex general' files; each command prints a
single JSON report on stdout (schema version 1) and human-readable
diagnostics on stderr.  Exit codes: 0 success with all residuals within
--tol, 1 usage or I/O error, 2 structure violation or failed residual check.

Commands compute only their report bodies and return ``(body, failure)``,
where ``failure`` is the stderr line for exit 2 or ``None``.  :func:`main`
reads and hashes the input matrix, adds the envelope (``schema``,
``command``, ``tol`` and ``input``), writes the JSON and picks the exit code.

Every factor residual in a report is recomputed from the emitted factors at
reporting time, never cached from intermediate stages.  The input's
classification is computed once per command and used both to pick the class
and to report its residuals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import stat
import sys
from dataclasses import asdict, replace

import numpy as np

from . import canonical as canon
from .projector import householder_singular_values, idempotency_residual
from .projector import _projector, projector_svd
from .errors import InvalidInputError, InvolSvdError, StructureViolationError
from .generators import gen_structured
from .kernel import _frobenius, _relative_residual
from .mmio import read_matrix, write_matrix, write_values
from .structures import ClassificationReport, GeneratorSpec, StructureClass, _check_tol
from .structures import DEFAULT_TOL, class_gate, classify
from .structured_svd import StructuredSvd, coupling_residual, extract_T
from .structured_svd import reconstruction_residual, restructure

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """``--tol`` value: a float that the library's ``tol`` check accepts."""
    try:
        value = float(text)
        _check_tol(value)
    except InvalidInputError:  # a ValueError too, so caught before float's
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


def _floats(text: str) -> tuple:
    """``--sigmas``/``--phases`` value: comma-separated floats, or none."""
    text = text.strip()
    try:
        return tuple(float(tok) for tok in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse float list {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="involsvd", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=True):
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="acceptance tolerance")
        if with_class:
            p.add_argument(
                "--class",
                dest="structure",
                choices=["auto"] + [c.value for c in StructureClass],
                default="auto",
                help="structure class (auto picks the best accepted one)",
            )

    p = sub.add_parser("classify", help="report structure residuals")
    p.add_argument("matrix")
    common(p, with_class=False)

    p = sub.add_parser("decompose", help="structure-revealing SVD and canonical form")
    p.add_argument("matrix")
    common(p)
    p.add_argument("--out", help="directory for factor files (U, V, T, sigma)")

    p = sub.add_parser("generate", help="random structured matrix with ground truth")
    p.set_defaults(tol=DEFAULT_TOL)  # --tol's default, echoed; no output of generate reads a tol
    p.add_argument(
        "--class",
        dest="structure",
        choices=[c.value for c in StructureClass],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--sigmas", type=_floats, default="", help="comma-separated values > 1")
    p.add_argument("--eta1", type=int, default=0)
    p.add_argument("--eta2", type=int, default=0)
    p.add_argument("--phases", type=_floats, help="comma-separated phases (coninvolutory)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("project", help="SVD of the idempotent (I +- A)/2")
    p.add_argument("matrix")
    common(p, with_class=False)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--out", help="directory for factor files")

    p = sub.add_parser("verify", help="full pipeline with every residual rechecked")
    p.add_argument("matrix")
    common(p)
    return parser


def _file_digest(path, a) -> dict:
    """The input's report; ``sha256`` is None unless ``path`` is a regular file (not a pipe)."""
    digest = None
    if stat.S_ISREG(os.stat(path).st_mode):
        sha = hashlib.sha256()
        with open(path, "rb") as handle:  # in blocks, not one copy of the file
            for block in iter(lambda: handle.read(1 << 16), b""):
                sha.update(block)
        digest = sha.hexdigest()
    return {
        "path": str(path),
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "frobenius_norm": _frobenius(a),
        "sha256": digest,
    }


def _residuals_json(report: ClassificationReport) -> dict:
    return {c.value: float(r) for c, r in report.residuals.items()}


def _resolve_class(report: ClassificationReport, requested: str) -> StructureClass:
    """The requested class as given (:func:`restructure` refuses a matrix outside it), or
    for ``auto`` the accepted class of least residual (ties: declaration order)."""
    if requested != "auto":
        return StructureClass(requested)
    if not report.accepted:
        raise StructureViolationError(
            "matrix matches no structure class at tolerance "
            f"{report.tol:g} (best residual {min(report.residuals.values()):.3e})"
        )
    return min((c for c in StructureClass if c in report.accepted), key=report.residuals.get)


def _blocks_json(ssvd: StructuredSvd) -> list:
    """Each pair (lead, partner) with its sigma, the first nu reciprocal and
    the other mu paired ones, then each single with its phase (coninvolutory)
    or sign (that of ``Re(d)``), d read by :meth:`StructuredSvd.singles`."""
    lead, part, single = ssvd.columns()
    kinds = ["reciprocal_pair"] * ssvd.counts.nu + ["paired_one"] * ssvd.counts.mu
    out = [
        {"kind": kind, "columns": [p, q], "sigma": s}
        for kind, p, q, s in zip(kinds, lead.tolist(), part.tolist(), ssvd.sigma[lead].tolist())
    ]
    for pos, val in zip(single.tolist(), ssvd.singles()[1]):
        if ssvd.structure is StructureClass.CONINVOLUTORY:
            extra = {"phase": float(np.angle(val)) % (2.0 * math.pi)}
        else:
            extra = {"sign": 1 if val.real > 0 else -1}
        out.append({"kind": "single_one", "columns": [pos], "sigma": 1.0, **extra})
    return out


def _record_json(ssvd: StructuredSvd) -> dict:
    """A record's report fields: its counts, its sigma and its blocks."""
    sigma = [float(s) for s in ssvd.sigma]
    return {"counts": asdict(ssvd.counts), "sigma": sigma, "blocks": _blocks_json(ssvd)}


def _analysis_payload(
    a, ssvd: StructuredSvd, report: ClassificationReport, with_oracle: bool = False
) -> dict:
    """Recompute every reported residual from the emitted factors.

    ``report`` classifies ``a`` at the report's tolerance.  Each rule is ``tol`` on one scale
    or an exact test: consimilarity's f is sigma_1, ``cond S`` and ``cond Z`` by construction;
    the oracle reads its worst relative disagreement; T rebuilt must equal the record's.  A
    recheck that raises (``extract_T``, the oracle) is reported, not raised: its residual is
    None (``extract_T``'s pattern check false too), and an ``"errors"`` map, present only
    then, gives the error's type, message and entry.
    """
    n = ssvd.dim
    tol = report.tol
    errors = {}

    def recheck(name, fn, *args):
        try:
            return fn(*args)
        except InvolSvdError as exc:
            entry = getattr(exc, "entry", None)
            errors[name] = {"type": type(exc).__name__, "message": str(exc),
                            "entry": None if entry is None else list(entry)}
            return None

    s = np.sort(ssvd.sigma)[::-1]  # descending; the pairing residual and the oracle read it
    residuals = {
        "classification": float(report.residuals[ssvd.structure]),
        "reconstruction": reconstruction_residual(a, ssvd),
        "pairing": float(np.max(np.abs(s * s[::-1] - 1.0))),
    }
    t_fresh = recheck("coupling", extract_T, ssvd.u, ssvd.v, ssvd.structure, tol)
    residuals["coupling"] = (
        None if t_fresh is None else coupling_residual(replace(ssvd, t=t_fresh))
    )

    form = canon.canonical_form(ssvd)
    residuals["canonical"] = canon.canonical_residual(a, form)
    _, _, closure = class_gate(form.t_sigma, ssvd.structure, tol)

    checks = {
        "canonical_class_closure": bool(closure),
        "coupling_pattern_match": t_fresh is not None and np.array_equal(t_fresh, ssvd.t),
    }

    if ssvd.structure in (StructureClass.INVOLUTORY, StructureClass.SKEW_INVOLUTORY):
        eig = canon.eigendecompose(ssvd)
        raw = canon.eigen_residual(a, eig)
        residuals["eigen"] = _relative_residual(raw, a, _frobenius(eig.x))
        imbalance = (complex(np.trace(a)) / ssvd.structure.omega).real
        checks["eigen_counts_consistent"] = eig.n_plus - eig.n_minus == round(imbalance)
        if with_oracle and ssvd.structure is StructureClass.INVOLUTORY:
            vals = recheck("oracle", householder_singular_values, a, tol)
            residuals["oracle"] = None if vals is None else float(
                np.max(np.abs(vals - s) / np.maximum(s, 1e-30)))
    else:  # the consimilarity classes, f = sigma_1
        if ssvd.structure is StructureClass.CONINVOLUTORY:
            raw = canon.consimilarity_residual(a, canon.consim_to_identity(ssvd))
        else:
            raw = canon.minusj_residual(a, canon.consim_to_minusJ(ssvd))
        residuals["consimilarity"] = _relative_residual(raw, a, float(ssvd.sigma.max()))
    if ssvd.structure is StructureClass.CONINVOLUTORY:
        worst = 0.0
        for q, _ in canon.coneigen_singles(ssvd):
            worst = max(worst, _frobenius(a @ q.conj() - q))
        residuals["coneigen"] = worst / n

    out = {
        "class": ssvd.structure.value,
        "classification_residuals": _residuals_json(report),
        **_record_json(ssvd),
        "residuals": residuals,
        "checks": checks,
        "passed": bool(
            all(checks.values()) and all(v is not None and v <= tol for v in residuals.values())
        ),
    }
    if errors:
        out["errors"] = errors
    return out


def _write_factors(out_dir, **factors) -> dict:
    """Write each named factor into ``out_dir``, in argument order: ``sigma``
    as a value list in sigma.txt, every other one as <name>.mtx."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, value in factors.items():
        if name == "sigma":
            files[name] = os.path.join(out_dir, "sigma.txt")
            write_values(files[name], value)
        else:
            files[name] = os.path.join(out_dir, f"{name}.mtx")
            write_matrix(files[name], value)
    return files


def cmd_classify(args, a):
    report = classify(a, args.tol)
    out = {
        "residuals": _residuals_json(report),
        "accepted": sorted(c.value for c in report.accepted),
    }
    return out, None if report.accepted else "no structure class accepted"


def _run_pipeline(args, a, with_oracle=False):
    """``decompose`` (and, with the Householder oracle, ``verify``)."""
    report = classify(a, args.tol)
    structure = _resolve_class(report, args.structure)
    ssvd = restructure(a, structure, args.tol)
    out = _analysis_payload(a, ssvd, report, with_oracle)
    if getattr(args, "out", None):
        out["files"] = _write_factors(args.out, U=ssvd.u, V=ssvd.v, T=ssvd.t, sigma=ssvd.sigma)
    return out, None if out["passed"] else "residual checks failed"


def cmd_generate(args, _):
    structure = StructureClass(args.structure)
    spec = GeneratorSpec(
        n=args.n,
        nu=args.nu,
        sigmas=args.sigmas,
        eta1=args.eta1,
        eta2=args.eta2,
        phases=args.phases,
        seed=args.seed,
    )
    a, truth = gen_structured(structure, spec)
    files = _write_factors(args.out, A=a, U=truth.u, V=truth.v, T=truth.t, sigma=truth.sigma)
    _, residual, _ = class_gate(a, structure, args.tol)
    out = {
        "class": structure.value,
        "seed": args.seed,
        "output": _file_digest(files["A"], a),
        **_record_json(truth),
        "residuals": {
            "classification": residual,
            "reconstruction": reconstruction_residual(a, truth),
        },
        "files": files,
    }
    return out, None


def cmd_project(args, a):
    sign = 1 if args.sign == "+" else -1
    ssvd = restructure(a, StructureClass.INVOLUTORY, args.tol)  # the involutory gate
    b = _projector(a, sign)
    psvd = projector_svd(ssvd, sign)
    reference = np.linalg.svd(b, compute_uv=False)
    residuals = {
        "idempotency": idempotency_residual(b),
        "reconstruction": reconstruction_residual(b, psvd.svd),
        "kernel_agreement": float(np.max(np.abs(psvd.svd.sigma - reference)))
        / max(1.0, float(reference[0])),
    }
    out = {
        "sign": args.sign,
        "sigma": [float(s) for s in psvd.svd.sigma],
        "residuals": residuals,
        "passed": bool(all(v <= args.tol for v in residuals.values())),
    }
    if args.out:
        res = psvd.svd
        out["files"] = _write_factors(args.out, B=b, U=res.u, V=res.v, sigma=res.sigma)
    return out, None if out["passed"] else "residual checks failed"


_COMMANDS = {
    "classify": cmd_classify,
    "decompose": _run_pipeline,
    "generate": cmd_generate,
    "project": cmd_project,
    "verify": lambda args, a: _run_pipeline(args, a, with_oracle=True),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        a, source = None, {}
        if hasattr(args, "matrix"):  # hashed before a command can write over it
            a = read_matrix(args.matrix)
            source["input"] = _file_digest(args.matrix, a)
        out, failure = _COMMANDS[args.command](args, a)
        out.update(source, schema=SCHEMA_VERSION, command=args.command, tol=args.tol)
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    except StructureViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 2
    except InvolSvdError as exc:  # bad input (ValueError) is 1, like usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
