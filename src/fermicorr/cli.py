"""Command-line surface: wavefunction/mixture file parsing and reports.

File format (whitespace separated, `#` starts a comment, indices 1-based):

    dim=<d> nelec=<N>
    <i1> ... <iN> <re> <im>

Records may come in any order.  Each is checked once, in file order, and
becomes a mask and an amplitude, sorted once into the state's arrays.

Mixture files list `<weight> <wavefunction-path>` per line; relative
paths are resolved against the mixture file's directory.

Every subcommand but hubbard-sweep (which writes CSV) reports a flat
record through `_report`: one JSON object under `--json`, otherwise one
`name value` line per field.  Each subcommand takes only the flags it
reads (`--base`, `--json`; see `build_parser`).  The pass/fail threshold
of the two self-checks, `oracle` and `verify-wick`, is
`limits.AGREEMENT_TOL`, not an option.

Exit codes: 0 success, 2 parse errors (an unreadable or non-UTF-8 file
included), 3 numerical-validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import limits
from .corr import CorrResult, MixedState, corr_mixed, corr_pure, corr_two_particle
from .fock import OrbitalSpace, occupation_matrix
from .models import SweepRow, sweep
from .oracle import overlap_oracle
from .quasifree import QuasifreeSpec, verify_wick
from .wavefunction import CIWavefunction, normalize


class ParseError(ValueError):
    """Malformed input file; maps to exit status 2."""


def _significant(x: float) -> str:
    return f"{x:.12g}"


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, text) of each line left once `#` comments are
    cut and blank lines dropped."""
    cut = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(cut, start=1) if line]


def parse_wavefunction(text: str, source: str = "<string>") -> CIWavefunction:
    """Parse the wavefunction grammar; the result is always normalized."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"{source}: empty wavefunction file")

    lineno, header = lines[0]
    fields = dict()
    for token in header.split():
        if "=" not in token:
            raise ParseError(f"{source}:{lineno}: malformed header token {token!r}")
        key, _, value = token.partition("=")
        if key not in ("dim", "nelec") or key in fields:
            kind = "repeated" if key in fields else "unknown"
            raise ParseError(f"{source}:{lineno}: {kind} header key {key!r}")
        fields[key] = value
    try:
        d, n = int(fields["dim"]), int(fields["nelec"])
    except (KeyError, ValueError):
        raise ParseError(f"{source}:{lineno}: header must read 'dim=<d> nelec=<N>'") from None
    try:
        space = OrbitalSpace(d)
    except ValueError as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from None
    if not 0 <= n <= d:
        raise ParseError(f"{source}:{lineno}: nelec={n} outside [0, {d}]")

    amps: dict[int, complex] = {}  # mask: amplitude, in file order
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n + 2:
            raise ParseError(
                f"{source}:{lineno}: expected {n} indices and two amplitude fields, got {len(tokens)} tokens"
            )
        try:
            indices = [int(t) for t in tokens[:n]]
            re_part, im_part = float(tokens[n]), float(tokens[n + 1])
        except ValueError:
            raise ParseError(f"{source}:{lineno}: malformed record {line!r}") from None
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise ParseError(f"{source}:{lineno}: amplitude must be finite, got {line!r}")
        if any(not 1 <= i <= d for i in indices):
            raise ParseError(f"{source}:{lineno}: orbital index out of range [1, {d}]")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ParseError(f"{source}:{lineno}: indices not strictly increasing")
        mask = sum(1 << (i - 1) for i in indices)
        if mask in amps:
            raise ParseError(f"{source}:{lineno}: duplicate determinant {line!r}")
        amps[mask] = complex(re_part, im_part)
    if not amps:
        raise ParseError(f"{source}: no determinant records")

    masks = np.fromiter(amps, np.uint64)
    order = np.argsort(masks)
    psi = CIWavefunction.from_arrays(space, n, masks[order], np.fromiter(amps.values(), complex)[order])
    nrm = psi.norm()
    if nrm == 0.0:
        raise ParseError(f"{source}: null state: all amplitudes vanish")
    if abs(nrm - 1.0) > limits.NORM_TOL:
        print(f"warning: {source}: input norm {nrm!r} deviates from 1; renormalizing", file=sys.stderr)
    return normalize(psi)


def format_wavefunction(psi: CIWavefunction) -> str:
    """Inverse of parse_wavefunction (round-trips amplitudes exactly)."""
    out = [f"dim={psi.space.d} nelec={psi.n}"]
    _, orbital = np.nonzero(occupation_matrix(psi.masks, psi.space.d))  # by record, then orbital
    for indices, amp in zip((orbital + 1).reshape(psi.masks.size, psi.n).tolist(), psi.coeffs.tolist()):
        out.append(f"{' '.join(map(str, indices))} {amp.real:.17g} {amp.imag:.17g}".lstrip())
    return "\n".join(out) + "\n"


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_wavefunction(path: Path) -> CIWavefunction:
    return parse_wavefunction(_read(path), source=str(path))


def parse_mixture(text: str, base_dir: Path, source: str = "<string>") -> MixedState:
    entries = []
    for lineno, line in _content_lines(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"{source}:{lineno}: expected '<weight> <path>'")
        try:
            weight = float(parts[0])
        except ValueError:
            raise ParseError(f"{source}:{lineno}: malformed weight {parts[0]!r}") from None
        if not (math.isfinite(weight) and weight > 0):
            raise ParseError(f"{source}:{lineno}: weights must be positive and finite")
        entries.append((weight, base_dir / parts[1]))
    if not entries:
        raise ParseError(f"{source}: empty mixture file")
    total = math.fsum(w for w, _ in entries)
    if abs(total - 1.0) > limits.WEIGHT_SUM_TOL:
        print(f"warning: {source}: weights sum to {total!r}; renormalizing", file=sys.stderr)
    components = [(w / total, load_wavefunction(p)) for w, p in entries]
    try:
        return MixedState(components)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def load_mixture(path: Path) -> MixedState:
    return parse_mixture(_read(path), path.parent, source=str(path))


def _report(payload: dict, args) -> None:
    """Print one subcommand's record: a JSON object under --json, otherwise
    one `name value` line per field in payload order (floats to 12
    significant digits, lists space-joined)."""
    if args.json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if isinstance(value, list):
            value = " ".join(_significant(x) for x in value)
        elif isinstance(value, float):
            value = _significant(value)
        print(f"{key:<20}{value}")


def _corr_payload(res: CorrResult) -> dict:
    """The record of a CorrResult; `fidelity`, set for mixtures only,
    follows `overlap`."""
    fidelity = {} if res.fidelity is None else {"fidelity": res.fidelity}
    return {
        "corr": res.corr,
        "overlap": res.overlap,
        **fidelity,
        "base": res.base,
        "lambda": [float(x) for x in res.occupations],
        "entropy_normalized": res.entropy,
        "entropy_raw": res.entropy_raw,
        "degree": res.degree,
    }


def _cmd_corr(args) -> int:
    psi = load_wavefunction(Path(args.file))
    res = corr_pure(psi, base=args.base)
    _report(_corr_payload(res), args)
    return 0


def _cmd_corr2(args) -> int:
    psi = load_wavefunction(Path(args.file))
    if psi.n != 2:
        raise ValueError(f"two-particle command needs nelec=2, got {psi.n}")
    res = corr_two_particle(psi, base=args.base)
    weights = [float(w) for w in res.occupations[::2] if w > 0.0]  # each pair fills two
    _report({**_corr_payload(res), "schmidt_weights": weights}, args)
    return 0


def _cmd_mixed(args) -> int:
    mixed = load_mixture(Path(args.file))
    res = corr_mixed(mixed, base=args.base)
    _report(_corr_payload(res), args)
    return 0


def _cmd_oracle(args) -> int:
    psi = load_wavefunction(Path(args.file))
    recipe = corr_pure(psi).overlap
    brute = overlap_oracle(psi)
    diff = abs(recipe - brute)
    _report({"overlap_recipe": recipe, "overlap_oracle": brute, "difference": diff}, args)
    return 3 if diff > limits.AGREEMENT_TOL else 0


def format_sweep_csv(rows: list[SweepRow]) -> str:
    """The hubbard-sweep CSV: a header line, then one line per row."""
    lines = ["u,energy,corr,entropy,entropy_normalized,degree"]
    for row in rows:
        lines.append(
            ",".join(
                _significant(x)
                for x in (row.u, row.ground_energy, row.corr, row.entropy,
                          row.entropy_normalized, row.degree)
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_hubbard_sweep(args) -> int:
    grid = np.linspace(args.u_min, args.u_max, args.steps)
    rows = sweep(grid, base=args.base, t=args.t, entropy_convention=args.entropy_convention)
    text = format_sweep_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_wick(args) -> int:
    rng = np.random.default_rng(args.seed)
    d = args.dim
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
        lam = rng.uniform(0.0, 1.0, size=d)
        spec = QuasifreeSpec(lam)
        if trial % 5 == 4:
            m, n = rng.integers(1, 4), rng.integers(1, 4)
            while m == n:
                n = rng.integers(1, 4)
        else:
            m = n = int(rng.integers(1, 4))
        def vectors(count):
            v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
            return [row / np.linalg.norm(row) for row in v]
        report = verify_wick(spec, vectors(int(m)), vectors(int(n)))
        worst = max(worst, report.difference)
        if report.difference > limits.AGREEMENT_TOL:
            failures += 1
    _report({"trials": args.trials, "max_deviation": worst, "failures": failures,
             "tolerance": limits.AGREEMENT_TOL}, args)
    return 3 if failures else 0


def _option(convert, accept, what: str):
    """An argparse type: a text that `convert` or `accept` refuses makes
    argparse name the flag and exit 2."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_FINITE = _option(float, math.isfinite, "a finite number")
_POSITIVE = _option(float, lambda x: math.isfinite(x) and x > 0, "a finite positive number")
_COUNT = _option(int, lambda n: n > 0, "a positive integer")
_SEED = _option(int, lambda n: n >= 0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    base, as_json = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    base.add_argument("--base", choices=("2", "e"), default="2",
                      help="logarithm base for all measures (default 2)")
    as_json.add_argument("--json", action="store_true", help="emit a JSON object")

    parser = argparse.ArgumentParser(
        prog="fermicorr",
        description="Correlation measures for many-fermion states against their quasifree reference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corr", parents=[base, as_json],
                       help="correlation of a pure state")
    p.add_argument("file")
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("corr2", parents=[base, as_json],
                       help="two-particle closed form with canonical pair weights")
    p.add_argument("file")
    p.set_defaults(func=_cmd_corr2)

    p = sub.add_parser("mixed", parents=[base, as_json],
                       help="correlation of a mixture file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_mixed)

    p = sub.add_parser("oracle", parents=[as_json],
                       help="recipe overlap against the brute-force Fock-space overlap; "
                            f"exit 3 when they differ by more than {limits.AGREEMENT_TOL:g}")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("hubbard-sweep", parents=[base],
                       help="measure comparison along a Hubbard-dimer interaction grid")
    p.add_argument("--u-min", type=_FINITE, default=0.0)
    p.add_argument("--u-max", type=_FINITE, default=20.0)
    p.add_argument("--steps", type=_COUNT, default=81, help="number of grid points")
    p.add_argument("--t", type=_POSITIVE, default=1.0, help="hopping energy (default 1)")
    p.add_argument("--entropy-convention", choices=("normalized", "raw"), default="normalized")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_hubbard_sweep)

    p = sub.add_parser("verify-wick", parents=[as_json],
                       help="randomized Wick-identity checks on quasifree densities; "
                            f"a trial fails past {limits.AGREEMENT_TOL:g}")
    p.add_argument("--dim", type=_COUNT, default=6)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--trials", type=_COUNT, default=50)
    p.set_defaults(func=_cmd_verify_wick)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "base" in vars(args):
        args.base = 2.0 if args.base == "2" else math.e
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
