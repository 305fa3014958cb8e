"""Command-line driver emitting sweep CSVs, Bell reports, and self-tests.

All positions and box lengths are dimensionless (oscillator units).
Numbers are printed with 9 significant digits; identical invocations
produce byte-identical output.  Sweeps are evaluated one r at a time,
all box lengths together, in the calling thread; --jobs is accepted
and ignored.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import acceptance
from .bell import (
    STANDARD_SETTINGS,
    bit_bell_from_correlators,
    chsh_from_correlators,
    lhv_chsh_max,
    lhv_chsh_values,
    lhv_multibit_bound,
    multibit_value,
    optimize_settings,
)
from .bits import TruncationWindow, bit_at, format_binary, spin_from_bit, truncated_value
from .correlators import MAX_BOX_LENGTH, MIN_BOX_LENGTH, CorrelatorSet, correlator_grid, correlator_set
from .errors import InvalidScale, MisalignedGrid, RangeError

__all__ = ["SweepConfig", "build_parser", "main"]


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters shared by the figure subcommands."""

    r_list: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    l_min: float = 0.03
    l_max: float = 7.5
    points: int = 64
    format: str = "csv"
    out: str = "-"

    def __post_init__(self) -> None:
        if not self.r_list:
            raise InvalidScale("r_list must not be empty")
        if not (MIN_BOX_LENGTH <= self.l_min < self.l_max):
            raise InvalidScale(
                f"need {MIN_BOX_LENGTH} <= l_min < l_max, got {self.l_min!r}, {self.l_max!r}"
            )
        if self.l_max > MAX_BOX_LENGTH:
            raise InvalidScale(f"l_max must be at most {MAX_BOX_LENGTH}, got {self.l_max!r}")
        if self.points < 2:
            raise InvalidScale(f"points must be >= 2, got {self.points!r}")
        if self.format not in ("csv", "json"):
            raise InvalidScale(f"format must be csv or json, got {self.format!r}")
        object.__setattr__(self, "r_list", tuple(float(r) for r in self.r_list))

    def l_values(self) -> list[float]:
        """Box lengths spaced evenly in log2 between l_min and l_max."""
        grid = np.exp2(
            np.linspace(math.log2(self.l_min), math.log2(self.l_max), self.points)
        )
        return [float(l) for l in grid]

    def as_dict(self) -> dict:
        return dict(asdict(self), r_list=list(self.r_list))

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """The config from ``data``'s entries named after its fields; others are ignored."""
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _fmt(x) -> str:
    """9 significant digits with '.' decimal separator."""
    return format(float(x), ".9g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _rows_to_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _sweep_report(config: SweepConfig, header: list[str], pairs, row_fn) -> str:
    """Render row_fn(r, l, values) over the (r, l) grid in order as csv or json rows.

    ``values`` maps each of ``pairs`` to its (value, error) at (l, r);
    each r's box lengths are evaluated together by correlator_grid.
    """
    l_values = config.l_values()
    rows = [
        row_fn(r, l, values)
        for r in config.r_list
        for l, values in zip(l_values, correlator_grid(pairs, l_values, r))
    ]
    if config.format == "csv":
        return _rows_to_csv(header, [[_fmt(v) if not isinstance(v, str) else v for v in row] for row in rows])
    payload = {
        "config": config.as_dict(),
        "columns": header,
        "rows": rows,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_fig1(args) -> int:
    config = SweepConfig.from_dict(vars(args))

    def row(r: float, l: float, values):
        (czz, czz_err), (cxx, cxx_err), (cyy, cyy_err) = (values[p] for p in ("zz", "xx", "yy"))
        return [r, l, math.log2(l), czz, cxx, cyy, czz_err, cxx_err, cyy_err]

    header = ["r", "l", "log2_l", "czz", "cxx", "cyy", "czz_err", "cxx_err", "cyy_err"]
    _emit(_sweep_report(config, header, ("zz", "xx", "yy"), row), config.out)
    return 0


def _cmd_fig2(args) -> int:
    config = SweepConfig.from_dict(vars(args))

    def row(r: float, l: float, values):
        report = chsh_from_correlators(CorrelatorSet.from_pairs(l, r, values))
        if config.format == "csv":
            return [r, l, report.value, _fmt_bool(report.violated)]
        return [r, l, report.value, report.violated]

    header = ["r", "l", "chsh_standard", "violated"]
    _emit(_sweep_report(config, header, ("zz", "xx", "yy"), row), config.out)
    return 0


def _cmd_correlators(args) -> int:
    cs = correlator_set(args.l, args.r)
    _emit(json.dumps(cs.as_dict(), sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_bell_bits(args) -> int:
    window = TruncationWindow(k_hi=args.k_hi, k_lo=args.k_lo)
    per_bit = {}
    rows = []
    for k in window.ks():
        l = math.ldexp(1.0, k)
        report = bit_bell_from_correlators(correlator_set(l, args.r))
        per_bit[k] = report.value
        rows.append(
            {
                "k": k,
                "l": l,
                "bit_bell": report.value,
                "weight": math.ldexp(1.0, k),
                "weighted": math.ldexp(report.value, k),
                "violated_bit": report.violated,
            }
        )
    total = multibit_value(per_bit, window)
    if args.format == "csv":
        header = ["k", "l", "bit_bell", "weight", "weighted", "violated_bit",
                  "total", "bound", "violated"]
        csv_rows = [
            [str(row["k"]), _fmt(row["l"]), _fmt(row["bit_bell"]), _fmt(row["weight"]),
             _fmt(row["weighted"]), _fmt_bool(row["violated_bit"]),
             _fmt(total.value), _fmt(total.bound), _fmt_bool(total.violated)]
            for row in rows
        ]
        _emit(_rows_to_csv(header, csv_rows), args.out)
        return 0
    payload = {
        "r": args.r,
        "window": {"k_hi": window.k_hi, "k_lo": window.k_lo},
        "per_bit": rows,
        "total": total.value,
        "bound": total.bound,
        "violated": total.violated,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_optimize(args) -> int:
    cs = correlator_set(args.l, args.r)
    standard = chsh_from_correlators(cs, STANDARD_SETTINGS)
    payload = {
        "r": args.r,
        "l": args.l,
        "standard": {
            "settings": list(STANDARD_SETTINGS.as_tuple()),
            "value": standard.value,
            "violated": standard.violated,
        },
    }
    if args.include_y:
        directions, value = optimize_settings(cs, include_y=True)
        payload["best"] = {
            "directions_theta_phi": [list(d) for d in directions],
            "value": value,
        }
    else:
        settings, value = optimize_settings(cs)
        payload["best"] = {
            "settings": list(settings.as_tuple()),
            "value": value,
            "violated": value > lhv_chsh_max(),
        }
    payload["gain_over_standard"] = payload["best"]["value"] - standard.value
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_lhv(args) -> int:
    window = TruncationWindow(k_hi=args.k_hi, k_lo=args.k_lo)
    payload = {
        "chsh_bound": lhv_chsh_max(),
        "chsh_strategy_values": sorted(set(lhv_chsh_values())),
        "window": {"k_hi": window.k_hi, "k_lo": window.k_lo},
        "multibit_bound": lhv_multibit_bound(window),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_bits_demo(args) -> int:
    display = TruncationWindow(k_hi=args.k_hi, k_lo=args.k_lo)
    trunc = TruncationWindow(k_hi=args.trunc_hi, k_lo=args.trunc_lo)
    bits = {str(k): bit_at(args.q, k) for k in display.ks()}
    spins = {str(k): spin_from_bit(bit_at(args.q, k)) for k in display.ks()}
    payload = {
        "q": args.q,
        "binary": format_binary(args.q, display),
        "bits": bits,
        "spins": spins,
        "truncation_window": {"k_hi": trunc.k_hi, "k_lo": trunc.k_lo},
        "truncated_value": truncated_value(args.q, trunc),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_selftest(args) -> int:
    if args.criterion is None:
        cids = [cid for cid, _title, _budget, _func in acceptance.CRITERIA]
    else:
        cids = [args.criterion]
    passed = True
    for cid in cids:
        result = acceptance.run_criterion(cid)
        if args.json:
            print(json.dumps(asdict(result), sort_keys=True))
        else:
            print(acceptance.format_result(result))
        passed = passed and result.passed
    if args.json:
        print(json.dumps({"passed": passed}))
    return 0 if passed else 1


def _add_output_flags(parser, default_format: str | None = None) -> None:
    """--out, and --format for the commands that can render csv as well as json."""
    if default_format is not None:
        parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")


def _add_sweep_flags(parser) -> None:
    """The sweep's flags, defaulting to SweepConfig's fields."""
    parser.add_argument("--r-list", type=float, nargs="+",
                        default=SweepConfig.r_list, help="squeezing values")
    parser.add_argument("--l-min", type=float, default=SweepConfig.l_min)
    parser.add_argument("--l-max", type=float, default=SweepConfig.l_max)
    parser.add_argument("--points", type=int, default=SweepConfig.points,
                        help="box lengths, spaced evenly in log2")
    parser.add_argument("--jobs", type=int, default=1,
                        help="ignored: points run in order in one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxspin",
        description=(
            "Box-spin Bell inequality toolkit for the two-mode squeezed state. "
            "Positions and box lengths are dimensionless (oscillator units)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="correlator sweep (czz, cxx, cyy) over l and r")
    _add_sweep_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="standard-settings CHSH sweep over l and r")
    _add_sweep_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("correlators", help="full correlator set at one (r, l)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_correlators)

    p = sub.add_parser("bell-bits", help="per-bit Bell values and multibit total")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--k-hi", type=int, default=1)
    p.add_argument("--k-lo", type=int, default=-3)
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_bell_bits)

    p = sub.add_parser("optimize", help="optimize CHSH settings at one (r, l)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--include-y", action="store_true",
                   help="optimize (theta, phi) directions so cyy participates")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("lhv", help="enumerated local bounds")
    p.add_argument("--k-hi", type=int, default=1)
    p.add_argument("--k-lo", type=int, default=-3)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_lhv)

    p = sub.add_parser("bits-demo", help="binary rendering and truncation of q")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--k-hi", type=int, default=2, help="display window top scale")
    p.add_argument("--k-lo", type=int, default=-7, help="display window bottom scale")
    p.add_argument("--trunc-hi", type=int, default=1)
    p.add_argument("--trunc-lo", type=int, default=-3)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_bits_demo)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--criterion", type=int, default=None,
                   help="run a single criterion by id instead of the battery")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per criterion (cid, title, passed, "
                        "seconds, detail), then {\"passed\": ...} for the run")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidScale, MisalignedGrid, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
