"""Command-line front end: build, eval, verify, sweep, size, and table1.

Multivariate builds read a JSON parameter document (--params); individual
flags override document fields.  Network files use the versioned JSON
schema of the net module; sweep and table1 emit CSV.

Exit codes: 0 on success, 1 on a bound failure (the report path is
printed), 2 on usage errors such as missing files or unknown verbs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import builders, verify
from .net import (NetFormatError, deserialize, evaluate_array, metrics,
                  serialize)
from .targets import TargetSpec, catalog_ids

__all__ = ["main", "run"]

TARGET_ALIASES = {"square": "quadratic"}


class UsageError(Exception):
    pass


def _jsonable(obj):
    """Best-effort conversion of report payloads to JSON-compatible data."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"unreadable {what} {path}: {exc}")


def _load_doc(path, what="parameter document"):
    doc = {} if path is None else _read_json(path, what)
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path} must be a JSON object")
    return doc


def _number(value, what):
    """value as a float if it is a finite JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise UsageError(f"{what} must be a finite number, got {value!r:.40}")
    return float(value)


def _load_net(path):
    try:
        return deserialize(_read_json(path, "network file"))
    except NetFormatError as exc:
        raise UsageError(f"malformed network file {path}: {exc}")


def _parse_floats(text):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"not a comma-separated number list: {text!r}")


def _parse_values(args):
    """Sweep values from --values "a,b,c" or --range lo:hi[:step]; the
    swept parameter's type coerces them."""
    if args.values:
        vals = _parse_floats(args.values)
    elif args.range:
        try:
            parts = [int(v) for v in args.range.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError
            vals = list(range(parts[0], parts[1] + 1, *parts[2:]))
        except ValueError:
            raise UsageError("--range wants integers lo:hi or lo:hi:step "
                             "with a nonzero step")
    else:
        raise UsageError("provide --values or --range")
    if not vals:
        raise UsageError("empty sweep value list")
    return vals


def _target_from(args, doc):
    """TargetSpec from a parameter document and/or flags."""
    tdoc = dict(doc.get("target", {}))
    if getattr(args, "target", None):
        tdoc["catalog_id"] = args.target
    if getattr(args, "d", None) is not None:
        tdoc["dimension"] = args.d
    if getattr(args, "domain", None):
        tdoc["domain"] = args.domain
    if not tdoc.get("catalog_id"):
        return None
    cid = TARGET_ALIASES.get(tdoc["catalog_id"], tdoc["catalog_id"])
    tdoc["catalog_id"] = cid
    try:
        return TargetSpec.from_document(tdoc)
    except KeyError as exc:
        raise UsageError(_reason(exc))


def _flag_params(verb):
    """The theorem parameters that are flags of a verb, one per name."""
    out = {}
    for spec in builders.THEOREMS.values():
        for prm in spec.params:
            if prm.flag in ("build", verb):
                out.setdefault(prm.name, prm)
    return list(out.values())


def _theorem_params(args, doc, verb):
    """Parameter document, overridden by flags, plus the target if any."""
    p = {k: v for k, v in doc.items() if k != "target"}
    for prm in _flag_params(verb):
        v = getattr(args, prm.name)
        if v is not None:
            p[prm.name] = v
    target = _target_from(args, doc)
    if target is not None:
        p["target"] = target
    return p, target


def _reason(exc):
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else exc


def _write_report(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
    return path


# ---------------------------------------------------------------------------
# verbs


def _cmd_build(args):
    p, target = _theorem_params(args, _load_doc(args.params), "build")
    spec = builders.THEOREMS[args.theorem]
    try:
        rep = spec.build(spec.normalize(p))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot build {args.theorem}: {_reason(exc)}")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize(rep.net))
    report_path = args.output + ".report.json"
    _write_report(report_path, {
        "theorem": args.theorem,
        "inputs": rep.inputs,
        "bound": rep.theoretical_bound,
        "bound_formula_id": rep.bound_formula_id,
        "expected_metrics": rep.expected_metrics,
        "metrics": metrics(rep.net),
        "meta": rep.meta,
        "target": target.to_document() if target is not None else None,
    })
    print(f"wrote {args.output} and {report_path}")
    return 0


def _cmd_eval(args):
    net = _load_net(args.net)
    pts = [_parse_floats(arg) for arg in args.points]
    try:
        vals = evaluate_array(net, np.array(pts))
    except ValueError as exc:
        # points of unequal or wrong length, or a non-finite value
        raise UsageError(f"cannot evaluate {args.net}: {exc}")
    for v in vals:
        print(" ".join(repr(float(u)) for u in np.atleast_1d(v)))
    return 0


def _cmd_size(args):
    net = _load_net(args.net)
    m = metrics(net)
    print(f"width {m.width} depth {m.depth} height {m.height} "
          f"neurons {m.neuron_count} params {m.param_count}")
    return 0


def _target_callable(args, doc, d):
    spec = _target_from(args, doc)
    if spec is None:
        raise UsageError("verify needs a --target")
    if spec.d != d:
        spec = TargetSpec.catalog(spec.catalog_id, d=d, domain=spec.domain,
                                  **dict(spec.params))
    return spec


def _cmd_verify(args):
    net = _load_net(args.net)
    report_path = args.net + ".report.json"
    build_doc = _load_doc(report_path, "build report") \
        if os.path.exists(report_path) else {}
    doc = _load_doc(args.params)
    target = _target_callable(args, doc, net.input_dim)
    if args.bound is not None:
        bound = _number(args.bound, "--bound")
    elif build_doc.get("bound") is not None:
        bound = _number(build_doc["bound"],
                        f"bound in build report {report_path}")
    else:
        raise UsageError(f"verify needs a bound: pass --bound or keep "
                         f"the build report {report_path}")
    if bound <= 0:
        raise UsageError(f"the bound must be positive, got {bound!r}")
    domain = args.domain or target.domain
    support = args.support
    if support is not None:
        support = _number(support, "--support")
    elif args.norm == "gauss":
        meta = build_doc.get("meta")
        if not isinstance(meta, dict) or meta.get("support") is None:
            raise UsageError("gauss norm needs --support (or a build report "
                             "recording it)")
        support = _number(meta["support"],
                          f"support in build report {report_path}")
    try:
        if args.norm == "sup":
            report = verify.sup_error(net, target, domain, bound=bound)
        elif args.norm == "lp":
            report = verify.lp_error(net, target, args.p, domain, bound=bound)
        else:
            report = verify.gauss_l2_error(net, target, support, bound=bound)
    except (ValueError, NotImplementedError) as exc:
        # an unbounded domain, or a net the norm cannot measure: wrong
        # dimension, no compact support, non-finite values
        raise UsageError(f"cannot measure {args.net}: {exc}")
    out = args.output or (args.net + ".verify.json")
    _write_report(out, report.to_document())
    status = "pass" if report.passed else "FAIL"
    print(f"{status}: measured {report.measured:.6e} vs bound "
          f"{report.bound:.6e} ({out})")
    return 0 if report.passed else 1


def _cmd_sweep(args):
    fixed, _ = _theorem_params(args, _load_doc(args.params), "sweep")
    values = _parse_values(args)
    param = (args.param, values) if args.param else values
    try:
        table = verify.sweep(args.theorem, param, fixed, csv_path=args.output)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot sweep {args.theorem}: {_reason(exc)}")
    ok = all(r.measured <= r.bound * (1.0 + verify.PASS_SLACK)
             for r in table.rows)
    print(f"{'pass' if ok else 'FAIL'}: {len(table.rows)} rows "
          f"-> {args.output}")
    return 0 if ok else 1


def _cmd_table1(args):
    configs = verify.TABLE1
    try:
        if args.config:
            configs = _read_json(args.config, "table1 config")
            if not (isinstance(configs, list)
                    and all(isinstance(c, dict) and "row" in c
                            for c in configs)):
                raise UsageError('table1 config must be a JSON list of '
                                 'rows, each with a "row" key')
            for cfg in configs:
                if "target" in cfg:
                    cfg["target"] = TargetSpec.from_document(cfg["target"])
        table = verify.table1_report(configs, csv_path=args.output)
    except (KeyError, TypeError, ValueError) as exc:
        # a row without a baseline, an unknown theorem or catalog id, a
        # missing or malformed parameter
        raise UsageError(f"bad table1 config: {_reason(exc)}")
    print(f"wrote {args.output} ({len(table.rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags: verify --d is refused, not read as --domain."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_theorem_flags(parser, verb):
    """The theorem, its parameter document, the target and the parameter
    flags of a verb."""
    parser.add_argument("--theorem", required=True,
                        choices=list(builders.THEOREM_IDS))
    parser.add_argument("--params", help="JSON parameter document")
    parser.add_argument("--target", help=f"catalog target id "
                                         f"(one of {catalog_ids()})")
    parser.add_argument("--domain", help="target domain name")
    parser.add_argument("--d", type=int, help="input dimension")
    for prm in _flag_params(verb):
        if isinstance(prm.kind, tuple):
            parser.add_argument(f"--{prm.name}", choices=prm.kind)
        else:
            parser.add_argument(f"--{prm.name}", type=prm.kind)


def _build_parser():
    p = _Parser(prog="relu3d",
                description="Constructive intra-linked ReLU approximation "
                            "networks: build, evaluate, and verify.")
    sub = p.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("build", help="build a network and its report")
    _add_theorem_flags(b, "build")
    b.add_argument("-o", "--output", required=True, help="network file")
    b.set_defaults(fn=_cmd_build)

    e = sub.add_parser("eval", help="evaluate a network file at points")
    e.add_argument("net")
    e.add_argument("points", nargs="+",
                   help="points, one comma-separated coordinate list each")
    e.set_defaults(fn=_cmd_eval)

    v = sub.add_parser("verify", help="measure a network against a target")
    v.add_argument("net")
    v.add_argument("--target", help="catalog target id")
    v.add_argument("--params", help="JSON parameter document")
    v.add_argument("--norm", default="sup", choices=("sup", "lp", "gauss"))
    v.add_argument("--p", type=float, default=2.0, help="L^p exponent")
    v.add_argument("--domain", help="domain name or use the target's")
    v.add_argument("--bound", type=float,
                   help="override the bound from the build report")
    v.add_argument("--support", type=float,
                   help="compact support half-width for the gauss norm")
    v.add_argument("-o", "--output", help="report path")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", help="sweep a parameter and emit CSV")
    s.add_argument("--param", help="name of the swept parameter")
    s.add_argument("--values", help="comma-separated sweep values")
    s.add_argument("--range", help="lo:hi[:step] integer sweep range")
    _add_theorem_flags(s, "sweep")
    s.add_argument("-o", "--output", default="sweep.csv")
    s.set_defaults(fn=_cmd_sweep)

    z = sub.add_parser("size", help="print the size metrics of a network")
    z.add_argument("net")
    z.set_defaults(fn=_cmd_size)

    t = sub.add_parser("table1", help="size/error comparison report CSV")
    t.add_argument("--config", help="JSON list of row configs (default: "
                                     "the paper's 13-row table)")
    t.add_argument("-o", "--output", default="table1.csv")
    t.set_defaults(fn=_cmd_table1)
    return p


def run(argv):
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
