"""Command line access to the validators, invariants, and check suites.

Exit codes: 0 on success, 1 when a validation or check fails, 2 for unusable
input (bad JSON, wrong document kind, missing file, a document that a
compute command finds invalid by the checks of ``grpd validate``).  All
reports are deterministic for a fixed input, seed, and size; nothing timing
dependent is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from pathlib import Path

from .cohomology import GroupGammaAction, h1, validate_group_gamma_action
from .colimit import (FilteredDiagram, NotFilteredError, filtered_witness,
                      hfp_colimit_comparison, validate_diagram)
from .core import (FiniteGroupoid, InvariantViolation, _label_report,
                   components, groupoid_cardinality, is_fibration, validate_groupoid)
from .gamma import GammaAction, hfp, validate_gamma_action
from .groups import FiniteGroup, validate_group
from .jsonio import SchemaError, _json_text, dump_document, load_document, to_dot
from .presheaf import (FiniteSite, PresheafGammaAction,
                       stalk_commutation_check,
                       validate_presheaf_gamma_action, validate_site)
from .suites import SUITE_NAMES, run_all, run_suite
from .twisted import InvolutiveGroupData, parameter_fibration, validate_involutive_data

__all__ = ["main", "run"]


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return load_document(doc)


def _emit(args, out, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        out.write(text)


def _render(args, out, doc: dict) -> None:
    """Write a result as JSON with ``--json``, else as text: one ``key:
    value`` line per key, with ``_`` in a key shown as a space, a bool as
    yes/no and a list as its length; each record of a list of records
    follows as ``  first: k v, k v``, led by its first value."""
    if args.json:
        _emit(args, out, _json_text(doc))
        return
    lines = []
    for key, value in doc.items():
        if isinstance(value, bool):
            shown = "yes" if value else "no"
        elif isinstance(value, list):
            shown = len(value)
        else:
            shown = value
        lines.append(f"{key.replace('_', ' ')}: {shown}")
        if isinstance(value, list):
            for record in value:
                if isinstance(record, dict):
                    (_, first), *rest = record.items()
                    lines.append(f"  {first}: " + ", ".join(f"{k} {v}" for k, v in rest))
    _emit(args, out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# validate


def _validation_report(obj) -> list:
    if isinstance(obj, FiniteGroupoid):
        return validate_groupoid(obj)
    if isinstance(obj, FiniteGroup):
        return validate_group(obj)
    if isinstance(obj, GammaAction):
        return validate_gamma_action(obj)
    if isinstance(obj, GroupGammaAction):
        return validate_group(obj.group) or validate_group_gamma_action(obj)
    if isinstance(obj, InvolutiveGroupData):
        return validate_group(obj.group) or validate_involutive_data(obj)
    if isinstance(obj, FiniteSite):
        return validate_site(obj)
    if isinstance(obj, PresheafGammaAction):
        return (validate_site(obj.presheaf.site)
                or validate_presheaf_gamma_action(obj))
    if isinstance(obj, FilteredDiagram):
        return validate_diagram(obj)
    raise SchemaError(f"no validator for {type(obj).__name__}")


def _document(path: str, cls, kind: str):
    """The ``kind`` document at ``path``, if ``grpd validate`` finds nothing
    wrong with it; otherwise a usage error naming the first problem."""
    obj = _load(path)
    if not isinstance(obj, cls):
        raise SchemaError(f"{path}: expected a {kind} document")
    problems = _validation_report(obj)
    if problems:
        raise SchemaError(f"{path}: {problems[0]}")
    return obj


def _cmd_validate(args, out) -> int:
    report = _validation_report(_load(args.file))
    if report:
        lines = "".join(f"{line}\n" for line in report)
        _emit(args, out, lines + f"invalid: {len(report)} problem(s)\n")
        return 1
    _emit(args, out, "ok\n")
    return 0


# ---------------------------------------------------------------------------
# hfp


def _cmd_hfp(args, out) -> int:
    fp = hfp(_document(args.file, GammaAction, "gamma-action"))
    g = fp.groupoid
    if args.json:
        _emit(args, out, _json_text(dump_document(g)))
        return 0
    text = (f"objects: {g.n_objects}\n"
            f"morphisms: {g.n_morphisms}\n"
            f"components: {len(components(g))}\n"
            f"cardinality: {groupoid_cardinality(g)}\n"
            f"forgetful map is a fibration: "
            f"{'yes' if is_fibration(fp.iota()) else 'no'}\n")
    _emit(args, out, text)
    return 0


# ---------------------------------------------------------------------------
# h1


def _cmd_h1(args, out) -> int:
    a = _document(args.file, GroupGammaAction, "group-involution")
    classes = h1(a)  # the classes partition the cocycles
    _render(args, out, {
        "group": a.group.name,
        "cocycles": [a.group.label(s)
                     for s in sorted(chain.from_iterable(c.members for c in classes))],
        "classes": [
            {"representative": a.group.label(c.representative),
             "orbit": len(c.members),
             "stabilizer": len(c.stabilizer)}
            for c in classes
        ],
    })
    return 0


# ---------------------------------------------------------------------------
# twisted


def _cmd_twisted(args, out) -> int:
    d = _document(args.file, InvolutiveGroupData, "twisted-data")
    pf = parameter_fibration(d)
    _render(args, out, {
        "group": d.group.name,
        "subgroup_order": len(set(d.b_elements)),
        "cocycles": [d.group.label(x) for x in pf.cocycles.elements],
        "orbits": [
            {"representative": d.group.label(o.representative),
             "size": len(o.members),
             "stabilizer": len(o.stabilizer)}
            for o in pf.orbits
        ],
        "triples": len(pf.correspondence.x_elements),
        "pairs": len(pf.correspondence.y_elements),
        "fibration": pf.is_fibration,
        "weak_equivalence": pf.is_weak_equivalence,
        "cardinality": str(groupoid_cardinality(pf.target)),
    })
    return int(not pf.is_acyclic_fibration)


# ---------------------------------------------------------------------------
# colimit


def _cmd_colimit(args, out) -> int:
    d = _document(args.file, FilteredDiagram, "diagram")
    witness = filtered_witness(d.index)
    if witness is not None and not args.allow_unfiltered:
        _emit(args, out, f"not filtered: {witness}\n")
        return 1
    try:
        c = hfp_colimit_comparison(d, require_filtered=False)
    except NotFilteredError as exc:
        _emit(args, out, f"not filtered: {exc}\n")
        return 1
    g = c.colimit.groupoid
    if args.json:
        doc = {
            "filtered": witness is None,
            "colimit": dump_document(c.colimit.action),
            "fixed_points_of_colimit": {
                "objects": c.rhs.groupoid.n_objects,
                "morphisms": c.rhs.groupoid.n_morphisms,
            },
            "colimit_of_fixed_points": {
                "objects": c.lhs.n_objects,
                "morphisms": c.lhs.n_morphisms,
            },
            "isomorphism": c.is_isomorphism,
        }
        _emit(args, out, _json_text(doc))
        return 0 if c.is_isomorphism else 1
    lines = [
        "filtered: " + ("yes" if witness is None else f"no ({witness})"),
        f"colimit: {g.n_objects} objects, {g.n_morphisms} morphisms",
        (f"fixed points of colimit: {c.rhs.groupoid.n_objects} objects, "
         f"{c.rhs.groupoid.n_morphisms} morphisms"),
        (f"colimit of fixed points: {c.lhs.n_objects} objects, "
         f"{c.lhs.n_morphisms} morphisms"),
        "comparison map: " + ("isomorphism" if c.is_isomorphism
                              else "not an isomorphism"),
    ]
    _emit(args, out, "\n".join(lines) + "\n")
    return 0 if c.is_isomorphism else 1


# ---------------------------------------------------------------------------
# stalk


def _cmd_stalk(args, out) -> int:
    a = _document(args.file, PresheafGammaAction, "presheaf")
    site = a.presheaf.site
    points = list(site.points())
    if args.point is not None:
        matches = [t for t in points if site.point_labels[t] == args.point]
        if not matches:
            raise SchemaError(f"no point named {args.point!r}; "
                              f"points are {', '.join(site.point_labels)}")
        points = matches
    rows = []
    all_ok = True
    fps = [hfp(b) for b in a.at]
    for t in points:
        c = stalk_commutation_check(a, t, fps)
        st = c.colimit.groupoid
        all_ok = all_ok and c.is_isomorphism
        rows.append((site.point_labels[t], st.n_objects, st.n_morphisms,
                     c.is_isomorphism))
    if args.json:
        doc = {
            "points": [
                {"point": name, "objects": no, "morphisms": nm,
                 "hfp_commutes": ok}
                for name, no, nm, ok in rows
            ],
        }
        _emit(args, out, _json_text(doc))
        return 0 if all_ok else 1
    lines = [
        (f"point {name}: stalk has {no} objects, {nm} morphisms; "
         f"fixed points commute: {'yes' if ok else 'no'}")
        for name, no, nm, ok in rows
    ]
    _emit(args, out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# check


def _format_report(results) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        lines.extend(f"  {line}" for line in r.lines)
    npass = sum(1 for r in results if r.passed)
    lines.append(f"passed {npass} of {len(results)} suites")
    return "\n".join(lines) + "\n"


def _cmd_check(args, out) -> int:
    if args.suite is not None:
        results = [run_suite(args.suite, seed=args.seed, size=args.size)]
    else:
        results = run_all(seed=args.seed, size=args.size)
    header = f"seed {args.seed}, size {args.size}\n"
    _emit(args, out, header + _format_report(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# export-dot


def _cmd_export_dot(args, out) -> int:
    obj = _load(args.file)
    if isinstance(obj, GammaAction):
        g = obj.carrier
    elif isinstance(obj, FiniteGroupoid):
        g = obj
    else:
        raise SchemaError(
            f"{args.file}: expected a groupoid or gamma-action document")
    problems = _label_report(g)
    if problems:
        raise SchemaError(f"{args.file}: {problems[0]}")
    _emit(args, out, to_dot(g, name=Path(args.file).stem))
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="grpd",
        description="Finite groupoids with involution: validate structures, "
                    "compute fixed points and cohomology, run check suites.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        q = sub.add_parser(name, help=help_text)
        q.set_defaults(func=func)
        return q

    q = add("validate", _cmd_validate, "check a document against its axioms")
    q.add_argument("file")
    q.add_argument("--out", help="write the report to a file")

    q = add("hfp", _cmd_hfp,
            "homotopy fixed points of an involution on a groupoid")
    q.add_argument("file")
    q.add_argument("--json", action="store_true",
                   help="emit the fixed point groupoid as JSON")
    q.add_argument("--out")

    q = add("h1", _cmd_h1,
            "cocycles and their classes for an involution on a group")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.add_argument("--out")

    q = add("twisted", _cmd_twisted,
            "twisted cocycles, orbits, and the parameter fibration")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.add_argument("--out")

    q = add("colimit", _cmd_colimit,
            "colimit of a diagram and the fixed point comparison")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.add_argument("--allow-unfiltered", action="store_true",
                   help="compute even when the index is not filtered")
    q.add_argument("--out")

    q = add("stalk", _cmd_stalk,
            "stalks of a presheaf and the pointwise fixed point comparison")
    q.add_argument("file")
    q.add_argument("--point", help="restrict to the point with this label")
    q.add_argument("--json", action="store_true")
    q.add_argument("--out")

    q = add("check", _cmd_check, "run the deterministic check suites")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--size", choices=("small", "full"), default="full")
    q.add_argument("--suite", choices=SUITE_NAMES,
                   help="run a single suite instead of all of them")
    q.add_argument("--out", help="write the report to a file")

    q = add("export-dot", _cmd_export_dot,
            "write a groupoid as a DOT graph (identity loops omitted)")
    q.add_argument("file")
    q.add_argument("--out")

    return p


def run(argv, stdout=None) -> int:
    """Parse and execute; returns the exit code instead of raising SystemExit."""
    out = sys.stdout if stdout is None else stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args, out)
    except (SchemaError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
