"""JSON input and output for the finite structures, plus DOT export.

Every document carries ``"schema": 1`` and a ``"kind"``.  Loaders check the
document shape only; axioms are left to the validators so that a broken
structure can still be loaded and reported on.  Dumps are deterministic:
composition tables and order relations are sorted and ``dumps`` emits sorted
keys.  The text of ``dumps``, and of every ``--json`` result, is byte for
byte what ``json.dumps`` writes with ``indent=2, sort_keys=True``, plus a
newline; a rule-backed structure is dumped a row at a time and never
tabulated.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any

from .cohomology import GroupGammaAction
from .colimit import FilteredDiagram
from .core import FiniteCategory, FiniteGroupoid, GroupoidMap
from .gamma import EquivariantMap, GammaAction
from .groups import FiniteGroup, _from_table
from .presheaf import FiniteSite, GroupoidPresheaf, PresheafGammaAction
from .twisted import InvolutiveGroupData

__all__ = [
    "SchemaError",
    "SCHEMA_VERSION",
    "dump_document",
    "load_document",
    "dumps",
    "loads",
    "to_dot",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def _require(doc: Any, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a {kind} object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    return doc


def _ints(values) -> bool:
    return all(map(isinstance, values, repeat(int)))


def _int_rows(val: Any, width: int | None = None) -> bool:
    """Whether ``val`` is a list of integer lists, each ``width`` long if
    ``width`` is given."""
    return (isinstance(val, list) and all(map(isinstance, val, repeat(list)))
            and (width is None or set(map(len, val)) <= {width})
            and _ints(chain.from_iterable(val)))


def _int_list(doc: dict, key: str, kind: str) -> tuple[int, ...]:
    val = doc.get(key)
    if not isinstance(val, list) or not _ints(val):
        raise SchemaError(f"{kind}: {key} must be a list of integers")
    return tuple(val)


def _str_list(doc: dict, key: str, kind: str, optional: bool = True):
    val = doc.get(key)
    if val is None and optional:
        return None
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise SchemaError(f"{kind}: {key} must be a list of strings")
    return tuple(val)


def _triples(doc: dict, key: str, kind: str) -> dict:
    val = doc.get(key)
    if not isinstance(val, list):
        raise SchemaError(f"{kind}: {key} must be a list of triples")
    if not _int_rows(val, 3):
        raise SchemaError(f"{kind}: {key} entries must be integer triples")
    return {(a, b): w for a, b, w in val}


# ---------------------------------------------------------------------------
# categories and groupoids


def _dump_category_fields(c: FiniteCategory) -> dict:
    return {
        "n_objects": c.n_objects,
        "src": list(c.src),
        "tgt": list(c.tgt),
        "id_of": list(c.id_of),
        "comp": [[a, b, w] for (a, b), w in sorted(c.compositions())],
    }


def _load_category_fields(doc: dict, kind: str, where: str = "", extra=()) -> list:
    """The arguments of a category constructor, read from ``doc``:
    ``n_objects``, ``src``, ``tgt``, ``id_of``, the integer lists named in
    ``extra``, then ``comp``; schema errors are prefixed ``kind: `` and name
    ``n_objects`` after ``where``."""
    n = doc.get("n_objects")
    if not isinstance(n, int) or n < 0:
        raise SchemaError(f"{kind}: {where}n_objects must be a nonnegative integer")
    lists = [_int_list(doc, key, kind) for key in ("src", "tgt", "id_of", *extra)]
    return [n, *lists, _triples(doc, "comp", kind)]


def _dump_groupoid(g: FiniteGroupoid) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "groupoid",
        **_dump_category_fields(g),
        "inv": list(g.inv),
    }
    if g.obj_labels is not None:
        doc["obj_labels"] = list(g.obj_labels)
    if g.mor_labels is not None:
        doc["mor_labels"] = list(g.mor_labels)
    return doc


def _load_groupoid(doc: Any) -> FiniteGroupoid:
    doc = _require(doc, "groupoid")
    return FiniteGroupoid(
        *_load_category_fields(doc, "groupoid", extra=("inv",)),
        obj_labels=_str_list(doc, "obj_labels", "groupoid"),
        mor_labels=_str_list(doc, "mor_labels", "groupoid"),
    )


# ---------------------------------------------------------------------------
# groups


def _dump_group(g: FiniteGroup) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "group",
        "name": g.name,
        "table": [list(row) for row in g.table],
        "labels": list(g.labels) if g.labels is not None else None,
    }


def _load_group(doc: Any) -> FiniteGroup:
    doc = _require(doc, "group")
    table = doc.get("table")
    if not _int_rows(table):
        raise SchemaError("group: table must be a list of integer rows")
    labels = doc.get("labels")
    if labels is not None:
        labels = _str_list(doc, "labels", "group")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("group: name must be a string")
    try:
        return _from_table(tuple(tuple(row) for row in table),
                           name or "G", labels)
    except ValueError as exc:
        raise SchemaError(f"group: {exc}") from exc


def _dump_group_involution(a: GroupGammaAction) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "group-involution",
        "group": _dump_group(a.group),
        "bar": list(a.bar),
    }


def _load_group_involution(doc: Any) -> GroupGammaAction:
    doc = _require(doc, "group-involution")
    return GroupGammaAction(
        group=_load_group(doc.get("group")),
        bar=_int_list(doc, "bar", "group-involution"),
    )


# ---------------------------------------------------------------------------
# involutions on groupoids


def _dump_gamma_action(a: GammaAction) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "gamma-action",
        "groupoid": _dump_groupoid(a.carrier),
        "bar_obj": list(a.bar_obj),
        "bar_mor": list(a.bar_mor),
    }


def _load_gamma_action(doc: Any) -> GammaAction:
    doc = _require(doc, "gamma-action")
    return GammaAction(
        carrier=_load_groupoid(doc.get("groupoid")),
        bar_obj=_int_list(doc, "bar_obj", "gamma-action"),
        bar_mor=_int_list(doc, "bar_mor", "gamma-action"),
    )


# ---------------------------------------------------------------------------
# twisted module data


def _dump_twisted_data(d: InvolutiveGroupData) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "twisted-data",
        "group": _dump_group(d.group),
        "theta": list(d.theta),
        "b_elements": list(d.b_elements),
    }


def _load_twisted_data(doc: Any) -> InvolutiveGroupData:
    doc = _require(doc, "twisted-data")
    return InvolutiveGroupData(
        group=_load_group(doc.get("group")),
        theta=_int_list(doc, "theta", "twisted-data"),
        b_elements=_int_list(doc, "b_elements", "twisted-data"),
    )


# ---------------------------------------------------------------------------
# sites and presheaves


def _dump_site(s: FiniteSite) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "site",
        "open_labels": list(s.open_labels),
        "leq": [[u, v] for (u, v) in sorted(s.leq)],
        "point_labels": list(s.point_labels),
        "point_open": list(s.point_open),
    }


def _load_site(doc: Any) -> FiniteSite:
    doc = _require(doc, "site")
    leq = doc.get("leq")
    if not _int_rows(leq, 2):
        raise SchemaError("site: leq must be a list of integer pairs")
    open_labels = _str_list(doc, "open_labels", "site", optional=False)
    point_labels = _str_list(doc, "point_labels", "site", optional=False)
    return FiniteSite(
        open_labels=open_labels,
        leq=frozenset((p[0], p[1]) for p in leq),
        point_labels=point_labels,
        point_open=_int_list(doc, "point_open", "site"),
    )


def _dump_map_tables(f: GroupoidMap) -> dict:
    return {"obj_map": list(f.obj_map), "mor_map": list(f.mor_map)}


def _load_map_tables(doc: Any, dom, cod, kind: str) -> GroupoidMap:
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind}: each map must be an object")
    return GroupoidMap(
        dom, cod,
        _int_list(doc, "obj_map", kind),
        _int_list(doc, "mor_map", kind),
    )


def _dump_presheaf_action(p: PresheafGammaAction) -> dict:
    site = p.presheaf.site
    return {
        "schema": SCHEMA_VERSION,
        "kind": "presheaf",
        "site": _dump_site(site),
        "sections": [_dump_gamma_action(a) for a in p.at],
        "res": [
            [u, v, _dump_map_tables(p.presheaf.res[(u, v)])]
            for (u, v) in sorted(site.comparable_pairs())
        ],
    }


def _load_presheaf_action(doc: Any) -> PresheafGammaAction:
    doc = _require(doc, "presheaf")
    site = _load_site(doc.get("site"))
    sections = doc.get("sections")
    if not isinstance(sections, list):
        raise SchemaError("presheaf: sections must be a list")
    at = tuple(_load_gamma_action(s) for s in sections)
    res_doc = doc.get("res")
    if not isinstance(res_doc, list):
        raise SchemaError("presheaf: res must be a list")
    res = {}
    for row in res_doc:
        if (not isinstance(row, list) or len(row) != 3
                or not isinstance(row[0], int) or not isinstance(row[1], int)):
            raise SchemaError("presheaf: res entries must be [u, v, map]")
        u, v = row[0], row[1]
        if not (0 <= u < len(at) and 0 <= v < len(at)):
            raise SchemaError("presheaf: res endpoints out of range")
        res[(u, v)] = _load_map_tables(row[2], at[u].carrier, at[v].carrier, "presheaf")
    x = GroupoidPresheaf(site=site, sections=tuple(a.carrier for a in at), res=res)
    return PresheafGammaAction(presheaf=x, at=at)


# ---------------------------------------------------------------------------
# diagrams


def _load_index(doc: Any) -> FiniteCategory:
    if not isinstance(doc, dict):
        raise SchemaError("diagram: index must be an object")
    return FiniteCategory(*_load_category_fields(doc, "diagram", where="index "))


def _dump_diagram(d: FilteredDiagram) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "diagram",
        "index": _dump_category_fields(d.index),
        "nodes": [_dump_gamma_action(a) for a in d.nodes],
        "arrows": [_dump_map_tables(e.map) for e in d.arrows],
    }


def _load_diagram(doc: Any) -> FilteredDiagram:
    doc = _require(doc, "diagram")
    index = _load_index(doc.get("index"))
    nodes_doc = doc.get("nodes")
    if not isinstance(nodes_doc, list) or len(nodes_doc) != index.n_objects:
        raise SchemaError("diagram: one node per index object expected")
    nodes = tuple(_load_gamma_action(n) for n in nodes_doc)
    arrows_doc = doc.get("arrows")
    if not isinstance(arrows_doc, list) or len(arrows_doc) != index.n_morphisms:
        raise SchemaError("diagram: one arrow map per index arrow expected")
    if len(index.tgt) < index.n_morphisms:
        raise SchemaError("diagram: index tgt is shorter than src")
    arrows = []
    for u, row in enumerate(arrows_doc):
        i, j = index.src[u], index.tgt[u]
        if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
            raise SchemaError("diagram: index arrow endpoints out of range")
        arrows.append(EquivariantMap(
            _load_map_tables(row, nodes[i].carrier, nodes[j].carrier, "diagram"),
            nodes[i], nodes[j]))
    return FilteredDiagram(index=index, nodes=nodes, arrows=tuple(arrows))


# ---------------------------------------------------------------------------
# dispatch


_DUMPERS = (
    (PresheafGammaAction, _dump_presheaf_action),
    (FilteredDiagram, _dump_diagram),
    (InvolutiveGroupData, _dump_twisted_data),
    (GroupGammaAction, _dump_group_involution),
    (GammaAction, _dump_gamma_action),
    (FiniteSite, _dump_site),
    (FiniteGroup, _dump_group),
    (FiniteGroupoid, _dump_groupoid),
)

_LOADERS = {
    "groupoid": _load_groupoid,
    "group": _load_group,
    "group-involution": _load_group_involution,
    "gamma-action": _load_gamma_action,
    "twisted-data": _load_twisted_data,
    "site": _load_site,
    "presheaf": _load_presheaf_action,
    "diagram": _load_diagram,
}


def dump_document(obj: Any) -> dict:
    for cls, dumper in _DUMPERS:
        if isinstance(obj, cls):
            return dumper(obj)
    raise SchemaError(f"no serialization for {type(obj).__name__}")


def load_document(doc: Any):
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise SchemaError(f"unknown kind {kind!r}")
    return _LOADERS[kind](doc)


def _json_text(doc) -> str:
    """The one JSON text format of documents and ``--json`` results: byte for
    byte what ``json.dumps`` writes with ``indent=2, sort_keys=True``, plus
    a newline.

    The stdlib writes indented JSON one value at a time in Python.  This
    writer tests types as ``json.encoder._make_iterencode`` does, in the same
    order, but writes a list of ints with one ``join`` and a list of equally
    long int lists, such as composition triples, with one ``%`` format."""
    return _write(doc, "\n") + "\n"


def _write(v, nl: str) -> str:
    """``v`` as indented JSON; ``nl`` is a newline and ``v``'s indent."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if not isinstance(v, (list, tuple, dict)):
        return json.dumps(v)  # a float, or a TypeError
    if not v:
        return "{}" if isinstance(v, dict) else "[]"
    inner = nl + "  "
    sep = "," + inner
    if isinstance(v, dict):
        body = sep.join([_key(k) + ": " + _write(x, inner)
                         for k, x in sorted(v.items())])
        return "{" + inner + body + nl + "}"
    types = set(map(type, v))
    if types == {int}:
        body = sep.join(map(int.__repr__, v))
    elif types != {list} or not (body := _rows_text(v, inner)):
        body = sep.join([_write(x, inner) for x in v])
    return "[" + inner + body + nl + "]"


def _rows_text(rows: list, nl: str) -> str:
    """The items of ``rows`` as JSON at indent ``nl``, in one ``%`` format,
    if they are equally long, non-empty lists of ints; else ``""``."""
    widths = set(map(len, rows))
    flat = tuple(chain.from_iterable(rows))
    if len(widths) != 1 or 0 in widths or set(map(type, flat)) != {int}:
        return ""
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(["%d"] * len(rows[0])) + nl + "]"
    return ("," + nl).join([row] * len(rows)) % flat


def _key(k) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar's JSON text
    quoted."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {k.__class__.__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def dumps(obj: Any) -> str:
    return _json_text(dump_document(obj))


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return load_document(doc)


# ---------------------------------------------------------------------------
# DOT export


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: FiniteGroupoid, name: str = "groupoid") -> str:
    """The groupoid as a directed graph; identity loops are left out."""
    identities = set(g.id_of)
    lines = [f'digraph "{_dot_escape(name)}" {{']
    for x in g.objects():
        lines.append(f'  o{x} [label="{_dot_escape(g.obj_label(x))}"];')
    for m in g.morphisms():
        if m in identities:
            continue
        lines.append(
            f'  o{g.src[m]} -> o{g.tgt[m]} [label="{_dot_escape(g.mor_label(m))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
