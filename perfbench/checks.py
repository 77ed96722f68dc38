"""Output checks that take no expected values from the code under test.

Three kinds of check live here:

* closed forms: positive-root counts and dimensions of the simple Lie
  algebras, written out independently of ``hodgeorbit.rootdata``;
* a JSON-schema validator covering exactly the keywords used by
  ``golden/schema_v1.json`` (stdlib only; an unknown keyword is an error, so
  a schema change cannot silently weaken the check);
* canonical digests of library objects, compared against the reference
  digests recorded once from the seed commit (``reference/*.json``).
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

#: |positive roots| per family, restated here so the check is independent
POSITIVE_ROOTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


def split_type(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)", name)
    if not m:
        raise ValueError(f"bad type name {name!r}")
    return m.group(1), int(m.group(2))


def positive_root_count(name: str) -> int:
    family, rank = split_type(name)
    return POSITIVE_ROOTS[family](rank)


def lie_dimension(name: str) -> int:
    _, rank = split_type(name)
    return rank + 2 * positive_root_count(name)


# -- JSON schema ------------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "$id", "title", "description"}


def schema_errors(value, schema: dict, path: str = "$") -> list[str]:
    """Every violation of ``schema`` by ``value``; empty when valid."""
    errors = []
    for key, rule in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "type":
            names = rule if isinstance(rule, list) else [rule]
            if not any(_TYPES[n](value) for n in names):
                errors.append(f"{path}: not of type {rule}")
        elif key == "const":
            if value != rule or type(value) is not type(rule):
                errors.append(f"{path}: {value!r} != const {rule!r}")
        elif key == "enum":
            if value not in rule:
                errors.append(f"{path}: {value!r} not in {rule}")
        elif key == "minimum":
            if _TYPES["number"](value) and value < rule:
                errors.append(f"{path}: {value} < minimum {rule}")
        elif key == "required":
            if isinstance(value, dict):
                errors += [f"{path}: missing {k!r}" for k in rule if k not in value]
        elif key == "properties":
            if isinstance(value, dict):
                for k, sub in rule.items():
                    if k in value:
                        errors += schema_errors(value[k], sub, f"{path}.{k}")
        elif key == "additionalProperties":
            if rule is not False:
                raise ValueError(f"unsupported additionalProperties {rule!r}")
            if isinstance(value, dict):
                allowed = schema.get("properties", {})
                errors += [f"{path}: extra key {k!r}" for k in value if k not in allowed]
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += schema_errors(item, rule, f"{path}[{i}]")
        elif key == "oneOf":
            matches = sum(1 for sub in rule if not schema_errors(value, sub, path))
            if matches != 1:
                errors.append(f"{path}: matches {matches} branches of oneOf, need 1")
        else:
            raise ValueError(f"unsupported schema keyword {key!r}")
    return errors


# -- CLI output closed forms --------------------------------------------------


def cli_output_errors(argv: list, code, out: str, schema: dict) -> list[str]:
    """Closed-form and schema checks of one CLI query's stdout."""
    if code != 0:
        return [] if out == "" else ["output printed on a failing exit"]
    opts = dict(zip(argv[1::2], argv[2::2]))
    name = opts["--type"] + opts.get("--rank", "")
    dim = lie_dimension(name)
    if opts.get("--format") != "json":
        lines = out.splitlines()
        if argv[0] == "roots" and len(lines) - 1 != positive_root_count(name):
            return [f"{name}: {len(lines) - 1} TSV root rows"]
        return []
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    errors = schema_errors(doc, schema)
    if errors:
        return errors
    if doc["type"] != name:
        errors.append(f"type {doc['type']} != {name}")
    if argv[0] == "roots":
        want = positive_root_count(name)
        if doc["count"] != want or len(doc["roots"]) != want:
            errors.append(f"{name}: {doc['count']} roots, closed form {want}")
    else:
        for row in doc["rows"]:
            total = sum(cell["dim"] for cell in row["diamond"])
            if total != dim:
                errors.append(f"{name}: diamond dims sum to {total}, dim g = {dim}")
    return errors


# -- canonical digests of library objects -------------------------------------


def _num(c):
    """An exact scalar as a pair of Fraction strings (real, imaginary)."""
    if hasattr(c, "re") and hasattr(c, "im"):
        re_, im_ = c.re, c.im
    else:
        re_, im_ = c.real, c.imag
    return [str(Fraction(re_)), str(Fraction(im_))]


def _vector(sc, vec: dict) -> list:
    """A basis-coordinate dict as sorted (label, value) pairs, zeros dropped.

    Cartan directions are labelled by their index and root vectors by their
    root, so the digest does not depend on the order of the basis.
    """
    rank = sc.rs.rank
    out = []
    for k, c in vec.items():
        if c:
            label = ["h", k] if k < rank else ["x", list(sc.basis_roots[k - rank])]
            out.append([label, _num(c)])
    out.sort(key=lambda e: json.dumps(e[0]))
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def structure_constants_digest(sc) -> str:
    """N_{a,b} for every pair of positive roots whose sum is a root."""
    rs = sc.rs
    table = []
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s):
                (target,) = sc.x(s)
                table.append([list(a), list(b), _num(sc.bracket(sc.x(a), sc.x(b)).get(target, 0))])
    return digest(table)


def rational_form_digest(sc, form) -> str:
    return digest(
        {
            "compact_dim": form.compact_dim,
            "noncompact_dim": form.noncompact_dim,
            "parity": sorted([list(b), int(p)] for b, p in form.parity.items()),
            "h": [_vector(sc, v) for v in form.h],
            "u": sorted([list(b), _vector(sc, v)] for b, v in form.u.items()),
            "v": sorted([list(b), _vector(sc, v)] for b, v in form.v.items()),
        }
    )


def triple_digest(sc, triple) -> str:
    return digest([_vector(sc, v) for v in triple])


def rational_form_errors(name: str, T, rs, form) -> list[str]:
    """compact + noncompact = dim g, and compact recounted from beta(T) parity."""
    errors = []
    dim = lie_dimension(name)
    if len(rs.positive_roots) != positive_root_count(name):
        errors.append(f"{name}: {len(rs.positive_roots)} positive roots")
    if form.compact_dim + form.noncompact_dim != dim:
        errors.append(f"{name}: compact + noncompact != {dim}")
    even = sum(1 for b in rs.positive_roots if sum(x * t for x, t in zip(b, T)) % 2 == 0)
    if form.compact_dim != rs.rank + 2 * even:
        errors.append(f"{name} T={T}: compact_dim {form.compact_dim} != {rs.rank + 2 * even}")
    return errors
