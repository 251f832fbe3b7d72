"""Instance-file JSON schema (version hyperdisc-instance/1).

A file's "backend" names the arithmetic its values are read in: "rational"
(the default when it is missing) or "float"; any other value is rejected.
In memory there is no such tag: a Fraction is exact and a float is
binary64, and instance_to_json reads the label off the instance.  Fractions
are emitted as exact "p/q" strings so a parse/emit round trip is lossless;
binary64 values rely on Python's shortest round-trip float formatting.
Emission sorts keys and uses fixed separators so identical inputs produce
byte-identical files.

``dumps`` writes the layout of json.dumps(obj, sort_keys=True, indent=2,
separators=(",", ": ")) byte for byte, but not through json.dumps: with an
indent, CPython 3.11 falls back to its pure-Python encoder.  A container of
scalars goes through the C encoder, one per depth, whose item separator
carries that depth's newline and indent, and anything else recurses, except
a distribution's support.  distribution_to_json leaves that as a
SupportRows, the sets array and one probability text per row, and dumps
writes it in one join: one object array holds each row's head (its "prob"
text and the keys), its elements and its tail, each distinct element
value is formatted once, and no dict or list is built per set.

The signed (kls) lane is exact and is checked here, once.  A kls file is
read as exact rationals whatever its "backend" says, which loses nothing,
since every binary64 value is a rational.  Loading then builds the
coefficient table (KlsInstance.coefficient_table), where every vector's
rank and cone membership are checked exactly or hold by construction
(KlsTable.build), so a bad vector fails at load; so do generators u_i that
are not one per vector with v_i = vec(u_i u_i^T) (KlsInstance.generators_match).
An sr file's vectors must sum to e within ISOTROPY_TOL, added as
srdist.effective_resistance_family adds them (srdist.isotropic).  In both
kinds, every vector's length is checked against the size h's parameters
declare before h is built, so a huge declared size allocates nothing.

Integer fields (the "set" lists of a subset distribution, its "n", the
hyperbolic parameters and a custom polynomial's "nvars" and exponents) must
be JSON ints, and a scalar may not be a JSON boolean or a non-finite
float (NaN, Infinity); anything else, a bool in an integer field included,
is rejected.  The "set" lists are read into one int array (set_rows,
then SRDistribution.sets), and each distinct "prob" value is parsed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatch, InvalidParams
from .graphs import Graph
from .hyperbolic import (
    DeterminantInstance,
    ElemSymInstance,
    HyperbolicInstance,
    LorentzInstance,
    RealStableInstance,
)
from .mixedchar import KlsInstance, RandomVar, SrInstance
from .realstable import MultiPoly
from .scalars import ISOTROPY_TOL
from .srdist import SRDistribution, isotropic, per_object

SCHEMA_VERSION = "hyperdisc-instance/1"
RATIONAL = "rational"
FLOAT = "float"


def scalar_to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float)):
        return x
    raise TypeError(f"cannot serialize scalar {x!r}")


def scalar_from_json(v, backend: str):
    if isinstance(v, bool):
        raise ValueError(f"a scalar cannot be the boolean {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"a scalar must be finite, got {v!r}")
    if isinstance(v, str):
        num, _, den = v.partition("/")
        value = Fraction(int(num), int(den) if den else 1)
        return value if backend == RATIONAL else float(value)
    if backend == RATIONAL:
        return Fraction(v)  # exact for ints and for binary64 values alike
    return float(v)


def vec_to_json(v) -> list:
    return [scalar_to_json(c) for c in v]


def vec_from_json(obj, backend: str) -> tuple:
    return tuple(scalar_from_json(c, backend) for c in obj)


def h_to_json(h: HyperbolicInstance) -> dict:
    params = h.params()
    if h.kind == "custom":
        params["poly"] = {
            "nvars": h.poly.nvars,
            "terms": [[list(e), scalar_to_json(c)] for e, c in sorted(h.poly.terms.items())],
        }
    return params


def int_from_json(v) -> int:
    """A JSON int; a float, a string or a bool is rejected."""
    if type(v) is not int:
        raise ValueError(f"expected an int, got {v!r}")
    return v


_SIZED = {cls.kind: (cls, names) for cls, names in (
    (DeterminantInstance, ("mprime",)), (LorentzInstance, ("m",)), (ElemSymInstance, ("n", "k")))}


def h_from_json(obj: dict, backend: str, vectors=()) -> HyperbolicInstance:
    """The hyperbolic polynomial obj describes.  Every one of vectors must
    have the length its parameters declare (size), which is checked before
    the class builds e, with that many entries, so a huge declared size
    raises DimensionMismatch and allocates nothing.  A custom h lists e in
    the file, and KlsInstance.build and SrInstance.build check the vectors
    against it."""
    kind = obj["kind"]
    if kind in _SIZED:
        cls, names = _SIZED[kind]
        params = [int_from_json(obj[name]) for name in names]
        m = cls.size(*params)
        for v in vectors:
            if len(v) != m:
                raise DimensionMismatch(f"vector has length {len(v)}, expected {m}")
        return cls(*params)
    if kind == "custom":
        poly_obj = obj["poly"]
        terms = {tuple(map(int_from_json, e)): scalar_from_json(c, backend)
                 for e, c in poly_obj["terms"]}
        poly = MultiPoly(int_from_json(poly_obj["nvars"]), terms)
        return RealStableInstance(poly, vec_from_json(obj["e"], backend))
    raise InvalidParams(f"unknown hyperbolic kind {kind!r}")


def variable_to_json(var: RandomVar) -> dict:
    return {"support": vec_to_json(var.support), "probs": vec_to_json(var.probs)}


def variable_from_json(obj: dict) -> RandomVar:
    return RandomVar(vec_from_json(obj["support"], RATIONAL),
                     vec_from_json(obj["probs"], RATIONAL))


@dataclass(frozen=True)
class SupportRows:
    """A distribution's "support" list as dumps writes it: row r of ``sets``
    is the "set" list of entry r, and texts[r] the JSON text of its "prob"."""

    sets: np.ndarray
    texts: list


def distribution_to_json(mu: SRDistribution) -> dict:
    """The "support" list is a SupportRows, which dumps writes as one
    {"prob": ..., "set": [...]} dict per row of mu.sets.  An entry whose
    probability is the previous entry's object reuses its text
    (srdist.per_object), so a spanning-tree distribution's one probability
    is formatted once; comparing by identity costs less than hashing a
    Fraction."""
    texts = per_object(lambda p: _scalar_text(scalar_to_json(p)), mu.probs)
    return {"n": mu.n, "d_mu": mu.d_mu, "support": SupportRows(mu.sets, texts)}


def distribution_from_json(obj: dict) -> SRDistribution:
    """The "set" column is parsed into one int array (set_rows); each
    distinct "prob" value is parsed once, and every entry that carries it
    shares the one object (a spanning-tree file has one).
    SRDistribution.from_rows runs every other check."""
    entries = obj["support"]
    texts = list(map(itemgetter("prob"), entries))
    probs = {p: scalar_from_json(p, RATIONAL) for p in set(texts)}
    sets = set_rows(list(map(itemgetter("set"), entries)))
    return SRDistribution.from_rows(int_from_json(obj["n"]), sets, map(probs.__getitem__, texts))


def set_rows(sets: list) -> np.ndarray:
    """The "set" lists of a support as one (N, d) intp array.  There must
    be at least one list, every element must be an int (a bool is not) and
    every list must have the same length; an element past the intp range is
    out of range.  SRDistribution.from_rows checks the rest."""
    if not sets:
        raise ValueError("empty support")
    flat = list(chain.from_iterable(sets))
    if not set(map(type, flat)) <= {int}:
        raise ValueError("support elements must be ints")
    sizes = set(map(len, sets))
    if len(sizes) != 1:
        raise ValueError("distribution is not homogeneous")
    try:
        elems = np.array(flat, dtype=np.intp)
    except OverflowError:
        raise ValueError("support element out of range") from None
    return elems.reshape(len(sets), sizes.pop())


def instance_to_json(inst, generator: dict | None = None, graph: Graph | None = None) -> dict:
    """A KlsInstance is written as kind "kls", backend "rational"; an
    SrInstance as kind "sr", backend "float" if any vector entry is a float
    and "rational" otherwise."""
    if isinstance(inst, KlsInstance):
        kind, backend = "kls", RATIONAL
        payload = {
            "h": h_to_json(inst.h),
            "vectors": [vec_to_json(v) for v in inst.vectors],
            "variables": [variable_to_json(v) for v in inst.variables],
        }
        if inst.generators is not None:
            payload["generators"] = [vec_to_json(u) for u in inst.generators]
    elif isinstance(inst, SrInstance):
        kind = "sr"
        backend = FLOAT if any(isinstance(c, float) for v in inst.vectors for c in v) else RATIONAL
        payload = {
            "h": h_to_json(inst.h),
            "distribution": distribution_to_json(inst.mu),
            "vectors": [vec_to_json(v) for v in inst.vectors],
        }
        if graph is not None:
            payload["graph"] = graph.to_json()
    else:
        raise TypeError(f"cannot serialize a {type(inst).__name__}")
    out = {"schema": SCHEMA_VERSION, "kind": kind, "backend": backend,
           "payload": payload}
    if generator is not None:
        out["generator"] = generator
    return out


def instance_from_json(obj: dict):
    """Returns (instance, kind).  Raises InvalidParams on a schema mismatch
    or a malformed file."""
    try:
        return _instance_from_json(obj)
    except KeyError as exc:
        raise InvalidParams(f"malformed instance file: missing key {exc}") from exc
    except (TypeError, AttributeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidParams(f"malformed instance file: {type(exc).__name__}: {exc}") from exc


def _instance_from_json(obj: dict):
    if obj.get("schema") != SCHEMA_VERSION:
        raise InvalidParams(f"unsupported schema {obj.get('schema')!r}")
    kind = obj["kind"]
    backend = obj.get("backend", RATIONAL)
    if backend not in (RATIONAL, FLOAT):
        raise InvalidParams(f"unknown backend {backend!r}")
    payload = obj["payload"]
    if kind == "kls":
        h = h_from_json(payload["h"], RATIONAL, payload["vectors"])
        vectors = [vec_from_json(v, RATIONAL) for v in payload["vectors"]]
        variables = [variable_from_json(v) for v in payload["variables"]]
        generators = None
        if "generators" in payload:
            generators = [vec_from_json(u, RATIONAL) for u in payload["generators"]]
        inst = KlsInstance.build(h, vectors, variables, generators=generators)
        inst.coefficient_table  # the exact rank and cone checks
        if generators is not None and not inst.generators_match:
            raise InvalidParams("generators must be one u_i per vector with v_i = vec(u_i u_i^T)")
        return inst, kind
    if kind == "sr":
        h = h_from_json(payload["h"], backend, payload["vectors"])
        mu = distribution_from_json(payload["distribution"])
        vectors = [vec_from_json(v, backend) for v in payload["vectors"]]
        inst = SrInstance.build(h, mu, vectors)
        if not isotropic(h, inst.vectors):
            raise InvalidParams(f"the vectors do not sum to e within {ISOTROPY_TOL}")
        return inst, kind
    raise InvalidParams(f"unknown instance kind {kind!r}")


def dumps(obj) -> str:
    out = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


# Types the C encoder writes as one token; subclasses take the recursive path.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _not_serializable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.cache
def _flat(level: int):
    """The C encoder for a container whose items sit at ``level``: each
    item separator ends in that level's indent."""
    return c_make_encoder(None, _not_serializable, encode_basestring_ascii, None, ": ",
                          ",\n" + "  " * level, True, False, True)


def _scalar_text(x) -> str:
    """The JSON text of one scalar; TypeError for anything else."""
    return "".join(_flat(0)(x, 0))


def _write(o, level: int, out: list) -> None:
    if type(o) is SupportRows:
        out.append(_support_text(o, level))
        return
    is_list = isinstance(o, (list, tuple))
    if not (is_list or isinstance(o, dict)):
        out.extend(_flat(level)(o, level))  # a scalar, or TypeError
        return
    opening, closing = "[]" if is_list else "{}"
    if not o:
        out.append(opening + closing)
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if _SCALARS.issuperset(map(type, o if is_list else o.values())):
        text = "".join(_flat(level + 1)(o, level + 1))
        out += (opening, inner, text[1:-1], outer, closing)
        return
    sep = opening + inner
    for key, item in (enumerate(o) if is_list else sorted(o.items())):
        out.append(sep)
        if not is_list:
            out += (_key(key), ": ")
        _write(item, level + 1, out)
        sep = "," + inner
    out += (outer, closing)


def _key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _scalar_text(key)
    return encode_basestring_ascii(key)


def _support_text(rows: SupportRows, level: int) -> str:
    """The support list at ``level``, laid out as _write lays out its dicts,
    joined in one pass from one text per row's head (its "prob" and the
    keys), one per element and one per row's tail.  Each distinct element
    value is formatted once, so the work grows with the number of entries,
    not with the declared n."""
    at = ["\n" + "  " * (level + j) for j in range(4)]
    count, size = rows.sets.shape
    between = "," + at[1]
    opening, closing = ("[" + at[3], at[2] + "]") if size else ("[]", "")
    pieces = np.empty((count, size + 2), dtype=object)
    pieces[:, 0] = per_object(
        lambda text: "{" + at[2] + '"prob": ' + text + "," + at[2] + '"set": ' + opening,
        rows.texts)
    if size:
        values, index = np.unique(rows.sets, return_inverse=True)
        index = index.reshape(count, size)
        texts = np.array(list(map(str, values.tolist())), dtype=object)
        pieces[:, 1] = texts[index[:, 0]]
        pieces[:, 2:-1] = ("," + at[3] + texts)[index[:, 1:]]
    pieces[:, -1] = closing + at[1] + "}" + between
    pieces[-1, -1] = closing + at[1] + "}"
    return "[" + at[1] + "".join(pieces.ravel().tolist()) + at[0] + "]"
