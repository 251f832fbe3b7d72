"""Instance-file JSON schema (version hyperdisc-instance/1).

Scalars under the rational backend are emitted as exact "p/q" strings so a
parse/emit round trip is lossless; binary64 values rely on Python's
shortest round-trip float formatting.  Emission sorts keys and uses fixed
separators so identical inputs produce byte-identical files.

The signed (kls) lane is exact and is checked here, once.  A kls file is
read as exact rationals whatever its "backend" says, which loses nothing,
since every binary64 value is a rational.  Loading then builds the
coefficient table (KlsInstance.coefficient_table), which checks every
vector's rank and cone membership exactly, so a bad vector fails at load;
so do generators u_i that are not one per vector with v_i = vec(u_i u_i^T).

A subset distribution's "set" lists must hold JSON ints; they are read into
one int array (SRDistribution.sets) and any other entry, a bool included,
is rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidParams
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
from .scalars import FLOAT, RATIONAL
from .srdist import SRDistribution

SCHEMA_VERSION = "hyperdisc-instance/1"


def scalar_to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float)):
        return x
    raise TypeError(f"cannot serialize scalar {x!r}")


def scalar_from_json(v, backend: str):
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


def h_from_json(obj: dict, backend: str) -> HyperbolicInstance:
    kind = obj["kind"]
    if kind == "determinant":
        return DeterminantInstance(int(obj["mprime"]))
    if kind == "lorentz":
        return LorentzInstance(int(obj["m"]))
    if kind == "elem_sym":
        return ElemSymInstance(int(obj["n"]), int(obj["k"]))
    if kind == "custom":
        poly_obj = obj["poly"]
        terms = {tuple(e): scalar_from_json(c, backend)
                 for e, c in poly_obj["terms"]}
        poly = MultiPoly(int(poly_obj["nvars"]), terms,
                         RATIONAL if backend == RATIONAL else FLOAT)
        return RealStableInstance(poly, vec_from_json(obj["e"], backend))
    raise InvalidParams(f"unknown hyperbolic kind {kind!r}")


def variable_to_json(var: RandomVar) -> dict:
    return {"support": vec_to_json(var.support), "probs": vec_to_json(var.probs)}


def variable_from_json(obj: dict, backend: str) -> RandomVar:
    return RandomVar(vec_from_json(obj["support"], backend),
                     vec_from_json(obj["probs"], backend))


def distribution_to_json(mu: SRDistribution) -> dict:
    return {
        "n": mu.n,
        "d_mu": mu.d_mu,
        "support": [{"set": list(elems), "prob": scalar_to_json(p)}
                    for elems, p in mu.support],
    }


def distribution_from_json(obj: dict) -> SRDistribution:
    """Each distinct "prob" value is parsed once (a spanning-tree file has
    one); the "set" lists go to SRDistribution.from_support as they are."""
    entries = obj["support"]
    probs = {p: scalar_from_json(p, RATIONAL) for p in {entry["prob"] for entry in entries}}
    items = [(entry["set"], probs[entry["prob"]]) for entry in entries]
    return SRDistribution.from_support(int(obj["n"]), items)


def instance_to_json(inst, kind: str, backend: str, generator: dict | None = None,
                     graph: Graph | None = None) -> dict:
    if kind == "kls":
        payload = {
            "h": h_to_json(inst.h),
            "vectors": [vec_to_json(v) for v in inst.vectors],
            "variables": [variable_to_json(v) for v in inst.variables],
        }
        if inst.generators is not None:
            payload["generators"] = [vec_to_json(u) for u in inst.generators]
    elif kind == "sr":
        payload = {
            "h": h_to_json(inst.h),
            "distribution": distribution_to_json(inst.mu),
            "vectors": [vec_to_json(v) for v in inst.vectors],
        }
        if graph is not None:
            payload["graph"] = graph.to_json()
    else:
        raise InvalidParams(f"unknown instance kind {kind!r}")
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
    except (TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"malformed instance file: {type(exc).__name__}: {exc}") from exc


def _instance_from_json(obj: dict):
    if obj.get("schema") != SCHEMA_VERSION:
        raise InvalidParams(f"unsupported schema {obj.get('schema')!r}")
    kind = obj["kind"]
    backend = obj.get("backend", RATIONAL)
    payload = obj["payload"]
    if kind == "kls":
        h = h_from_json(payload["h"], RATIONAL)
        vectors = [vec_from_json(v, RATIONAL) for v in payload["vectors"]]
        variables = [variable_from_json(v, RATIONAL) for v in payload["variables"]]
        generators = None
        if "generators" in payload:
            generators = [vec_from_json(u, RATIONAL) for u in payload["generators"]]
        inst = KlsInstance.build(h, vectors, variables, generators=generators)
        inst.coefficient_table  # the exact rank and cone checks
        if generators is not None and not (
                isinstance(h, DeterminantInstance) and len(generators) == len(vectors)
                and all(len(u) == h.mprime and h.vec_outer(u) == v
                        for u, v in zip(generators, inst.vectors))):
            raise InvalidParams("generators must be one u_i per vector with v_i = vec(u_i u_i^T)")
        return inst, kind
    if kind == "sr":
        h = h_from_json(payload["h"], backend)
        mu = distribution_from_json(payload["distribution"])
        vectors = [vec_from_json(v, backend) for v in payload["vectors"]]
        return SrInstance.build(h, mu, vectors), kind
    raise InvalidParams(f"unknown instance kind {kind!r}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
