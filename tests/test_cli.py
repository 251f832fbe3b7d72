"""CLI surface: generation, solving, verification, bench, determinism."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from hyperdisc import unipoly
from hyperdisc.cli import _resolve_graph, build_parser, main
from hyperdisc.graphs import Graph
from hyperdisc.hyperbolic import determinant
from hyperdisc.serialize import dumps, instance_from_json, instance_to_json
from hyperdisc.mixedchar import AgFamily, KlsInstance, RandomVar, kls_node_poly, kls_operator_form
from hyperdisc.solver import brute_force
from hyperdisc.srdist import uniform_spanning_tree
from kls_helpers import fraction_node_poly
from unipoly_helpers import sign_at_without_powers


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_kls_det(capsys, tmp_path):
    out = tmp_path / "inst.json"
    code = main(["gen", "--kind", "kls-det", "--n", "3", "--mprime", "2",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["schema"] == "hyperdisc-instance/1"
    assert blob["generator"]["sigma"] > 0
    inst, kind = instance_from_json(blob)
    assert kind == "kls"
    assert inst.n == 3


def test_loading_a_kls_file_computes_no_char_poly(capsys, monkeypatch):
    # Traces and sigma are computed on first use, not on every load.  sigma
    # weighs the mix by one stacked int restriction of the vectors (one
    # batched kernel call), so it costs one characteristic polynomial, the
    # spectrum of the variance mix.
    from hyperdisc import hyperbolic

    _, out = run(capsys, "gen", "--kind", "kls-det", "--n", "4", "--mprime", "3",
                 "--seed", "2")
    blob = json.loads(out)
    calls = []
    real = hyperbolic.char_poly_exact
    monkeypatch.setattr(hyperbolic, "char_poly_exact",
                        lambda rows: calls.append(1) or real(rows))
    inst, _ = instance_from_json(blob)
    assert calls == []
    assert inst.sigma == blob["generator"]["sigma"]
    assert len(calls) == 1


def test_loading_an_sr_file_computes_no_marginal(capsys, monkeypatch):
    # eps1, eps2 and the leaf table are computed on first use, not on every
    # load; eps2 takes one stacked restriction of every vector.
    from hyperdisc import mixedchar
    from hyperdisc.hyperbolic import DeterminantInstance

    _, out = run(capsys, "gen", "--kind", "sr-ust", "--graph", "k4")
    blob = json.loads(out)
    calls = []
    marginal = mixedchar.max_marginal
    restrict = DeterminantInstance.restrict_line
    rows = DeterminantInstance.restrict_e_rows
    monkeypatch.setattr(mixedchar, "max_marginal",
                        lambda mu: calls.append("marginal") or marginal(mu))
    monkeypatch.setattr(DeterminantInstance, "restrict_line",
                        lambda h, base, dirv: calls.append("restrict") or restrict(h, base, dirv))
    monkeypatch.setattr(DeterminantInstance, "restrict_e_rows",
                        lambda h, bases: calls.append(("rows", len(bases))) or rows(h, bases))
    inst, _ = instance_from_json(blob)
    assert calls == []
    assert (inst.eps1, inst.eps2) == (blob["generator"]["eps1"], blob["generator"]["eps2"])
    assert calls == ["marginal", ("rows", inst.n)]


# The float node sums are order-sensitive in their last bits; these outputs
# pin the order (support order, from 0) without running the benchmark.
SR_BLOCKED_STDOUT = {
    "k4": {"assignment": [0, 1, 1, 0, 1, 0], "bound": 1.3502760634161082,
           "certified": 0.8535533905932738, "estimate": 1.0, "oracle_calls": 9, "seed": 0},
    "diamond": {"assignment": [0, 1, 0, 1, 1], "bound": 1.5000000000000004,
                "certified": 0.9999999999999994, "estimate": 1.1456439237389595,
                "oracle_calls": 7, "seed": 0},
}
# (brute assignment, brute norm, root-node largest root): what solve --method
# brute prints as assignment, certified and bound.
SR_BRUTE_VALUES = {
    "k4": ((1, 0, 1, 1, 0, 0), 0.8535533905932735, 0.9001840422774054),
    "diamond": ((0, 1, 1, 0, 1), 0.9999999999999996, 1.0000000000000002),
}


@pytest.mark.parametrize("graph", sorted(SR_BLOCKED_STDOUT))
def test_sr_solve_outputs_are_pinned(capsys, tmp_path, graph):
    path = tmp_path / "sr.json"
    assert main(["gen", "--kind", "sr-ust", "--graph", graph, "--out", str(path)]) == 0
    code, out = run(capsys, "solve", str(path), "--method", "blocked")
    assert code == 0
    assert out == dumps(SR_BLOCKED_STDOUT[graph])
    # solve --method brute hands brute_force the file kind "sr", which it
    # rejects (ROADMAP item 1); the values it would print are pinned instead.
    with pytest.raises(ValueError, match="kind must be"):
        main(["solve", str(path), "--method", "brute"])
    inst, _ = instance_from_json(json.loads(path.read_text()))
    assignment, value = brute_force(inst, "ag")
    assert (assignment, value, AgFamily(inst).root_max_root()) == SR_BRUTE_VALUES[graph]


def test_root_isolation_past_its_level_cap_exits_1_with_one_error_line(capsys, monkeypatch,
                                                                        tmp_path):
    # Eigenvalues 2 and 3, three times each, send the leaf spectra and the
    # root node through the exact Sturm route.  With a broken _sign_at (the
    # powers of d dropped) that route bisected without end; past its level
    # cap it raises, and solve exits 1 with one error line.
    h = determinant(6)
    gens = [tuple(Fraction(a) if j == i else Fraction(0) for j in range(6))
            for i, a in enumerate((2, 2, 2, 3, 3, 3))]
    inst = KlsInstance.build(h, [h.vec_outer(u) for u in gens], [RandomVar.rademacher()] * 6)
    path = tmp_path / "triple.json"
    path.write_text(dumps(instance_to_json(inst)))
    assert run(capsys, "solve", str(path))[0] == 0
    monkeypatch.setattr(unipoly, "_sign_at", sign_at_without_powers)
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: root isolation of degree ")
    assert captured.err.count("\n") == 1


def test_gen_invalid_params(capsys):
    code, _ = run(capsys, "gen", "--kind", "kls-det", "--n", "0")
    assert code == 1


@pytest.mark.parametrize("spec", [
    "foo", "random:6:x:0", "random:6",
    {"vertices": 3, "edges": [[0, 1], [1, 1]]},
    {"vertices": 3},
    {"vertices": 1, "edges": []},
    {"vertices": -1, "edges": []},
    {"vertices": 3, "edges": [[0, 1], [1, 2.7]]},
    {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 1]]},
    {"vertices": 3, "edges": [[0, 1], [1, 2], [1, 0]]},
], ids=["unknown-name", "non-int-random", "short-random", "self-loop-file", "no-edges-file",
        "one-vertex-file", "negative-vertices-file", "fractional-endpoint-file",
        "repeated-edge-file", "reversed-repeated-edge-file"])
def test_bad_graph_spec_exits_1(capsys, tmp_path, spec):
    if isinstance(spec, dict):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(spec))
        spec = f"@{path}"
    code = main(["gen", "--kind", "sr-ust", "--graph", spec])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_sr_ust_embeds_eps(capsys):
    code, out = run(capsys, "gen", "--kind", "sr-ust", "--graph", "k3")
    assert code == 0
    blob = json.loads(out)
    assert blob["generator"]["eps1"] == pytest.approx(2 / 3)
    assert blob["generator"]["eps2"] == pytest.approx(2 / 3, abs=1e-9)


def test_gen_deterministic(capsys):
    _, first = run(capsys, "gen", "--kind", "kls-det", "--n", "4", "--seed", "3")
    _, second = run(capsys, "gen", "--kind", "kls-det", "--n", "4", "--seed", "3")
    assert first == second
    _, third = run(capsys, "gen", "--kind", "kls-det", "--n", "4", "--seed", "4")
    assert first != third


# sha256 of the stdout of gen over the four variable kinds and seeds 0-3, in
# that order, per (kind, mprime or m, n): sigma is printed to the last bit.
GEN_KLS_DIGESTS = {
    ("kls-det", 1, 1): "9c4598b1dddf4b4cdc59e1825159f2c65e4f08dea1aedc24601149a3715ac181",
    ("kls-det", 1, 2): "3f7d28df0a702068e6aca3fda876d368a568d38aeb04764e8a9470a9b19d3ec3",
    ("kls-det", 1, 5): "cae418612e72d14feaae37ad0fcf4a4874abe9c7cd56b5c85e7a124c73854cf6",
    ("kls-det", 2, 1): "26bcac4e26ad6899557a75d934eb9fa8433660589ffd7659b4746575b46b15d1",
    ("kls-det", 2, 2): "ba710cd8864fba37b090ce7238a5498c93e5faadb296e05954e655ebbe60dc26",
    ("kls-det", 2, 5): "66bfff43fdc939670509311917442b65115136807f06626889ef48de1aca651c",
    ("kls-det", 3, 1): "0f4ef74deb8e9108f02a3687ac6e2bf4482dfb0051e44c70804f9f1802e46921",
    ("kls-det", 3, 2): "cbf0a9ca2066bf6ea00aa1bf6e4aa3ecb7262bb531e20358b48a954a0282bb4f",
    ("kls-det", 3, 5): "c5a371fc20a3ae341706ce57968a2760d4e557db6a265c594aaa5edd8541b919",
    ("kls-lorentz", 3, 1): "95531eb522063c43c71163c150ce303acaea2e10dc799761466abb11c4536024",
    ("kls-lorentz", 3, 2): "bd6173edb7807ef5dc497aadfcbd530d010e3df44f9630bb05ac68918b7a4b0c",
    ("kls-lorentz", 3, 5): "1bbe6a94d11e7c84cbdb0eec3ecbb352fd450843f1e3e7a21d4fb26d30c8ce53",
    ("kls-lorentz", 4, 1): "dbb331e65bc9f22cbc4ca5efa13c692a1a1a8a9286884b35cb7732d1ad144eeb",
    ("kls-lorentz", 4, 2): "75b9bad89ed11c98e7c4ee9a1101036efeb4f5f0ab6bc625355d33d2f169689b",
    ("kls-lorentz", 4, 5): "6983c57c85fa3d1603d9cc76dcfba6538286e859db27171b112a5c9812c7ac6a",
}
# sha256 of bench's JSON stdout at --count 2 --trials 20 --seed 3, with its
# timing columns dropped and the keys sorted, per (kind, size flag, size, n,
# variables): scale_param is sigma.
BENCH_KLS_DIGESTS = {
    ("kls-det", "--mprime", 1, 3, "mixed"):
        "dc5076fd670c98fb2f8fb1575eff0bdf04874fb156ef4313077ea1b20a6e615a",
    ("kls-det", "--mprime", 2, 4, "biased"):
        "8dcbb5a65e657010828154bf9ab8625dd140882682f6e841294c060060226751",
    ("kls-det", "--mprime", 3, 5, "threepoint"):
        "7bfc023c21a3c14c0d1bcbdd0eab78c3702c05b67f8320c13420d2af90b7343e",
    ("kls-lorentz", "--m", 3, 4, "rademacher"):
        "3fc9e16354d4f9b283c9d53443917f514e29d8dc4e378bb24e0c10beb0fe4cce",
    ("kls-lorentz", "--m", 4, 5, "mixed"):
        "2d1516f2d42efdf361e389740b1d2f033516b90544d6a5938b0d2fc52ab4a2e5",
}


@pytest.mark.parametrize("key", sorted(GEN_KLS_DIGESTS))
def test_gen_kls_outputs_are_pinned(capsys, key):
    kind, size, n = key
    flag = "--mprime" if kind == "kls-det" else "--m"
    digest = hashlib.sha256()
    for variables in ("mixed", "rademacher", "biased", "threepoint"):
        for seed in range(4):
            code, out = run(capsys, "gen", "--kind", kind, flag, str(size), "--n", str(n),
                            "--variables", variables, "--seed", str(seed))
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == GEN_KLS_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(BENCH_KLS_DIGESTS))
def test_bench_kls_outputs_are_pinned(capsys, key):
    kind, flag, size, n, variables = key
    code, out = run(capsys, "bench", "--kind", kind, flag, str(size), "--n", str(n),
                    "--variables", variables, "--count", "2", "--trials", "20", "--seed", "3")
    assert code == 0
    blob = json.loads(out)
    for row in blob["rows"]:
        del row["t_brute"], row["t_blocked"]
    text = json.dumps(blob, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_KLS_DIGESTS[key]


def test_roundtrip_lossless(capsys):
    # gen, load and emit again gives the generated bytes, for both kls kinds
    # and every variable kind.
    for gen in (("kls-det", "--n", "3", "--mprime", "2"), ("kls-det", "--n", "4", "--mprime", "3"),
                ("kls-lorentz", "--n", "4", "--m", "4")):
        for variables in ("rademacher", "biased", "threepoint", "mixed"):
            _, out = run(capsys, "gen", "--kind", *gen, "--variables", variables, "--seed", "9")
            blob = json.loads(out)
            inst, _ = instance_from_json(blob)
            again = instance_to_json(inst, generator=blob["generator"])
            assert dumps(again) == out, (gen, variables)
            # Loaded instance supports the exact identity (rational round trip).
            assert kls_node_poly(inst).coeffs == kls_operator_form(inst).coeffs


def test_solve_brute_toy(capsys, tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "2", "--mprime", "1",
          "--variables", "rademacher", "--seed", "2", "--out", str(inst_file)])
    code, out = run(capsys, "solve", str(inst_file), "--method", "brute")
    assert code == 0
    res = json.loads(out)
    assert set(res) == {"assignment", "estimate", "certified", "bound",
                        "oracle_calls", "seed"}


def test_solve_blocked(capsys, tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "4", "--mprime", "2",
          "--variables", "rademacher", "--seed", "5", "--out", str(inst_file)])
    code, out = run(capsys, "solve", str(inst_file), "--method", "blocked",
                    "--delta", "0.5")
    assert code == 0
    res = json.loads(out)
    assert res["certified"] <= res["bound"] + 1e-9
    assert res["oracle_calls"] > 0


def test_solve_blocked_deterministic(capsys, tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "4", "--seed", "6",
          "--out", str(inst_file)])
    _, a = run(capsys, "solve", str(inst_file), "--delta", "0.5")
    _, b = run(capsys, "solve", str(inst_file), "--delta", "0.5")
    assert a == b


def test_solve_beyond_the_enumeration_guardrail(capsys, tmp_path):
    # 2^5 * 3^5 = 7,776 completions: the root node and the oracle nodes
    # come from the coefficient table, which no completion count bounds.
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "10", "--mprime", "3",
          "--variables", "mixed", "--seed", "1", "--out", str(inst_file)])
    results = {}
    for method in ("brute", "blocked"):
        code, out = run(capsys, "solve", str(inst_file), "--method", method)
        assert code == 0
        results[method] = json.loads(out)
        assert results[method]["certified"] <= results[method]["bound"] + 1e-9
    assert results["blocked"]["certified"] >= results["brute"]["certified"] - 1e-12


def test_gen_and_solve_past_brute_force_scale(capsys, tmp_path):
    # 2^20 assignments: brute force refuses, the blocked search reads the
    # integer coefficient table.
    inst_file = tmp_path / "inst.json"
    code = main(["gen", "--kind", "kls-det", "--n", "20", "--mprime", "3",
                 "--variables", "rademacher", "--out", str(inst_file)])
    assert code == 0
    code, out = run(capsys, "solve", str(inst_file), "--method", "blocked")
    assert code == 0
    res = json.loads(out)
    assert len(res["assignment"]) == 20
    assert res["certified"] <= res["bound"]


def test_verify_beyond_the_enumeration_guardrail(capsys, tmp_path):
    # 7,776 completions: the operator identity is checked against the
    # table root, whose cost does not grow with the completions.
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "10", "--mprime", "3",
          "--variables", "mixed", "--seed", "1", "--out", str(inst_file)])
    code, out = run(capsys, "verify", str(inst_file))
    assert code == 0
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert checks["kls_operator_identity"] is True


@pytest.mark.parametrize("flags", [
    ("--delta", "0"), ("--delta", "nan"), ("--delta", "-1"),
    ("--block", "0"), ("--k", "3"),
])
def test_solve_rejects_bad_solver_params(capsys, tmp_path, flags):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "3", "--mprime", "2",
          "--variables", "rademacher", "--seed", "5", "--out", str(inst_file)])
    capsys.readouterr()
    code = main(["solve", str(inst_file), "--method", "blocked", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
def test_tiny_delta_runs_without_a_traceback(capsys, tmp_path, delta):
    # 2 M ln(degree) / delta overflows to inf; k is the degree's even clamp.
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "4", "--mprime", "2",
          "--variables", "rademacher", "--seed", "5", "--out", str(inst_file)])
    capsys.readouterr()
    for argv in (("solve", str(inst_file), "--delta", delta),
                 ("bench", "--kind", "kls-det", "--count", "1", "--n", "3",
                  "--trials", "5", "--delta", delta)):
        code, out = run(capsys, *argv)
        assert code in (0, 2), argv
        json.loads(out)


def test_solve_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "solve", str(bad))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("solve", "FILE", "--oracle", "enumeration"),
    ("solve", "FILE", "--method", "nope"),
    ("gen", "--kind", "nope"),
])
def test_usage_errors_exit_1(capsys, tmp_path, argv):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "2", "--mprime", "1",
          "--seed", "0", "--out", str(inst_file)])
    capsys.readouterr()
    code = main([str(inst_file) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


HUGE = str(10 ** 400)
SIZE_ERRORS = {HUGE: f"must be at most {sys.maxsize}", "-1": "must be at least 0"}


@pytest.mark.parametrize("argv", [
    ("solve", "FILE", "--block", HUGE),  # was an OverflowError in SolverConfig.resolve
    ("bench", "--trials", HUGE),  # was a ValueError from random_baseline's np.zeros
    ("gen", "--kind", "kls-lorentz", "--m", HUGE),  # was an OverflowError
    ("bench", "--kind", "kls-lorentz", "--m", HUGE),
    ("bench", "--count", "-1"),  # exited 0 with no rows
    ("bench", "--trials", "-1"),  # exited 0 and dropped the baseline
])
def test_oversized_size_option_exits_1_with_one_error_line(capsys, tmp_path, argv):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "kls-det", "--n", "2", "--mprime", "1",
          "--seed", "0", "--out", str(inst_file)])
    capsys.readouterr()
    code = main([str(inst_file) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(SIZE_ERRORS[argv[-1]])


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "kls-det", "--mprime", "SIZE"),  # ran on, building _pairs
    ("gen", "--kind", "kls-det", "--n", "SIZE"),
    ("bench", "--kind", "sr-ust", "--n", "SIZE"),  # was an OverflowError
    ("bench", "--kind", "kls-det", "--mprime", "SIZE"),
])
def test_oversized_sizes_are_rejected_while_parsing(capsys, argv):
    # Parsed only, never run: run, a size near the bound would allocate or loop.
    parser = build_parser()
    for bad, message in SIZE_ERRORS.items():
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([bad if a == "SIZE" else a for a in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    for good in (sys.maxsize, 0):
        args = parser.parse_args([str(good) if a == "SIZE" else a for a in argv])
        assert good in (args.n, args.mprime)


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--oracle" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("blob", [
    {"schema": "hyperdisc-instance/1", "kind": "kls"},
    {"schema": "hyperdisc-instance/1", "kind": "kls",
     "payload": {"h": {"kind": "determinant", "mprime": 1},
                 "variables": [{"support": ["1/1", "-1/1"],
                                "probs": ["1/2", "1/2"]}]}},
    [],
])
def test_malformed_instance_file_exits_1(capsys, tmp_path, command, blob):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code = main([command, str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_empty_kls_file_exits_1_at_load(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": "hyperdisc-instance/1", "kind": "kls",
                                 "backend": "rational",
                                 "payload": {"h": {"kind": "determinant", "mprime": 1},
                                             "vectors": [], "variables": []}}))
    for argv in (("solve", str(empty), "--method", "brute"),
                 ("solve", str(empty), "--method", "blocked"),
                 ("verify", str(empty))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "at least one vector" in captured.err


def _kls_det_file(capsys) -> dict:
    _, out = run(capsys, "gen", "--kind", "kls-det", "--n", "3", "--mprime", "2")
    return json.loads(out)


def _negated_first_vector(capsys) -> dict:
    blob = _kls_det_file(capsys)
    vectors = blob["payload"]["vectors"]
    vectors[0] = [str(-Fraction(c)) for c in vectors[0]]
    return blob


def _scalar_signs(capsys) -> dict:
    half = "1/2"
    return {"schema": "hyperdisc-instance/1", "kind": "kls", "backend": "rational",
            "payload": {"h": {"kind": "determinant", "mprime": 1},
                        "vectors": [[-1], [1]],
                        "variables": [{"support": [1, -1], "probs": [half, half]}] * 2}}


def _identity_first_vector(capsys) -> dict:
    blob = _kls_det_file(capsys)
    blob["payload"]["vectors"][0] = [1, 0, 1]  # vec(I): rank 2
    return blob


@pytest.mark.parametrize("make, message", [
    (_negated_first_vector, "vector 0 lies outside the closed cone"),
    (_scalar_signs, "vector 0 lies outside the closed cone"),
    (_identity_first_vector, "vector 0 has hyperbolic rank > 1"),
], ids=["negated", "scalar-signs", "rank-two"])
def test_kls_vector_off_the_cone_or_of_rank_two_exits_1_at_load(capsys, tmp_path, make, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make(capsys)))
    for argv in (("solve", str(bad), "--method", "blocked"),
                 ("solve", str(bad), "--method", "brute"),
                 ("verify", str(bad))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_float_backend_kls_file_gives_the_same_outputs(capsys, tmp_path):
    # The copy holds the same rationals, as JSON numbers under "backend":
    # "float"; a kls file is read exactly whatever its backend.
    blob = _kls_det_file(capsys)
    copy = json.loads(json.dumps(blob))
    copy["backend"] = "float"
    for key in ("vectors", "generators"):
        copy["payload"][key] = [[float(Fraction(c)) for c in v] for v in blob["payload"][key]]
    assert all(Fraction(x) == Fraction(c) for v, w in zip(copy["payload"]["vectors"],
                                                          blob["payload"]["vectors"])
               for x, c in zip(v, w))
    outputs = []
    for name, obj in (("rational", blob), ("float", copy)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        outputs.append([run(capsys, *argv) for argv in (
            ("solve", str(path), "--method", "blocked"),
            ("solve", str(path), "--method", "brute"),
            ("verify", str(path)))])
    assert outputs[0] == outputs[1]
    assert [code for code, _ in outputs[0]] == [0, 0, 0]
    checks = json.loads(outputs[1][2][1])["checks"]
    assert [c["name"] for c in checks] == ["kls_operator_identity", "kls_bound_chain"]


def _one_wrong_generator(capsys) -> dict:
    blob = _kls_det_file(capsys)
    blob["payload"]["generators"] = [["7/1", "7/1"]]
    return blob


def _repeated_support_value(capsys) -> dict:
    blob = _kls_det_file(capsys)
    blob["payload"]["variables"][0] = {"support": ["1/1", "1/1"], "probs": ["1/2", "1/2"]}
    return blob


@pytest.mark.parametrize("make, message", [
    (_one_wrong_generator, "generators must be one u_i per vector"),
    (_repeated_support_value, "support values must be distinct"),
], ids=["wrong-generators", "repeated-support-value"])
def test_inconsistent_kls_file_exits_1_at_load(capsys, tmp_path, make, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make(capsys)))
    for argv in (("solve", str(bad), "--method", "blocked"),
                 ("solve", str(bad), "--method", "brute"),
                 ("verify", str(bad))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def _exits_1_with_one_error_line(capsys, path, message):
    for argv in (("solve", str(path), "--method", "blocked"),
                 ("solve", str(path), "--method", "brute"),
                 ("verify", str(path))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err) < 200


def test_huge_declared_lorentz_size_exits_1_before_allocating(capsys, tmp_path):
    # 2**63 only: where e is built before the check, a mid-sized m really allocates.
    blob = json.loads(run(capsys, "gen", "--kind", "kls-lorentz", "--n", "3", "--m", "3")[1])
    blob["payload"]["h"]["m"] = 2 ** 63
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    _exits_1_with_one_error_line(capsys, bad, f"vector has length 3, expected {2 ** 63}")


@pytest.mark.parametrize("kind", [("kls-det", "--mprime", "2"), ("kls-lorentz", "--m", "3")],
                         ids=["det", "lorentz"])
def test_support_value_past_binary64_squared_exits_1(capsys, tmp_path, kind):
    # 1e300 is finite and loads as the rational it is, but the root
    # polynomial's coefficients and the power sums grow as its square.
    blob = json.loads(run(capsys, "gen", "--kind", *kind, "--n", "4")[1])
    blob["payload"]["variables"][0]["support"][0] = 1e300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    _exits_1_with_one_error_line(capsys, bad, "lies past the binary64 range")


def _sr_float_file(tmp_path, h: dict, vectors: list):
    """A float sr file over three elements: h, the vectors and the K3
    spanning-tree support, {0, 1}, {0, 2} and {1, 2} at 1/3 each."""
    support = [{"set": s, "prob": "1/3"} for s in ([0, 1], [0, 2], [1, 2])]
    blob = {"schema": "hyperdisc-instance/1", "kind": "sr", "backend": "float",
            "payload": {"h": h, "distribution": {"n": 3, "d_mu": 2, "support": support},
                        "vectors": vectors}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(blob))
    return path


def _blocked_and_verify_exit_1(capsys, path, message):
    for argv in (("solve", str(path), "--method", "blocked"), ("verify", str(path))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), argv
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1


def test_float_custom_h_whose_values_overflow_fails_the_spot_check(capsys, tmp_path):
    # e_2 with every coefficient 5e307 is homogeneous term by term, but its
    # values at the spot check's points overflow binary64 (nan against -inf):
    # the one load-time rejection of such a float custom h.
    terms = [[e, 5e307] for e in ([1, 1, 0], [1, 0, 1], [0, 1, 1])]
    h = {"kind": "custom", "nvars": 3, "e": [1, 1, 1], "poly": {"nvars": 3, "terms": terms}}
    path = _sr_float_file(tmp_path, h, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _blocked_and_verify_exit_1(capsys, path, "failed the homogeneity spot check")


def test_leaf_coefficient_past_binary64_exits_1(capsys, tmp_path):
    # The vectors sum to e = vec(I) exactly, but the leaf {0, 2} has the
    # eigenvalue product 1e320, an inf coefficient that real_roots rejects
    # before np.roots sees it, and verify's eps2 = 2e160 puts the barrier
    # point's alpha past binary64, which construction_point rejects before
    # building it.  Either way the one error line is all of stderr: numpy
    # warns of nothing (pyproject turns any warning into an error).
    big = [[1e160, 0, 1e160], [-1e160, 0, -1e160], [1, 0, 1]]
    path = _sr_float_file(tmp_path, {"kind": "determinant", "mprime": 2}, big)
    _blocked_and_verify_exit_1(capsys, path, "not a finite binary64 value")


@pytest.mark.parametrize("entry, value, message", [
    ((5, 4), -1, "the vectors do not sum to e"),
    ((0, 0), "1" + "0" * 400 + "/1", "OverflowError"),
], ids=["not-isotropic", "past-binary64"])
def test_sr_file_with_a_bad_vector_entry_exits_1_at_load(capsys, tmp_path, entry, value,
                                                          message):
    blob = json.loads(run(capsys, "gen", "--kind", "sr-ust", "--graph", "k4")[1])
    row, col = entry
    assert abs(blob["payload"]["vectors"][row][col]) < 1
    blob["payload"]["vectors"][row][col] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    _exits_1_with_one_error_line(capsys, bad, message)


@pytest.mark.parametrize("entry", [1.7, True], ids=["float", "bool"])
def test_non_int_set_entry_exits_1_at_load(capsys, tmp_path, entry):
    _, out = run(capsys, "gen", "--kind", "sr-ust", "--graph", "c4")
    blob = json.loads(out)
    blob["payload"]["distribution"]["support"][0]["set"][1] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    for argv in (("solve", str(bad)), ("solve", str(bad), "--method", "brute"),
                 ("verify", str(bad))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be ints" in captured.err


def _set_entry(value):
    def fault(support):
        support[5]["set"][1] = value
    return fault


def _drop_entry(support):
    del support[5]["set"][-1]


def _repeat_entry(support):
    support[5]["set"][1] = support[5]["set"][0]


def _zero_prob(support):
    support[5]["prob"], support[6]["prob"] = "0", "1/8"


def _double_prob(support):
    support[5]["prob"] = "1/8"


def _no_entries(support):
    support.clear()


# One fault in the k4 file's support (16 trees of 3 of the 6 edges, each
# "1/16"), and the message the parse of the distribution raises.
SUPPORT_FAULTS = [
    (_set_entry(True), "support elements must be ints"),
    (_set_entry(1.0), "support elements must be ints"),
    (_drop_entry, "distribution is not homogeneous"),
    (_set_entry(6), "support element out of range"),
    (_set_entry(2**70), "support element out of range"),
    (_repeat_entry, "support sets cannot repeat elements"),
    (_zero_prob, "probabilities must be positive"),
    (_double_prob, "probabilities sum to 17/16, not 1"),
    (_no_entries, "empty support"),
]


@pytest.mark.parametrize("fault, message", SUPPORT_FAULTS,
                         ids=["bool", "float", "ragged", "out-of-range", "beyond-int64", "repeat",
                              "non-positive", "sum", "empty"])
def test_single_support_fault_exits_1_with_its_message(capsys, tmp_path, fault, message):
    blob = json.loads(run(capsys, "gen", "--kind", "sr-ust", "--graph", "k4")[1])
    support = blob["payload"]["distribution"]["support"]
    assert len(support) == 16 and {entry["prob"] for entry in support} == {"1/16"}
    fault(support)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    _exits_1_with_one_error_line(capsys, bad, "")
    for argv in (("solve", str(bad)), ("verify", str(bad))):
        assert main(list(argv)) == 1
        assert capsys.readouterr().err == f"error: malformed instance file: ValueError: {message}\n"


def _base_file(capsys, base: str) -> dict:
    if base in ("elem_sym", "custom"):
        return _e2_file(base)
    argv = {"kls-det": ("--kind", "kls-det", "--n", "3", "--mprime", "2"),
            "kls-lorentz": ("--kind", "kls-lorentz", "--n", "3", "--m", "3"),
            "sr": ("--kind", "sr-ust", "--graph", "c4")}[base]
    return json.loads(run(capsys, "gen", *argv)[1])


# (file, path to the field, bad value, message): an unknown backend, an
# integer field that is not a JSON int, and a scalar that is a JSON boolean
# or a non-finite float.
BAD_FIELDS = [
    ("kls-det", ("backend",), "banana", "unknown backend 'banana'"),
    ("sr", ("backend",), "banana", "unknown backend 'banana'"),
    ("kls-det", ("payload", "h", "mprime"), 2.9, "expected an int, got 2.9"),
    ("kls-det", ("payload", "h", "mprime"), "2", "expected an int, got '2'"),
    ("kls-det", ("payload", "h", "mprime"), True, "expected an int, got True"),
    ("kls-lorentz", ("payload", "h", "m"), 3.0, "expected an int, got 3.0"),
    ("elem_sym", ("payload", "h", "n"), 3.5, "expected an int, got 3.5"),
    ("elem_sym", ("payload", "h", "k"), "2", "expected an int, got '2'"),
    ("custom", ("payload", "h", "poly", "nvars"), 3.0, "expected an int, got 3.0"),
    ("custom", ("payload", "h", "poly", "terms", 0, 0, 1), 1.0, "expected an int, got 1.0"),
    ("custom", ("payload", "h", "poly", "terms", 0, 0, 0), True, "expected an int, got True"),
    ("sr", ("payload", "distribution", "n"), 4.5, "expected an int, got 4.5"),
    ("kls-det", ("payload", "variables", 0, "support", 0), True, "the boolean True"),
    ("sr", ("payload", "vectors", 0, 0), False, "the boolean False"),
    ("sr", ("payload", "vectors", 0, 0), float("nan"), "must be finite, got nan"),
    ("sr", ("payload", "vectors", 0, 0), float("inf"), "must be finite, got inf"),
    ("kls-det", ("payload", "vectors", 0, 0), float("-inf"), "must be finite, got -inf"),
]


@pytest.mark.parametrize("base, path, value, message", BAD_FIELDS,
                         ids=[f"{b}:{p[-1]}={v!r}" for b, p, v, _ in BAD_FIELDS])
def test_bad_field_exits_1_at_load(capsys, tmp_path, base, path, value, message):
    blob = _base_file(capsys, base)
    obj = blob
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    for argv in (("solve", str(bad)), ("verify", str(bad))):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


# The sr-search deck's fixed graphs: named, the sparse ones that fail, and
# dense random graphs at graph seed 1.
SR_SEARCH_GRAPHS = ("c4", "k4", "k5", "diamond", "c5", "random:6:7:0", "random:6:7:1",
                    "random:7:9:0", "random:8:10:0", "random:9:16:0", "random:6:12:1",
                    "random:7:14:1", "random:8:16:1", "random:9:16:1")


@pytest.mark.parametrize("spec", SR_SEARCH_GRAPHS)
def test_sr_roundtrip_lossless(capsys, spec):
    _, out = run(capsys, "gen", "--kind", "sr-ust", "--graph", spec)
    blob = json.loads(out)
    inst, kind = instance_from_json(blob)
    assert kind == "sr"
    assert inst.mu == uniform_spanning_tree(_resolve_graph(spec))
    meta = {"seed": 0, "kind": "sr-ust", "graph": spec, "eps1": inst.eps1, "eps2": inst.eps2}
    again = instance_to_json(inst, generator=meta, graph=Graph.from_json(blob["payload"]["graph"]))
    assert dumps(again) == out


# The sparse graphs of the deck (hdbench's REPRODUCED_FAILURES), on which
# the float lane fails, and the one error line blocked solve prints on
# each: the root bound's Sturm count, or, on random:9:16:0, whose root
# node passes, the certified leaf norm's after the rounds.
REPRODUCED_FAILURE_ERRORS = {
    "c5": "exact Sturm count 2 < factor degree 4; polynomial is not real-rooted",
    "random:6:7:0": "exact Sturm count 3 < factor degree 5; polynomial is not real-rooted",
    "random:6:7:1": "exact Sturm count 3 < factor degree 5; polynomial is not real-rooted",
    "random:7:9:0": "exact Sturm count 4 < factor degree 6; polynomial is not real-rooted",
    "random:8:10:0": "exact Sturm count 5 < factor degree 7; polynomial is not real-rooted",
    "random:9:16:0": "h(te - x) is not real-rooted for <DeterminantInstance m=36 d=8>; the "
                     "instance is not hyperbolic in direction e on this input (exact Sturm "
                     "count 6 < factor degree 8; polynomial is not real-rooted)",
}


@pytest.mark.parametrize("spec", REPRODUCED_FAILURE_ERRORS)
def test_failing_sr_searches_print_one_error_line(capsys, tmp_path, spec):
    inst_file = tmp_path / "inst.json"
    assert main(["gen", "--kind", "sr-ust", "--graph", spec, "--out", str(inst_file)]) == 0
    code = main(["solve", str(inst_file), "--method", "blocked"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {REPRODUCED_FAILURE_ERRORS[spec]}\n"


def test_main_calls_in_sequence_share_no_state(capsys, tmp_path):
    # The parser is built once per process; flags, defaults and usage errors
    # of one call must not reach the next.
    inst_file = tmp_path / "inst.json"
    gen = ["gen", "--kind", "kls-det", "--n", "4", "--mprime", "3",
           "--variables", "rademacher", "--seed", "3"]
    _, generated = run(capsys, *gen)
    assert main([*gen, "--out", str(inst_file)]) == 0
    assert inst_file.read_text() == generated
    _, plain = run(capsys, "solve", str(inst_file))
    code, with_k = run(capsys, "solve", str(inst_file), "--k", "4", "--block", "1")
    assert code == 0 and with_k != plain  # degree 6: the computed k is 6
    assert main(["solve", str(inst_file), "--method", "nope"]) == 1
    assert "error:" in capsys.readouterr().err
    code, verified = run(capsys, "verify", str(inst_file))
    assert code == 0 and json.loads(verified)["passed"] is True
    _, other = run(capsys, "gen", "--kind", "kls-lorentz", "--n", "3", "--seed", "1")
    assert other != generated
    assert run(capsys, "solve", str(inst_file)) == (0, plain)
    assert run(capsys, *gen) == (0, generated)
    assert run(capsys, "solve", str(inst_file), "--k", "4", "--block", "1") == (0, with_k)


def test_verify_identities_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert all(c["passed"] for c in blob["checks"])


def test_verify_marginals_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "marginals")
    assert code == 0


def _diagonal_kls_det_file(tmp_path, scales) -> str:
    """A kls-det file on 4 x 4 matrices whose generators are a_i e_i, one
    per scale a_i, with Rademacher variables."""
    h = determinant(4)
    gens = [tuple(Fraction(a if j == i else 0) for j in range(4)) for i, a in enumerate(scales)]
    inst = KlsInstance.build(h, [h.vec_outer(u) for u in gens], [RandomVar.rademacher()] * 4,
                             generators=gens)
    path = tmp_path / "diagonal.json"
    path.write_text(dumps(instance_to_json(inst)))
    return str(path)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the variance mix's triple eigenvalue "
                   "is read exactly off its float coefficients, and splits off the real line")
def test_verify_accepts_a_variance_mix_with_a_repeated_eigenvalue(capsys, tmp_path):
    path = _diagonal_kls_det_file(tmp_path, [4, 4, 4, 5])
    code = main(["verify", path])
    assert "not real-rooted" not in capsys.readouterr().err
    assert code == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: spectrum keeps the companion route's "
                   "split double roots on exact input")
def test_solve_gives_double_eigenvalues_to_the_ulp(capsys, tmp_path):
    # The all-ones leaf has exact eigenvalues 25, 25, 16, 16, and the root
    # node's largest root is 25, so the bound is 1.5 * 25.
    code, out = run(capsys, "solve", _diagonal_kls_det_file(tmp_path, [4, 4, 5, 5]))
    result = json.loads(out)
    assert code == 0
    assert (result["certified"], result["bound"]) == (25.0, 37.5)


def test_verify_instance_file(capsys, tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--kind", "sr-ust", "--graph", "k4", "--out", str(inst_file)])
    code, out = run(capsys, "verify", str(inst_file))
    assert code == 0
    assert json.loads(out)["passed"] is True


def _e2_file(kind: str) -> dict:
    """e_2 in three variables, as elem_sym or as the custom polynomial
    z1 z2 + z1 z3 + z2 z3, with four vectors and Rademacher variables."""
    half = "1/2"
    h = {"elem_sym": {"kind": "elem_sym", "n": 3, "k": 2},
         "custom": {"kind": "custom", "nvars": 3, "e": [1, 1, 1],
                    "poly": {"nvars": 3, "terms": [[[1, 1, 0], 1], [[1, 0, 1], 1],
                                                   [[0, 1, 1], 1]]}}}[kind]
    return {"schema": "hyperdisc-instance/1", "kind": "kls", "backend": "rational",
            "payload": {"h": h,
                        "vectors": [[half, 0, 0], [0, half, 0], [0, 0, half], [half, 0, 0]],
                        "variables": [{"support": [1, -1], "probs": [half, half]}] * 4}}


def test_elem_sym_and_custom_kinds(capsys, tmp_path):
    # Only hand-written files reach these kinds: e_2 in three variables, once
    # as elem_sym and once as the custom polynomial z1 z2 + z1 z3 + z2 z3.
    outputs = {}
    for name in ("elem_sym", "custom"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_e2_file(name)))
        outputs[name] = []
        for argv in (("solve", str(path), "--method", "blocked"),
                     ("solve", str(path), "--method", "brute"),
                     ("verify", str(path))):
            code, out = run(capsys, *argv)
            assert code == 0, (name, argv)
            outputs[name].append(out)
    assert outputs["elem_sym"] == outputs["custom"]
    # verify compares the table's root with the operator form; tie that
    # root to the Fraction sum over every completion.
    for name in ("elem_sym", "custom"):
        inst, _ = instance_from_json(_e2_file(name))
        assert kls_node_poly(inst).coeffs == fraction_node_poly(inst).coeffs
    blocked = json.loads(outputs["elem_sym"][0])
    assert blocked["certified"] <= blocked["bound"]
    # The best leaf, w = (0, 1/2, -1/2), has norm 1/(2 sqrt 3) under e_2.
    assert blocked["certified"] == pytest.approx(1 / (2 * 3 ** 0.5))


def test_verify_without_arguments_errors(capsys):
    code, _ = run(capsys, "verify")
    assert code == 1


def test_bench_rows(capsys):
    code, out = run(capsys, "bench", "--kind", "kls-det", "--count", "3",
                    "--n", "3", "--mprime", "2", "--trials", "50")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["rows"]) == 3
    for row in blob["rows"]:
        assert row["blocked"] <= row["bound"] + 1e-9
        assert row["brute"] <= row["blocked"] + 1e-9


def test_bench_count_0_writes_no_rows(capsys):
    code, out = run(capsys, "bench", "--count", "0")
    assert code == 0 and json.loads(out)["rows"] == []


def test_bench_csv_no_baseline(capsys):
    code, out = run(capsys, "bench", "--kind", "kls-det", "--count", "1",
                    "--n", "2", "--trials", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,seed,n,scale_param,brute,blocked,bound")
    assert len(lines) == 2
    # Baseline columns stay empty when --trials 0.
    assert ",,," in lines[1] or lines[1].split(",")[7:10] == ["", "", ""]


def test_bench_deterministic_modulo_timings(capsys):
    _, a = run(capsys, "bench", "--kind", "kls-det", "--count", "2", "--n", "3",
               "--trials", "20", "--format", "csv")
    _, b = run(capsys, "bench", "--kind", "kls-det", "--count", "2", "--n", "3",
               "--trials", "20", "--format", "csv")

    def strip_timings(text):
        rows = [line.split(",")[:-2] for line in text.strip().splitlines()]
        return rows

    assert strip_timings(a) == strip_timings(b)
