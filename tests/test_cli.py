import collections
import hashlib
import importlib
import json
from pathlib import Path

import pytest

import orientkit.cli
import orientkit.orientation
import orientkit.perms
from orientkit import CorpusSpec, enumerate_automorphisms, enumerate_graphs, format_graph
from orientkit.cli import cli_main
from orientkit.families import family_instances
from orientkit.orientation import ThetaHom, or_orbits_bruteforce


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("halfedges=2; edges=(0 1); vertices={0 1}\n")
    return str(path)


TRIANGLE = "halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE + "\n")
    return str(path)


def test_parse_normalizes(triangle_file, capsys):
    assert cli_main(["parse", triangle_file]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "halfedges=6; edges=(0 1)(2 3)(4 5); vertices={0 5}{1 2}{3 4}"


def test_parse_missing_file_exits_1(capsys):
    assert cli_main(["parse", "no-such-file.graph"]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_bad_syntax_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("halfedges=2; edges=(0 1; vertices={0 1}\n")
    assert cli_main(["parse", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_aut_lists_group(triangle_file, capsys):
    assert cli_main(["aut", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "|Aut| = 6" in out
    assert "[0,1,2,3,4,5]" in out
    assert "edge_cycles=3" in out


def test_theta_table(loop_file, capsys):
    assert cli_main(["theta", loop_file]) == 0
    out = capsys.readouterr().out
    assert "theta_k" in out
    assert "[1,0]" in out
    assert "yes" in out


def test_theta_json_and_arrangements(loop_file, capsys):
    assert cli_main(["theta", loop_file, "--format", "json",
                     "--arrangements", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    rows = {tuple(r["perm"]): r for r in payload["rows"]}
    assert rows[(1, 0)]["theta_k"] == -1
    assert rows[(1, 0)]["theta_s"] == -1
    assert rows[(1, 0)]["agree"] is True
    assert "arrangement_invariance=ok" in out


def test_orient_loop_non_orientable(loop_file, capsys):
    assert cli_main(["orient", loop_file, "--theta", "s"]) == 0
    out = capsys.readouterr().out
    assert "verdict=NON_ORIENTABLE" in out
    assert "witness=[1,0]" in out


def test_orient_bruteforce_triangle(triangle_file, capsys):
    assert cli_main(["orient", triangle_file, "--theta", "k", "--bruteforce"]) == 0
    out = capsys.readouterr().out
    assert "verdict=ORIENTABLE" in out
    assert "z2_free=true" in out


def test_orient_bruteforce_runs_oracle_once_per_graph(tmp_path, monkeypatch, capsys):
    # The oracle runs once per graph, and takes the automorphisms the
    # verdict listed: Aut(g) is listed once per graph, not twice.
    path = tmp_path / "two.graph"
    path.write_text(
        "halfedges=2; edges=(0 1); vertices={0 1}\n"
        "halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}\n"
    )
    calls = []
    listed = collections.Counter()
    oracle = orientkit.orientation.or_orbits_bruteforce

    def counting(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    def listing(g, max_half_edges=None):
        listed[g] += 1
        return enumerate_automorphisms(g, max_half_edges)

    monkeypatch.setattr(orientkit.cli, "or_orbits_bruteforce", counting)
    monkeypatch.setattr(orientkit.orientation, "or_orbits_bruteforce", counting)
    monkeypatch.setattr(orientkit.orientation, "enumerate_automorphisms", listing)
    assert cli_main(["orient", str(path), "--bruteforce"]) == 0
    assert len(calls) == 2
    assert sorted(listed.values()) == [1, 1]
    assert capsys.readouterr().out.count("z2_free=") == 2


# Seven disjoint edges: 14 half-edges, within the half-edge cap, but 14
# vertices, above the orbit oracle's 8; Aut(g) has 645,120 elements.
APART = ("halfedges=14; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13); "
         "vertices=" + "".join(f"{{{h}}}" for h in range(14)))


@pytest.mark.parametrize("lines", [[APART], [TRIANGLE, APART]], ids=["alone", "second"])
def test_orient_bruteforce_refuses_a_large_graph_before_any_verdict(
        tmp_path, monkeypatch, capsys, lines):
    path = tmp_path / "apart.graph"
    path.write_text("".join(line + "\n" for line in lines))
    calls = []
    real = orientkit.cli.orientability

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orientkit.cli, "orientability", counting)
    assert cli_main(["orient", str(path), "--bruteforce"]) == 1
    out, err = capsys.readouterr()
    assert (out, calls) == ("", [])
    assert err == "error: brute-force orbit search limited to 8 vertices, got 14\n"


@pytest.mark.parametrize("flag, name", [("k", "theta_k"), ("s", "theta_s"),
                                        ("parity", "theta_parity")])
def test_orient_bruteforce_evaluates_theta_once_per_automorphism(
        tmp_path, monkeypatch, capsys, flag, name):
    # The oracle reads the values the verdict computed, and prints what it
    # prints when it evaluates theta itself.
    graphs = list(enumerate_graphs(CorpusSpec(3, connected_only=False)))
    path = tmp_path / "corpus.graph"
    path.write_text("".join(format_graph(g) + "\n" for g in graphs))
    expected = []
    for g in graphs:
        count, z2_free, _ = or_orbits_bruteforce(g, ThetaHom(flag))
        expected.append(f"orbits={count} z2_free={'true' if z2_free else 'false'}")
    calls = collections.Counter()
    real = getattr(orientkit.orientation, name)

    def counting(g, a):
        calls[g] += 1
        return real(g, a)

    monkeypatch.setattr(orientkit.orientation, name, counting)
    assert cli_main(["orient", str(path), "--theta", flag, "--bruteforce"]) == 0
    assert dict(calls) == {g: len(enumerate_automorphisms(g)) for g in graphs}
    assert capsys.readouterr().out.splitlines()[1::2] == expected


def test_contract_edge(triangle_file, capsys):
    assert cli_main(["contract", triangle_file, "--edge", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "halfedges=4; edges=(0 1)(2 3); vertices={0 3}{1 2}\n"


def test_contract_orbit(triangle_file, capsys):
    assert cli_main(["contract", triangle_file, "--edge", "0",
                     "--phi", "[2,3,4,5,0,1]"]) == 0
    out = capsys.readouterr().out
    assert "halfedges=0; edges=; vertices=" in out
    assert "induced: []" in out


def test_contract_bad_edge_exits_1(loop_file, capsys):
    assert cli_main(["contract", loop_file, "--edge", "5"]) == 1


@pytest.mark.parametrize("edge", ["-1", "3"])
def test_contract_edge_out_of_range_exits_1(triangle_file, capsys, edge):
    assert cli_main(["contract", triangle_file, "--edge", edge]) == 1
    assert f"error: edge id {edge} out of range" in capsys.readouterr().err


def test_contract_malformed_phi_exits_1(triangle_file, capsys):
    assert cli_main(["contract", triangle_file, "--edge", "0", "--phi", "[1,x]"]) == 1
    assert "usage error: argument --phi" in capsys.readouterr().err


def test_families_output(capsys):
    assert cli_main(["families", "--max-n", "1", "--family", "I"]) == 0
    out = capsys.readouterr().out
    assert "family=I n=0 c=0 m=0" in out
    assert "checks: ok" in out
    assert "contraction identity" in out


def test_families_output_is_pinned(capsys):
    assert cli_main(["families", "--max-n", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
    assert digest == "d54acaa328c34f9da192045c6b47bd27cf72d803ed0c1d88327d7a97ad36c70e"


def test_families_computes_each_power_of_psi_once(monkeypatch, capsys):
    calls = []
    power = orientkit.perms.power
    monkeypatch.setattr(orientkit.perms, "power", lambda p, k: calls.append(k) or power(p, k))
    assert cli_main(["families", "--max-n", "2"]) == 0
    assert len(calls) == sum(2**inst.params.n for inst in family_instances(2))


def test_families_above_the_n_bound_exits_1(capsys):
    assert cli_main(["families", "--max-n", "999999999999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: family instances are limited to n <= 12, got n=999999999999999999\n")


def test_verify_clean_corpus(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert cli_main(["verify", "--max-edges", "2", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["totals"] == {"graphs": 6, "automorphisms": 20, "violations": 0}
    assert "violations=0" in capsys.readouterr().err


def test_verify_unwritable_out_exits_1(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.json"
    assert cli_main(["verify", "--max-edges", "1", "--out", str(out_path)]) == 1
    assert f"error: cannot write report to {out_path}" in capsys.readouterr().err


def test_verify_csv_to_stdout(capsys):
    assert cli_main(["verify", "--max-edges", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("canon,v,e,b1,aut,orientable_k,orientable_s,agree")


def test_verify_no_loops_flag(capsys):
    assert cli_main(["verify", "--max-edges", "1", "--no-allow-loops"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["totals"]["graphs"] == 1


def test_verify_negative_max_edges_exits_1(capsys):
    assert cli_main(["verify", "--max-edges", "-1"]) == 1
    assert "usage error: argument --max-edges: expected an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [19, 5000])
@pytest.mark.parametrize("argv", [
    ["verify", "--max-edges"],
    ["families", "--max-n"],
    ["theta", "{loop}", "--arrangements"],
], ids=["max-edges", "max-n", "arrangements"])
def test_counts_take_at_most_18_digits(loop_file, capsys, argv, digits):
    # Past 4300 digits int() itself refuses the text; the scanner's rule stops at 18.
    assert cli_main([arg.format(loop=loop_file) for arg in argv] + ["9" * digits]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument {argv[-1]}: expected an integer >= 0" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-edges", "{big}"],
    ["theta", "{triangle}", "--seed", "{big}"],
    ["contract", "{triangle}", "--edge", "{big}"],
    ["contract", "{triangle}", "--edge", "0", "--phi", "[{big}]"],
    ["contract", "{triangle}", "--edge", "0", "--phi", "x{big}"],
    ["contract", "{triangle}", "--edge", "0", "--phi", "[{zeros}]"],
], ids=["max-edges", "seed", "edge", "phi-entry", "phi-unbracketed", "phi-not-a-perm"])
def test_usage_errors_cut_the_rejected_argument_short(triangle_file, capsys, argv):
    big = "9" * 5000
    argv = [arg.format(big=big, zeros=",".join("0" * 2500), triangle=triangle_file)
            for arg in argv]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument ")
    assert len(err) < 200 and err.endswith("characters)\n")


def test_non_ascii_graph_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes(b"halfedges=2; edges=(0 1); vertices={0 1}\xff\n")
    assert cli_main(["parse", str(path)]) == 1
    assert "is not ASCII text" in capsys.readouterr().err


def test_bad_cap_setting_exits_1(loop_file, monkeypatch, capsys):
    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", "abc")
    assert cli_main(["aut", loop_file]) == 1
    assert "error: ORIENTKIT_MAX_HALFEDGES must be an integer" in capsys.readouterr().err


def test_negative_cap_setting_exits_1(loop_file, monkeypatch, capsys):
    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", "-5")
    assert cli_main(["aut", loop_file]) == 1
    err = capsys.readouterr().err
    assert "error: ORIENTKIT_MAX_HALFEDGES must be an integer >= 0, got '-5'" in err
    assert "above the cap" not in err


@pytest.mark.parametrize("setting", ["\u0661\u0664", "1_4"])
def test_non_ascii_cap_setting_exits_1(loop_file, monkeypatch, capsys, setting):
    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", setting)
    assert cli_main(["aut", loop_file]) == 1
    assert f"error: ORIENTKIT_MAX_HALFEDGES must be an integer >= 0, got {setting!r}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv, option", [
    (["contract", "{triangle}", "--edge", "0", "--phi", "[\u0662,3,4,5,0,1]"], "--phi"),
    (["contract", "{triangle}", "--edge", "\u0660"], "--edge"),
    (["theta", "{triangle}", "--arrangements", "1", "--seed", "\u0661_0"], "--seed"),
], ids=["phi", "edge", "seed"])
def test_integer_arguments_take_ascii_digits_only(triangle_file, capsys, argv, option):
    # int() reads each of these; the graph grammar accepts only ASCII digits.
    assert cli_main([arg.format(triangle=triangle_file) for arg in argv]) == 1
    assert f"usage error: argument {option}" in capsys.readouterr().err


def test_internal_errors_are_not_user_errors(loop_file, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("internal bug")

    monkeypatch.setattr(orientkit.cli, "orientability", broken)
    with pytest.raises(IndexError, match="internal bug"):
        cli_main(["orient", loop_file])


def test_usage_errors_exit_1(capsys):
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["orient"]) == 1
    assert cli_main([]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_multiple_graphs_per_file(tmp_path, capsys):
    path = tmp_path / "two.graph"
    path.write_text(
        "halfedges=2; edges=(0 1); vertices={0 1}\n"
        "halfedges=2; edges=(0 1); vertices={0}{1}\n"
    )
    assert cli_main(["parse", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2


def test_console_script_targets_are_callable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))


# The graph files of the console-script smoke test in .github/workflows/tests.yml.
CI_GRAPHS = {
    "loop": ["halfedges=2; edges=(0 1); vertices={0 1}"],
    "two_loops": ["halfedges=4; edges=(0 1)(2 3); vertices={0 1 2 3}"],
    "small": ["halfedges=2; edges=(0 1); vertices={0 1}",
              "halfedges=4; edges=(0 1)(2 3); vertices={0 1 2 3}",
              "halfedges=4; edges=(0 1)(2 3); vertices={0 2}{1 3}",
              "halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}"],
    "seven": ["halfedges=14; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13); "
              "vertices={0 2}{1 4}{5 6}{7 8}{9 10}{11 12}{3 13}",
              "halfedges=14; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13); "
              "vertices={0}{1 2 4 6}{3}{5 8 9}{7 10}{11 12}{13}"],
    "rank": ["halfedges=12; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11); "
             "vertices={0 2 4}{1 6 8}{3 7 10}{5 9 11}",
             "halfedges=6; edges=(0 1)(2 3)(4 5); vertices={0 2 4}{1 3 5}",
             "halfedges=8; edges=(0 1)(2 3)(4 5)(6 7); vertices={0 1 2 4}{3 5 6 7}",
             "halfedges=12; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11); "
             "vertices={0 2 9 11}{1 3 4 6}{5 7 8 10}"],
    "triangle": ["halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}"],
    "eight": ["halfedges=14; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13); "
              "vertices={0}{1 2}{3 4}{5 6}{7 8}{9 10}{11 12}{13}",
              "halfedges=14; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13); "
              "vertices={0 2 4 6 8 10 12}{1}{3}{5}{7}{9}{11}{13}"],
    "apart": ["halfedges=8; edges=(0 1)(2 3)(4 5)(6 7); vertices={0 2}{1 3}{4 6}{5 7}",
              "halfedges=4; edges=(0 1)(2 3); vertices={0 1}{2 3}"],
}

# Each of the smoke test's sub-second pins: the sha256 of stdout, text that
# stdout must hold, or the whole of stdout. Its contract pin is test_contract_edge.
CI_PINS = [
    ("orient loop --theta s --bruteforce", "has", "z2_free=false"),
    ("orient two_loops --theta k", "is",
     "theta=KONTSEVICH verdict=NON_ORIENTABLE witness=[0,1,3,2]\n"),
    ("orient small --theta k --bruteforce", "sha256",
     "c8b06e3e737c3fe6314cdb07a5b934f2e698ba8395ce3a977a17d74a187e7466"),
    ("orient small --theta s --bruteforce", "sha256",
     "c885a68890dce1d788ed5ff50cccac54c0ff2b9334be373666847756277be085"),
    ("orient small --theta parity --bruteforce", "sha256",
     "591c410e03015800cf51d6ecbfec8671b2eb955b7e52e9f044c0b83f4200ebb4"),
    ("orient seven --theta k --bruteforce", "sha256",
     "073670810ba989a3ff2f672020360fcc825194277728307a0bc5a2c41c78a4ad"),
    ("orient seven --theta s --bruteforce", "sha256",
     "67012b3e76bf597f23b79438ba3ac5a7001edd3d7d4858c6a3cfd3fc582971fa"),
    ("orient eight --theta k --bruteforce", "sha256",
     "e3f50c9e8be2a4ecb0dc6d4d3d604fa87ba3fdabcfb904fd2cc0f85197f92fb8"),
    ("orient eight --theta s --bruteforce", "sha256",
     "5c1dc07c6177f7f1134f588f00c68f61956d2f551922fffe47214072ab2de911"),
    ("orient eight --theta parity --bruteforce", "sha256",
     "31465a5735e0a834bb92f01a27421dcea5c1f7fe2a1f20161cd55dd6528cdf46"),
    ("theta small --format json --arrangements 20 --seed 7", "sha256",
     "61ed5d7e88db089210a4f5cfe8297150f6ece573d7150f6687e5ab19e7087766"),
    ("theta rank --format json --arrangements 20 --seed 7", "sha256",
     "f373f6e2394c0aec933ead7f21ca703b9840c78dec39b927b307392d7ebabf20"),
    ("aut small", "sha256", "1e6e6b563b6a74de1ceef7472bd6edd8ad3e9defcc8988f0191614547c9bfc87"),
    ("aut triangle", "sha256",
     "1f8ae94b9d827c3b1c894fede9eda7aabf321ec5992d947bf135a7babeb71af2"),
    ("aut rank", "sha256", "e0e038cddb224a0cc60a5bfb92987b561a72f7b376001223a7da1a67c64aec3a"),
    ("aut apart", "sha256", "7c5c0304f2f033eb555d0ef1764a85e545e03e8f57f3724140654fe4c41da3a4"),
]


@pytest.mark.parametrize("command, kind, expected", CI_PINS, ids=[pin[0] for pin in CI_PINS])
def test_ci_console_pins(tmp_path, capsys, command, kind, expected):
    subcommand, name, *rest = command.split()
    path = tmp_path / f"{name}.graph"
    path.write_text("".join(line + "\n" for line in CI_GRAPHS[name]))
    assert cli_main([subcommand, str(path), *rest]) == 0
    out = capsys.readouterr().out
    if kind == "sha256":
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == expected
    elif kind == "is":
        assert out == expected
    else:
        assert expected in out
