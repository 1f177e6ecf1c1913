"""CLI surface: exit codes, DOT grammar, JSON documents."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commgraph import cli, lattice
from commgraph.cli import (
    EXIT_LATTICE_CAP,
    EXIT_OK,
    EXIT_ORDER_CAP,
    EXIT_PARSE,
    export_dot,
)
from commgraph import (
    KIND_CONTAINMENT,
    build_graph,
    construct,
    enumerate_subgroups,
    parse_group_spec,
)


# The recorded `verify all --seed S` commands, with exit code and report
# digest each.
RECORDED_VERIFY_ALL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
    .read_text(encoding="utf-8"))["verify_all"]


def run_cli(*argv):
    return cli.main(list(argv))


def parse_dot(text):
    """Minimal DOT reader for the exact exported grammar."""
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == "graph G {"
    assert lines[-1] == "}"
    vertex_re = re.compile(r'^"S(\d+)" \[label="\|H\|=(\d+): (.*)"\];$')
    edge_re = re.compile(r'^"S(\d+)" -- "S(\d+)";$')
    vertices = {}
    edges = []
    for line in lines[1:-1]:
        m = vertex_re.match(line)
        if m:
            vertices[int(m.group(1))] = (int(m.group(2)), m.group(3))
            continue
        m = edge_re.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        edges.append((int(m.group(1)), int(m.group(2))))
    return vertices, edges


def test_group_command(capsys):
    assert run_cli("group", '{"sym": 4}') == EXIT_OK
    out = capsys.readouterr().out
    assert "order 24" in out
    assert "derived series orders: 24 12 4 1" in out
    assert "metabelian=False" in out

    assert run_cli("group", '{"cyclic": 6}', "--json") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 6 and doc["is_abelian"] is True

    assert run_cli("group", '{"p2q": 5}') == EXIT_OK
    out = capsys.readouterr().out
    assert "order 80" in out and "metabelian=True" in out


def test_group_parse_and_cap_exit_codes(capsys):
    assert run_cli("group", '{"sym":') == EXIT_PARSE
    assert run_cli("group", '{"unknown": 1}') == EXIT_PARSE
    assert run_cli("group", '{"sym": 4}', "--order-cap", "10") == EXIT_ORDER_CAP
    capsys.readouterr()


_ABELIAN_15000 = '{"abelian": [' + ", ".join(["2"] * 15000) + ']}'


@pytest.mark.parametrize("spec", [
    '{"sym": 1600}', _ABELIAN_15000, '{"bs": {"sym": 400}}',
], ids=["sym1600", "abelian-15000-factors", "bs-sym400"])
def test_huge_orders_exit_order_cap(spec, capsys):
    """The cap is compared without writing out an order of thousands of
    digits, which Python refuses to convert to a string."""
    assert run_cli("group", spec) == EXIT_ORDER_CAP
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" cap 5000\n")
    assert len(err) < 200


def test_order_cap_error_cuts_a_long_spec_name(capsys):
    """A spec name too long to read is cut, with a mark; a short one is
    given whole."""
    assert run_cli("group", _ABELIAN_15000) == EXIT_ORDER_CAP
    err = capsys.readouterr().err
    assert err.startswith("error: abelian(2x2x") and err.count("\n") == 1
    assert err.endswith("2x… has order above the cap 5000\n")
    assert len(err) < 200
    assert run_cli("group", '{"sym": 1600}') == EXIT_ORDER_CAP
    assert capsys.readouterr().err == \
        "error: sym(1600) has order above the cap 5000\n"


def test_order_cap_env_and_flag_priority(capsys):
    assert run_cli("group", '{"sym": 4}', "--order-cap", "30") == EXIT_OK
    capsys.readouterr()


def _nested_spec(levels: int) -> str:
    text = '{"cyclic": 2}'
    for _ in range(levels):
        text = '{"bs": ' + text + '}'
    return text


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# 600 levels decode but recursed past the interpreter's limit in the spec
# parser; 3000 levels exceed it in the JSON decoder itself
@pytest.mark.parametrize("levels", [600, 3000])
def test_deeply_nested_spec_exits_2(levels, capsys):
    assert run_cli("group", _nested_spec(levels)) == EXIT_PARSE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("levels", [600, 3000])
def test_deeply_nested_corpus_exits_2(levels, tmp_path, capsys):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text('{"members": [{"spec": ' + _nested_spec(levels)
                           + '}]}', encoding="utf-8")
    assert run_cli("verify", "totaldisc", "--corpus",
                   str(corpus_path)) == EXIT_PARSE
    _assert_one_error_line(capsys)


def test_subgroups_command_and_counts(capsys):
    assert run_cli("subgroups", '{"sym": 4}') == EXIT_OK
    out = capsys.readouterr().out
    assert "30 subgroups" in out


def test_graph_dot_export(tmp_path, capsys):
    dot_path = tmp_path / "sym4.dot"
    assert run_cli("graph", '{"sym": 4}', "-p", "3", "--kind", "cont",
                   "--dot", str(dot_path)) == EXIT_OK
    capsys.readouterr()
    vertices, edges = parse_dot(dot_path.read_text(encoding="utf-8"))
    assert len(vertices) == 30
    assert len(edges) == 20  # 4 + 12 + 1 + 3 containment edges at 3-powers
    assert all(i < j for i, j in edges)
    assert edges == sorted(edges)
    # vertex labels carry order and witness labels
    assert vertices[0][0] == 1 and vertices[0][1] == ""
    lat = enumerate_subgroups(construct(parse_group_spec('{"sym": 4}')))
    for idx, (order, _) in vertices.items():
        assert lat.subgroups[idx].order == order


def test_graph_json_export(tmp_path, capsys):
    json_path = tmp_path / "c6.json"
    assert run_cli("graph", '{"cyclic": 6}', "-p", "2", "--kind", "comm",
                   "--json", str(json_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "4 vertices, 2 edges" in out
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert list(doc) == ["spec", "p", "kind", "vertices", "edges",
                         "components", "connected_diameter"]
    assert doc["spec"] == {"cyclic": 6}
    assert len(doc["vertices"]) == 4
    assert len(doc["edges"]) == 2
    assert all(len(e) == 4 for e in doc["edges"])
    assert doc["connected_diameter"] == 1


def test_analyze_command(capsys):
    assert run_cli("analyze", '{"sym": 4}', "-p", "3", "--kind", "cont") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["connected_diameter"] == 4
    assert {c["class"] for c in doc["components"]} \
        == {"singleton", "complete", "star", "other"}
    for comp in doc["components"]:
        assert ("center" in comp) == (comp["class"] == "star")

    assert run_cli("analyze", '{"p2q": 5}', "-p", "2", "--kind", "comm") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(c["class"] == "complete" for c in doc["components"])

    assert run_cli("analyze", '{"sym": 4}', "-p", "5", "--kind", "comm") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(c["class"] == "singleton" for c in doc["components"])


def test_subgroups_json_document(tmp_path, capsys):
    path = tmp_path / "sym4.lattice.json"
    assert run_cli("subgroups", '{"sym": 4}', "--json", str(path)) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == cli.LATTICE_FORMAT_VERSION == 1
    assert doc["order"] == 24
    assert [s["order"] for s in doc["subgroups"]] \
        == sorted(s["order"] for s in doc["subgroups"])
    for entry in doc["subgroups"]:
        assert entry["members"] == sorted(entry["members"])


# sha256 of `subgroups SPEC --json PATH`, recorded when the document was
# still also written and read as a lattice cache file
SUBGROUPS_JSON_SHA256 = {
    '{"sym": 4}':
        "f24e022283fcda80431ff76652096354facc5442e42b2f1b14c7ea3ea0e24bb8",
    '{"p2q": 5}':
        "22be2a6ca15e9896bde6e2afeb2bb6e0c692021ab1724cb8b11a4ff1e1d96b46",
}


@pytest.mark.parametrize("spec", sorted(SUBGROUPS_JSON_SHA256))
def test_subgroups_json_pinned(spec, tmp_path, capsys):
    path = tmp_path / "lattice.json"
    assert run_cli("subgroups", spec, "--json", str(path)) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SUBGROUPS_JSON_SHA256[spec]


@pytest.mark.parametrize("argv", [
    ("subgroups", '{"sym": 3}'),
    ("graph", '{"sym": 3}', "-p", "2"),
    ("analyze", '{"sym": 3}', "-p", "2"),
], ids=["subgroups", "graph", "analyze"])
def test_cache_option_is_gone(argv, tmp_path, capsys):
    """Every lattice is enumerated; no file can stand in for one."""
    cache = tmp_path / "lattice.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--cache", str(cache))
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "unrecognized arguments: --cache" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("graph", '{"sym": 3}', "-p", "4"),
    ("verify", "lemmas", "--trials", "0"),
    ("graph", '{"sym": 3}', "-p", "2", "--json", None),  # None: a directory
    ("graph", '{"sym": 3}', "-p", "2305843009213693953"),  # 2**61 + 1
    # the first composite that Miller-Rabin over the primes to 41 passes
    ("analyze", '{"sym": 3}', "-p", "3317044064679887385961981"),
    ("group", '{"sym": 3}', "--order-cap", "0"),
    ("group", '{"sym": 3}', "--order-cap", "-5"),
], ids=["non-prime-p", "zero-trials", "directory-as-json", "large-composite-p",
        "undecidable-p", "zero-order-cap", "negative-order-cap"])
def test_bad_argument_values_exit_parse(argv, tmp_path, capsys):
    argv = [str(tmp_path) if arg is None else arg for arg in argv]
    assert run_cli(*argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_argument_values_rejected_before_any_work(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "construct", unreachable)
    monkeypatch.setattr(cli, "run_suite", unreachable)
    monkeypatch.setattr(cli, "run_all", unreachable)
    for argv in (("graph", '{"bs": {"cyclic": 2}}', "-p", "4"),
                 ("analyze", '{"bs": {"cyclic": 2}}', "-p", "4"),
                 ("verify", "all", "--trials", "0")):
        assert run_cli(*argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_lattice_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "enumerate_subgroups",
                        functools.partial(enumerate_subgroups, lattice_cap=29))
    assert run_cli("subgroups", '{"sym": 4}') == EXIT_LATTICE_CAP
    assert capsys.readouterr().err == "error: more than 29 subgroups\n"


def test_index_matrix_cap_exit_code(monkeypatch, capsys):
    """A lattice whose index matrix would pass the byte cap exits 4 with
    one error line, before the product is formed; sym(4) has 30
    subgroups, so its float32 matrix takes 3600 bytes."""
    monkeypatch.setattr(lattice, "INDEX_MATRIX_BYTE_CAP", 3599)
    assert run_cli("analyze", '{"sym": 4}', "-p", "2") == EXIT_LATTICE_CAP
    err = capsys.readouterr().err
    assert err == ("error: 30 subgroups: their index matrix would take 3600 "
                   "bytes, more than 3599\n")
    monkeypatch.setattr(lattice, "INDEX_MATRIX_BYTE_CAP", 3600)
    assert run_cli("analyze", '{"sym": 4}', "-p", "2") == EXIT_OK


def test_failed_write_keeps_existing_cache(tmp_path, capsys):
    """A write that fails part way leaves the file it would replace whole."""
    path = tmp_path / "sym3.lattice.json"
    assert run_cli("subgroups", '{"sym": 3}', "--json", str(path)) == EXIT_OK
    capsys.readouterr()
    before = path.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails part way
    with pytest.raises(UnicodeEncodeError):
        cli._write_text(str(path), ['{"subgroups": ', '"\ud800"}'])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_write_failing_after_pieces_reached_the_disk(tmp_path):
    """Pieces go to the temporary file as they come; when a later piece
    raises, the file to be replaced is left whole and the temporary file
    is removed."""
    path = tmp_path / "report.json"
    path.write_text("previous report\n", encoding="utf-8")

    def pieces():
        for _ in range(64):  # 1 MB, far more than a write buffer holds
            yield "x" * 2**14
        [tmp] = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert tmp.stat().st_size > 0
        raise RuntimeError("a piece failed")

    with pytest.raises(RuntimeError, match="a piece failed"):
        cli._write_text(str(path), pieces())
    assert path.read_text(encoding="utf-8") == "previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_failed_write_names_the_output_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert run_cli("subgroups", '{"sym": 3}', "--json", str(path)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(path)) in err and ".tmp" not in err


def test_large_prime_p_is_fast(capsys):
    """-p 2**61 - 1 is decided prime at once, not by ~1.5e9 trial
    divisions; no index in sym(3) is a power of it, so every subgroup is
    a singleton component."""
    start = time.perf_counter()
    assert run_cli("analyze", '{"sym": 3}', "-p", str(2**61 - 1)) == EXIT_OK
    assert time.perf_counter() - start < 2.0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["components"]) == 6
    assert all(c["class"] == "singleton" for c in doc["components"])


def test_verify_cli_pass_and_report(tmp_path, capsys):
    report_path = tmp_path / "sym4.report.json"
    assert run_cli("verify", "sym4", "--json", str(report_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "sym4: pass" in out
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["suite"] == "sym4"
    assert doc["runtime_ms"] is None
    assert all(r["pass"] for r in doc["records"])


@pytest.mark.parametrize("command", sorted(
    RECORDED_VERIFY_ALL, key=lambda command: int(command.split()[-1])))
def test_verify_all_report_matches_recorded_digest(command, tmp_path):
    """Each seed draws the lemma trials differently; every recorded seed's
    report must stay byte-identical."""
    report_path = tmp_path / "report.json"
    code = run_cli(*command.split(), "--json", str(report_path))
    recorded = RECORDED_VERIFY_ALL[command]
    assert code == recorded["exit"]
    assert (hashlib.sha256(report_path.read_bytes()).hexdigest()
            == recorded["report_sha256"])


def test_verify_cli_corpus_override(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(
        {"members": [{"name": "six", "spec": {"cyclic": 6}}]}),
        encoding="utf-8")
    assert run_cli("verify", "totaldisc", "--corpus", str(corpus_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "totaldisc: pass" in out

    corpus_path.write_text(json.dumps({"members": []}), encoding="utf-8")
    assert run_cli("verify", "totaldisc", "--corpus",
                   str(corpus_path)) == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"members": [{"name": 5, "spec": {"cyclic": 2}}]},
    # reports group records by name: the two members would merge
    {"members": [{"name": "x", "spec": {"sym": 4}},
                 {"name": "x", "spec": {"cyclic": 5}}]},
    {"members": [{"spec": {"cyclic": 4}, "enumerat": False, "nmae": "x"}]},
    {"members": [{"spec": {"cyclic": 4}}], "extra": 1},
    {"members": [{"name": "x"}]},
    {"members": [{"spec": {"cyclic": 6}, "enumerate": False}]},
], ids=["non-string-name", "duplicate-name", "unknown-member-key",
        "unknown-top-level-key", "no-spec", "enumerate-key"])
def test_verify_cli_rejects_bad_corpus_member(doc, tmp_path, capsys):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("verify", "lemmas", "--trials", "20", "--corpus",
                   str(corpus_path)) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("members", [
    [{"spec": {"cyclic": 1}}],
], ids=["trivial-group"])
def test_verify_lemmas_without_member_prime_pairs_skips(members, tmp_path,
                                                        capsys):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps({"members": members}), encoding="utf-8")
    assert run_cli("verify", "lemmas", "--trials", "50", "--corpus",
                   str(corpus_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert out == ("lemmas: no checks (0 checks, 0 failures, 50 skips, "
                   "1 warnings)\n  warning NO_CHECKS: {'code': 'NO_CHECKS', "
                   "'group': '(corpus)', 'p': None, 'detail': {}}\n")


@pytest.mark.parametrize("suite", ["bounds", "cd"])
def test_verify_suite_without_checks_says_so(suite, tmp_path, capsys):
    # the trivial group has no prime divisor, so no (group, p) is checked;
    # no check failed, so the exit code is still 0
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps({"members": [{"spec": {"cyclic": 1}}]}),
                           encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert run_cli("verify", suite, "--corpus", str(corpus_path),
                   "--json", str(report_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"{suite}: no checks (0 checks, 0 failures, "
                          "0 skips, 1 warnings)\n")
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["records"] == []
    assert [w["code"] for w in doc["warnings"]] == ["NO_CHECKS"]


def test_verify_lemmas_without_nontrivial_q_warns(tmp_path, capsys):
    # sym(5) has no nontrivial normal p-subgroup, so every sampled Q is
    # trivial: a warning, not a failed budget
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps({"members": [{"spec": {"sym": 5}}]}),
                           encoding="utf-8")
    assert run_cli("verify", "lemmas", "--trials", "300", "--seed", "9",
                   "--corpus", str(corpus_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("lemmas: pass (240 checks, 0 failures, 60 skips, "
                          "1 warnings)\n")
    assert "warning TRIVIAL_Q_ONLY" in out


def test_dot_trivial_graph():
    lat = enumerate_subgroups(construct(parse_group_spec('{"cyclic": 1}')))
    graph = build_graph(lat, 2, KIND_CONTAINMENT)
    text = export_dot(graph)
    assert text == 'graph G {\n"S0" [label="|H|=1: "];\n}\n'


def test_dot_cyclic6_line_counts():
    from commgraph import KIND_COMMENSURABILITY

    lat = enumerate_subgroups(construct(parse_group_spec('{"cyclic": 6}')))
    graph = build_graph(lat, 2, KIND_COMMENSURABILITY)
    vertices, edges = parse_dot(export_dot(graph))
    assert len(vertices) == 4
    assert len(edges) == 2


# Strings full of JSON's own syntax, escapes, control and non-ASCII text
_json_strings = st.text(
    st.sampled_from('"\\{}[],: a\n\t\x00\x1f\x7fé€😀') | st.characters(),
    max_size=8)
_json_strings = _json_strings | _json_strings.map(lambda s: s + "\\")
# json writes a key that is no string as a string: 1.5 as "1.5", True as
# "true", None as "null"
_json_keys = (_json_strings | st.integers() | st.floats() | st.booleans()
              | st.none())
_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_strings,
    lambda inner: (st.lists(inner, max_size=12)
                   | st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=60)


def _json_text(doc) -> str:
    return "".join(cli._json_pieces(doc))


@given(_json_docs, st.just(cli.JSON_BATCH_BYTES) | st.integers(1, 300),
       st.sampled_from([cli.JSON_SHORT_LIST, 0, 1, 3]))
def test_dump_json_matches_indented_dumps(doc, target, short):
    """The writer walks the document and re-indents the C encoder's
    compact text in batches; it must give exactly what
    ``json.dumps(doc, indent=2)`` gives, also when a byte target of a few
    bytes cuts every list into batches of one item or a few, each walked
    or re-indented at its own depth."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "JSON_BATCH_BYTES", target)
        mp.setattr(cli, "JSON_SHORT_LIST", short)
        assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], 0, -1.5, float("inf"), float("nan"), True, None, "", '"',
    "\\", 'a\\"b', "{[,]}", [[]], {"": {}}, [{}, [], [[{}]]],
])
def test_dump_json_edge_documents(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


# strings that end in a backslash or an escaped quote, so that a batch may
# begin or end at one
_EDGE_STRINGS = ["a\\", '"', '\\"', "\\\\", 'x\\"\\', "", "[", "}", ","]


def _batch_doc(n: int) -> dict:
    """Long lists at depth 1 to 3, lists of long lists, empty containers,
    and strings with escapes at every place in a batch."""
    items = [_EDGE_STRINGS[i % len(_EDGE_STRINGS)] * (i % 3) for i in range(n)]
    rows = [{"id": i, "tags": items[:i % 40], "empty": [[], {}][i % 2],
             "nested": [[j, items[j]] for j in range(i % 7)]}
            for i in range(n)]
    return {"top": {"mid": {"items": items, "rows": rows}},
            "lists": [items[:k] for k in range(0, n, 9)],
            "empty": [[], {}, [[]], {"": []}],
            "reports": [{"records": rows[:k]} for k in (1, n, 2)]}


@pytest.mark.parametrize("target", [1, 8, 64, 500, 4096])
@pytest.mark.parametrize("short", [0, 16])
def test_json_batches_split_every_long_list(monkeypatch, target, short):
    """Every list long or short, cut at byte targets from one item per
    batch to many, in a document and in a long list at depth 0; with
    short lists walked, as by default, no piece passes a few targets'
    worth of text."""
    monkeypatch.setattr(cli, "JSON_SHORT_LIST", short)
    doc = _batch_doc(120)
    for part in (doc, doc["top"]["mid"]["rows"]):
        want = json.dumps(part, indent=2) + "\n"
        # a target above the document's size: each long list is its
        # first item, then all the others in one batch
        monkeypatch.setattr(cli, "JSON_BATCH_BYTES", 1 << 30)
        whole = list(cli._json_pieces(part))
        monkeypatch.setattr(cli, "JSON_BATCH_BYTES", target)
        pieces = list(cli._json_pieces(part))
        assert "".join(whole) == "".join(pieces) == want
        assert len(pieces) > len(whole)
        if short:
            assert max(map(len, pieces)) < 8 * max(target, 128)


def test_json_writer_memory_does_not_grow_with_the_document(tmp_path):
    """A document of 2.4 MB of compact text is written with a peak of
    traced memory well below its size: the writer holds a batch of about
    JSON_BATCH_BYTES at a time, with the C encoder's and numpy's buffers
    over it, not the whole text."""
    rows = [{"id": i, "name": f"row {i}\\", "values": list(range(i % 60)),
             "empty": {}} for i in range(9000)]
    doc = {"suite": "all",
           "reports": [{"suite": s, "records": rows[:k]}
                       for s, k in (("a", 300), ("b", 9000), ("c", 20))],
           "rows": rows}
    assert len(json.dumps(doc, separators=(",", ":"))) > 2_000_000
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        cli._write_text(str(path), cli._json_pieces(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert path.read_text(encoding="ascii") == json.dumps(doc, indent=2) + "\n"


def test_exports_byte_identical_across_runs(tmp_path, capsys):
    for name in ("x", "y"):
        assert run_cli("graph", '{"p2q": 5}', "-p", "5", "--kind", "comm",
                       "--dot", str(tmp_path / f"{name}.dot"),
                       "--json", str(tmp_path / f"{name}.json")) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "x.dot").read_bytes() == (tmp_path / "y.dot").read_bytes()
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_silently(unbuffered):
    """A reader that closes standard output before the command writes, as
    in `commgraph group '{"sym": 4}' | true`, is no unusable path: the
    command exits 141 (128 + SIGPIPE) with nothing on stderr, whether the
    write fails inside the command or at the flush of buffered output."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "commgraph.cli", "group", '{"sym": 4}'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # long before the child has imported numpy
    with proc.stderr:
        stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert stderr == b""
