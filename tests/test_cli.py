"""CLI surface: exit codes, DOT grammar, JSON documents, lattice cache."""

from __future__ import annotations

import json
import re

import pytest

from commgraph import cli
from commgraph.cli import (
    EXIT_OK,
    EXIT_ORDER_CAP,
    EXIT_PARSE,
    export_dot,
    load_lattice_cache,
)
from commgraph import (
    KIND_CONTAINMENT,
    CacheMismatch,
    build_graph,
    construct,
    enumerate_subgroups,
    parse_group_spec,
    sym,
)


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


def test_order_cap_env_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_CAP_ENV, "10")
    assert run_cli("group", '{"sym": 4}') == EXIT_ORDER_CAP
    assert run_cli("group", '{"sym": 4}', "--order-cap", "30") == EXIT_OK
    monkeypatch.setenv(cli.ORDER_CAP_ENV, "bogus")
    assert run_cli("group", '{"sym": 4}') == EXIT_OK
    capsys.readouterr()


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


def test_lattice_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "sym4.lattice.json"
    assert run_cli("subgroups", '{"sym": 4}', "--cache", str(cache)) == EXIT_OK
    first = cache.read_text(encoding="utf-8")
    doc = json.loads(first)
    assert doc["format_version"] == 1
    assert doc["order"] == 24
    assert [s["order"] for s in doc["subgroups"]] \
        == sorted(s["order"] for s in doc["subgroups"])
    for entry in doc["subgroups"]:
        assert entry["members"] == sorted(entry["members"])

    # reading the cache reproduces the same lattice and DOT output
    dot_a = tmp_path / "a.dot"
    dot_b = tmp_path / "b.dot"
    assert run_cli("graph", '{"sym": 4}', "-p", "3", "--kind", "cont",
                   "--dot", str(dot_a), "--cache", str(cache)) == EXIT_OK
    assert run_cli("graph", '{"sym": 4}', "-p", "3", "--kind", "cont",
                   "--dot", str(dot_b)) == EXIT_OK
    assert dot_a.read_bytes() == dot_b.read_bytes()
    capsys.readouterr()


def test_lattice_cache_mismatch_rejected(tmp_path, capsys):
    cache = tmp_path / "bad.json"
    assert run_cli("subgroups", '{"sym": 3}', "--cache", str(cache)) == EXIT_OK
    assert run_cli("graph", '{"sym": 4}', "-p", "2", "--cache",
                   str(cache)) == EXIT_PARSE
    doc = json.loads(cache.read_text(encoding="utf-8"))
    good = json.loads(json.dumps(doc))
    doc["subgroups"][1]["members"] = [0, 3]
    cache.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("graph", '{"sym": 3}', "-p", "2", "--cache",
                   str(cache)) == EXIT_PARSE
    capsys.readouterr()

    # malformed documents are a cache error (exit 2), never a traceback;
    # JSON booleans are not element ids or orders
    trivial = good["subgroups"][0]
    for subgroups in ([1, 2], 5,
                      [{**trivial, "members": [False]}, *good["subgroups"][1:]],
                      [{**trivial, "order": True}, *good["subgroups"][1:]]):
        cache.write_text(json.dumps({**good, "subgroups": subgroups}),
                         encoding="utf-8")
        with pytest.raises(CacheMismatch):
            load_lattice_cache(json.loads(cache.read_text(encoding="utf-8")),
                               sym(3), construct(sym(3)))
        assert run_cli("graph", '{"sym": 3}', "-p", "2", "--cache",
                       str(cache)) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("graph", '{"sym": 3}', "-p", "4"),
    ("verify", "lemmas", "--trials", "0"),
    ("subgroups", '{"sym": 3}', "--cache", None),  # None: a directory
], ids=["non-prime-p", "zero-trials", "directory-as-cache"])
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
    for argv in (("graph", '{"bs": {"cyclic": 2}}', "-p", "4"),
                 ("analyze", '{"bs": {"cyclic": 2}}', "-p", "4"),
                 ("verify", "all", "--trials", "0")):
        assert run_cli(*argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_failed_write_keeps_existing_cache(tmp_path, capsys):
    cache = tmp_path / "sym3.lattice.json"
    assert run_cli("subgroups", '{"sym": 3}', "--cache", str(cache)) == EXIT_OK
    capsys.readouterr()
    before = cache.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails part way
    with pytest.raises(UnicodeEncodeError):
        cli._write_text(str(cache), '{"subgroups": "\ud800"}')
    assert cache.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [cache.name]


def test_load_lattice_cache_validates_canonical_order():
    spec = parse_group_spec('{"cyclic": 6}')
    table = construct(spec)
    lat = enumerate_subgroups(table)
    doc = cli.lattice_cache_doc(spec, lat)
    good = load_lattice_cache(doc, spec, table)
    assert [s.members for s in good.subgroups] \
        == [s.members for s in lat.subgroups]
    doc["subgroups"].reverse()
    with pytest.raises(CacheMismatch):
        load_lattice_cache(doc, spec, table)


def test_verify_cli_pass_and_report(tmp_path, capsys):
    report_path = tmp_path / "sym4.report.json"
    assert run_cli("verify", "sym4", "--json", str(report_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "sym4: pass" in out
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["suite"] == "sym4"
    assert doc["runtime_ms"] is None
    assert all(r["pass"] for r in doc["records"])


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


def test_exports_byte_identical_across_runs(tmp_path, capsys):
    for name in ("x", "y"):
        assert run_cli("graph", '{"p2q": 5}', "-p", "5", "--kind", "comm",
                       "--dot", str(tmp_path / f"{name}.dot"),
                       "--json", str(tmp_path / f"{name}.json")) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "x.dot").read_bytes() == (tmp_path / "y.dot").read_bytes()
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()
