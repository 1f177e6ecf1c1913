"""Command-line front end.

Subcommands: ``group`` (order/structure summary), ``subgroups`` (lattice
enumeration, optionally written as JSON), ``graph`` (DOT/JSON export),
``analyze`` (component report), ``verify`` (claim suites).  Every lattice
comes from ``enumerate_subgroups``; none is read from a file.  Exit codes:
0 pass, 1 a verification check failed, 2 parse/argument/file error, 3 order
cap exceeded, 4 lattice cap exceeded, 141 standard output closed by its
reader (128 + SIGPIPE, as a shell reports a writer that signal killed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter

import numpy as np

from .constructions import (
    GroupSpec,
    construct,
    parse_group_spec,
    spec_from_doc,
    spec_name,
    spec_to_doc,
)
from .errors import InvalidSpec, LatticeCapExceeded, OrderCapExceeded
from .graphs import (
    KIND_COMMENSURABILITY,
    KIND_CONTAINMENT,
    CommGraph,
    build_graph,
    components_and_diameters,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    derived_series,
    is_prime,
    structure_flags,
)
from .lattice import Lattice, enumerate_subgroups
from .verify import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SUITE_NAMES,
    CorpusMember,
    run_all,
    run_suite,
)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_PARSE = 2
EXIT_ORDER_CAP = 3
EXIT_LATTICE_CAP = 4
EXIT_BROKEN_PIPE = 141

_KINDS = {"comm": KIND_COMMENSURABILITY, "cont": KIND_CONTAINMENT}

LATTICE_FORMAT_VERSION = 1

# JSON output: a list of more items than JSON_SHORT_LIST is written in
# batches of about JSON_BATCH_BYTES of text each
JSON_BATCH_BYTES = 1 << 16
JSON_SHORT_LIST = 16


# ---------------------------------------------------------------------------
# serialization


def export_dot(graph: CommGraph) -> str:
    """DOT text: one vertex line per lattice member labeled with its order
    and witness labels, then edges in ascending index order."""
    table = graph.lattice.parent
    lines = ["graph G {"]
    for idx, sub in enumerate(graph.lattice.subgroups):
        wits = ", ".join(table.labels[w] for w in sub.witnesses)
        lines.append(f'"S{idx}" [label="|H|={sub.order}: {wits}"];')
    for i, j in graph.edge_data:
        lines.append(f'"S{i}" -- "S{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _component_docs(graph: CommGraph) -> tuple[list[dict], int]:
    reports, connected = components_and_diameters(graph)
    docs = []
    for comp in reports:
        doc = {"vertices": comp.vertices, "diameter": comp.diameter,
               "class": comp.kind}
        if comp.center is not None:
            doc["center"] = comp.center
        docs.append(doc)
    return docs, connected


def graph_json_doc(spec: GroupSpec, graph: CommGraph) -> dict:
    comps, connected = _component_docs(graph)
    return {
        "spec": spec_to_doc(spec),
        "p": graph.p,
        "kind": graph.kind,
        "vertices": [{"id": i, "order": s.order, "witnesses": list(s.witnesses)}
                     for i, s in enumerate(graph.lattice.subgroups)],
        "edges": [[i, j, a, b]
                  for (i, j), (a, b) in graph.edge_data.items()],
        "components": comps,
        "connected_diameter": connected,
    }


def analyze_doc(spec: GroupSpec, graph: CommGraph) -> dict:
    comps, connected = _component_docs(graph)
    return {"spec": spec_to_doc(spec), "p": graph.p, "kind": graph.kind,
            "components": comps, "connected_diameter": connected}


def lattice_doc(spec: GroupSpec, lat: Lattice) -> dict:
    return {
        "spec": spec_to_doc(spec),
        "order": lat.parent.order,
        "element_labels": list(lat.parent.labels),
        "subgroups": [{"order": s.order,
                       "members": [x for x in s.elements()]}
                      for s in lat.subgroups],
        "format_version": LATTICE_FORMAT_VERSION,
    }


def _json_pieces(doc):
    """``json.dumps(doc, indent=2) + "\n"``, byte for byte, as strings of
    bounded size, so that no step holds the whole text.

    Given an indent, ``json`` encodes in pure Python, one small string per
    token, about three times as slow as the C encoder's compact text
    re-indented with numpy (``_reindent``); but the encoder and that pass
    each hold several times the text they write.  So the writer walks
    the spine of the document (``_pieces``), its dicts and short lists,
    and writes each long list in batches of items (``_list_pieces``):
    only a batch goes through the C encoder and numpy.  Every document is
    a fresh tree, built by ``to_doc`` or a ``*_doc`` helper, which cannot
    contain itself: the encoder skips its check for circular references.
    """
    yield from _pieces(doc, 0)
    yield "\n"


def _pieces(value, depth: int):
    """The indented text of value, which starts at the given depth, from
    its first character to its last."""
    if isinstance(value, dict) and value:
        inner = "\n" + "  " * (depth + 1)
        sep = "{"
        for key, item in value.items():
            # a key as json writes it: 1.5, True and None as "1.5", "true"
            # and "null"
            yield f"{sep}{inner}{json.dumps({key: 0})[1:-4]}: "
            yield from _pieces(item, depth + 1)
            sep = ","
        yield "\n" + "  " * depth + "}"
    elif isinstance(value, (list, tuple)) and value:
        yield from _list_pieces(value, depth)
    else:  # a scalar or an empty container
        yield json.dumps(value)


def _list_pieces(items, depth: int):
    """A non-empty list at the given depth, item by item if it is short,
    else in batches of about JSON_BATCH_BYTES of text.

    The first batch of a long list is one item, and each later batch
    takes as many items as the bytes per item of the one before say will
    fit, but at most eight times as many as it, so that a small first
    item does not size a batch of larger ones.  A batch of one item is
    walked by ``_pieces``, so an item larger than a batch is never encoded
    whole; a batch of more is encoded compactly and re-indented without
    its own brackets.  The items of a short list, such as the reports of
    ``verify all``, are each walked, so that a large one is not encoded
    beside a small one.
    """
    inner = "\n" + "  " * (depth + 1)
    sep = "["
    start, count = 0, 1
    while start < len(items):
        yield sep + inner
        if count == 1:
            size = 0
            for piece in _pieces(items[start], depth + 1):
                size += len(piece)
                yield piece
        else:
            batch = items[start:start + count]
            raw = json.dumps(batch, separators=(",", ": "),
                             check_circular=False).encode("ascii")
            text = _reindent(np.frombuffer(raw, dtype=np.uint8)[1:-1],
                             depth + 1)
            size = len(text)
            yield text
        start += count
        if len(items) > JSON_SHORT_LIST:
            count = max(1, min(8 * count, count * JSON_BATCH_BYTES // size))
        sep = ","
    yield "\n" + "  " * depth + "]"


def _reindent(a: np.ndarray, depth: int) -> str:
    """The compact text a (ASCII bytes, as ``ensure_ascii`` gives) of
    values that start at the given depth, indented as ``json.dumps(...,
    indent=2)`` indents them.

    A structural character is one of ``{}[],`` outside a string; a quote
    after an odd run of backslashes is escaped and does not end a string.
    The depth is the given one plus a running sum over the opens and
    closes.  A newline and two spaces per level follow each non-empty
    open and each comma and precede each non-empty close; an empty ``[]``
    or ``{}`` stays as it is.
    """
    quote = a == ord('"')
    slash = a == ord("\\")
    if slash.any():
        # last[i]: the last position <= i that holds no backslash
        last = np.where(slash, -1, np.arange(a.size, dtype=np.int32))
        np.maximum.accumulate(last, out=last)
        q = np.flatnonzero(quote[1:]) + 1
        quote[q[(q - 1 - last[q - 1]) % 2 == 1]] = False
        del last
    marks = np.zeros(256, dtype=np.uint8)  # 1 open, 2 close, 3 comma
    marks[list(b"[{")], marks[list(b"]}")], marks[ord(",")] = 1, 2, 3
    kind = marks.take(a)
    kind *= ~np.logical_xor.accumulate(quote)  # 0 inside a string
    del quote
    at = np.flatnonzero(kind != 0)
    kind = kind[at]
    is_open, is_close = kind == 1, kind == 2
    level = np.cumsum(is_open.astype(np.int32) - is_close, dtype=np.int32)
    # an open followed at once by a close is an empty container
    empty = is_open[:-1] & is_close[1:] & (at[1:] == at[:-1] + 1)
    keep = np.ones(at.size, dtype=bool)
    keep[:-1] &= ~empty
    keep[1:] &= ~empty
    at, width, before = at[keep], 1 + 2 * (depth + level[keep]), is_close[keep]
    size = a.size + int(width.sum(dtype=np.int64))
    index = np.int32 if size < 2**31 else np.int64
    # break k, a newline and its indent, width[k] characters, goes in front
    # of character cut[k]: at[k] (a close) or at[k] + 1.  The run of text
    # from cut[k] to the next cut moves right by shift[k + 1], the widths
    # of breaks 0..k.
    cut = at + ~before
    shift = np.zeros(cut.size + 1, dtype=index)
    np.cumsum(width, dtype=index, out=shift[1:])
    pos = np.repeat(shift, np.diff(cut, prepend=0, append=a.size))
    pos += np.arange(a.size, dtype=index)
    out = np.full(size, ord(" "), dtype=np.uint8)
    out[pos] = a
    del pos
    out[cut + shift[:-1]] = ord("\n")
    return str(out, "ascii")


def _write_text(path: str, pieces) -> None:
    """Replace the file at path with the concatenated string pieces
    atomically: write each piece to a temporary file beside it as it
    comes, then rename that over path, so that a run killed or failing
    mid-write leaves the previous file whole instead of a truncated one.
    An OSError names path, not the temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


# ---------------------------------------------------------------------------
# command helpers


def _read_json(path: str):
    """The JSON document in the file at path; a document nested too deeply
    to decode is a ValueError like any other malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_group(args) -> int:
    spec = parse_group_spec(args.spec)
    table = construct(spec, args.order_cap)
    flags = structure_flags(table)
    series_orders = [term.order for term in derived_series(table)]
    factorization = "*".join(
        (f"{p}^{e}" if e > 1 else str(p)) for p, e in table.order_factorization) or "1"
    if args.json:
        doc = {"spec": spec_to_doc(spec), "name": spec_name(spec),
               "order": table.order,
               "order_factorization": [[p, e] for p, e in table.order_factorization],
               "is_abelian": flags.is_abelian,
               "is_nilpotent": flags.is_nilpotent,
               "is_metabelian": flags.is_metabelian,
               "is_solvable": flags.is_solvable,
               "derived_series_orders": series_orders}
        sys.stdout.writelines(_json_pieces(doc))
    else:
        print(f"group {spec_name(spec)}")
        print(f"order {table.order} = {factorization}")
        print(f"abelian={flags.is_abelian} nilpotent={flags.is_nilpotent} "
              f"metabelian={flags.is_metabelian} solvable={flags.is_solvable}")
        print("derived series orders: "
              + " ".join(map(str, series_orders)))
    return EXIT_OK


def cmd_subgroups(args) -> int:
    spec = parse_group_spec(args.spec)
    table = construct(spec, args.order_cap)
    lat = enumerate_subgroups(table)
    if args.json:
        _write_text(args.json, _json_pieces(lattice_doc(spec, lat)))
    print(f"group {spec_name(spec)}: order {table.order}, "
          f"{len(lat.subgroups)} subgroups")
    for order, count in sorted(Counter(s.order for s in lat.subgroups).items()):
        print(f"  order {order}: {count}")
    return EXIT_OK


def _graph_for(args) -> tuple[GroupSpec, CommGraph]:
    """The spec and graph that ``graph`` and ``analyze`` report on; -p is
    checked before any group is constructed."""
    if not is_prime(args.p):
        raise ValueError(f"{args.p} is not prime")
    spec = parse_group_spec(args.spec)
    table = construct(spec, args.order_cap)
    return spec, build_graph(enumerate_subgroups(table), args.p,
                             _KINDS[args.kind])


def cmd_graph(args) -> int:
    spec, graph = _graph_for(args)
    if args.dot:
        _write_text(args.dot, [export_dot(graph)])
    if args.json:
        _write_text(args.json, _json_pieces(graph_json_doc(spec, graph)))
    print(f"{graph.kind} graph of {spec_name(spec)} at p={args.p}: "
          f"{graph.vertex_count} vertices, {graph.edge_count} edges")
    return EXIT_OK


def cmd_analyze(args) -> int:
    spec, graph = _graph_for(args)
    doc = analyze_doc(spec, graph)
    if args.json:
        _write_text(args.json, _json_pieces(doc))
    sys.stdout.writelines(_json_pieces(doc))
    return EXIT_OK


def _reject_unknown_keys(doc: dict, known: set[str], what: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise InvalidSpec(f"unknown {what} key(s): {', '.join(unknown)}")


def _load_corpus_file(path: str) -> list[CorpusMember]:
    doc = _read_json(path)
    members_doc = doc.get("members") if isinstance(doc, dict) else None
    if not isinstance(members_doc, list) or not members_doc:
        raise InvalidSpec("corpus file needs a non-empty 'members' array")
    _reject_unknown_keys(doc, {"members"}, "corpus file")
    members = []
    for entry in members_doc:
        if not isinstance(entry, dict) or "spec" not in entry:
            raise InvalidSpec("each corpus member needs a 'spec'")
        _reject_unknown_keys(entry, {"spec", "name"}, "corpus member")
        spec = spec_from_doc(entry["spec"])
        name = entry.get("name", "")
        if not isinstance(name, str):
            raise InvalidSpec("a corpus member 'name' must be a string")
        name = name or spec_name(spec)
        # reports group records by member name: two members would merge
        if any(m.name == name for m in members):
            raise InvalidSpec(f"duplicate corpus member name {name!r}")
        members.append(CorpusMember(name, spec))
    return members


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    corpus = _load_corpus_file(args.corpus) if args.corpus else None
    if args.suite == "all":
        reports = run_all(corpus=corpus, trials=args.trials, seed=args.seed)
        doc = {"suite": "all", "seed": args.seed,
               "reports": [r.to_doc() for r in reports]}
    else:
        reports = [run_suite(args.suite, corpus=corpus, trials=args.trials,
                             seed=args.seed)]
        doc = reports[0].to_doc()
    if args.json:
        _write_text(args.json, _json_pieces(doc))
    all_pass = True
    for rep in reports:
        # a suite that made no check failed none, but did not pass either
        status = ("FAIL" if not rep.passed
                  else "pass" if rep.records else "no checks")
        fails = sum(1 for r in rep.records if not r.passed)
        print(f"{rep.suite}: {status} ({len(rep.records)} checks, "
              f"{fails} failures, {rep.skips} skips, "
              f"{len(rep.warnings)} warnings)")
        for w in rep.warnings:
            print(f"  warning {w['code']}: {w}")
        print(f"  runtime: {rep.runtime_ms:.0f} ms", file=sys.stderr)
        all_pass = all_pass and rep.passed
    return EXIT_OK if all_pass else EXIT_VERDICT_FAIL


# ---------------------------------------------------------------------------
# argument parsing


def _add_spec_argument(parser) -> None:
    parser.add_argument("spec", help="group spec document, e.g. '{\"sym\": 4}'")
    parser.add_argument("--order-cap", type=int, default=None,
                        help=f"max group order (default {DEFAULT_ORDER_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commgraph",
        description="Finite-group subgroup lattices and p-local "
                    "commensurability/containment graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="order, structure flags, derived series")
    _add_spec_argument(p_group)
    p_group.add_argument("--json", action="store_true",
                         help="print a JSON summary instead of text")
    p_group.set_defaults(func=cmd_group)

    p_subs = sub.add_parser("subgroups", help="enumerate the subgroup lattice")
    _add_spec_argument(p_subs)
    p_subs.add_argument("--json", help="write the lattice document to PATH")
    p_subs.set_defaults(func=cmd_subgroups)

    p_graph = sub.add_parser("graph", help="build a graph and export DOT/JSON")
    _add_spec_argument(p_graph)
    p_graph.add_argument("-p", type=int, required=True, help="prime p")
    p_graph.add_argument("--kind", choices=("comm", "cont"), default="comm")
    p_graph.add_argument("--dot", help="write DOT to PATH")
    p_graph.add_argument("--json", help="write graph JSON to PATH")
    p_graph.set_defaults(func=cmd_graph)

    p_an = sub.add_parser("analyze", help="component/diameter report")
    _add_spec_argument(p_an)
    p_an.add_argument("-p", type=int, required=True, help="prime p")
    p_an.add_argument("--kind", choices=("comm", "cont"), default="comm")
    p_an.add_argument("--json", help="also write the report to PATH")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run claim-verification suites")
    p_ver.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_ver.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--corpus", help="JSON file overriding the corpus")
    p_ver.add_argument("--json", help="write the verdict report to PATH")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of standard output closed it (`| head`): exit as a
        # writer killed by SIGPIPE, silently, with stdout pointed at
        # devnull so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InvalidSpec, ValueError, OSError) as exc:
        # ValueError: an invalid argument value (-p 4, --trials 0) or a
        # malformed JSON file; OSError: an unusable path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrderCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER_CAP
    except LatticeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LATTICE_CAP


if __name__ == "__main__":
    raise SystemExit(main())
