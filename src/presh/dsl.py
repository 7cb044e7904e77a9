"""Text format for models and workspaces.

Line-oriented, ``#`` starts a comment, tokens are ASCII names.  A model file
(``.psh``) holds exactly one model; a workspace file (``.pshw``) holds
models (inline or via ``include "file.psh"``), feature identifications and
merge/transfer/check instructions::

    format 1
    model Camcorder
    feature screen: small
    feature edit: difficult | quick
    label edit "editing possibilities"
    forbid (edit, screen): (quick, small)

    identify h: Target -> Source { feature a -> b { v1 -> w1, v2 -> w2 } }
    merge Hub = PC + Camcorder
    transfer Audio = h of Hub
    check Hub

Names must be declared before use; parsing never executes anything.  Every
rejection carries a 1-based source span.  The lines ``serialize`` writes many
of are read with one regex match each, in the shape it writes them (any
blanks, a trailing comment): ``feature`` and table lines inside a model, and
``feature t -> s {``, ``tv -> sv`` and a feature block's ``}`` inside an
identification.  A match is checked as the token path checks the line, and
a name in it ends where the tokenizer's token ends (``x-> y`` holds the name
``x-``, so it does not match).  Every other line, and a matched line that
fails a check, is tokenized, so every error comes from the token path.
Labels, ``cover:`` lines, directives and each identification's own head and
last ``}`` are always tokenized.  ``serialize`` emits
the canonical form (tables sorted, one value-map pair per line) and is a
fixed point: ``serialize(parse(serialize(x))) == serialize(x)``.  A model
may also hold ``cover: {a,b}, {c}`` lines; they are accepted and ignored
(every subset of the features is already an object), so ``serialize`` never
writes one.
"""

from __future__ import annotations

import re
from functools import cached_property
from pathlib import Path
from typing import Union

from .errors import MalformedInputError, PreshError
from .lattice import Subset
from .model import ConstraintTable, Model
from .ops import FeatureIdentification
from .presheaf import Fiber
from .report import Frozen

FORMAT_VERSION = 1


class SourceSpan(Frozen):
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(PreshError):
    def __init__(
        self,
        message: str,
        span: SourceSpan,
        *,
        source: str = "<text>",
        expected: str | None = None,
        found: str | None = None,
    ):
        detail = message
        if expected is not None:
            detail += f" (expected {expected}, found {found or 'nothing'})"
        super().__init__(f"{source}:{span}: {detail}")
        self.message = message
        self.span = span
        self.source = source
        self.expected = expected
        self.found = found


class IdentificationDecl(Frozen):
    """A named identification plus the domain names it was declared between."""

    ident: FeatureIdentification
    target_name: str
    source_name: str


class MergeDirective(Frozen):
    result: str
    left: str
    right: str


class TransferDirective(Frozen):
    result: str
    identification: str
    source: str


class CheckDirective(Frozen):
    target: str


Directive = Union[MergeDirective, TransferDirective, CheckDirective]
WorkspaceItem = Union[Model, IdentificationDecl, Directive]


class Workspace(Frozen):
    """Everything a workspace file declares, in declaration order."""

    items: tuple[WorkspaceItem, ...]

    @cached_property
    def models(self) -> dict[str, Model]:
        return {i.name: i for i in self.items if isinstance(i, Model)}

    @cached_property
    def identifications(self) -> dict[str, IdentificationDecl]:
        return {
            i.ident.name: i for i in self.items if isinstance(i, IdentificationDecl)
        }

    @property
    def directives(self) -> tuple[Directive, ...]:
        return tuple(
            i
            for i in self.items
            if isinstance(i, (MergeDirective, TransferDirective, CheckDirective))
        )


# ---------------------------------------------------------------------------
# tokenizer

# Each match is one token with the blanks before it.  The ``$`` branch takes
# trailing blanks in one match, so a line is scanned in linear time.
_TOKEN_RE = re.compile(
    r"""[ \t]*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<arrow>->)
      | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<number>\d+)
      | (?P<punct>[:|{}()=+,.])
      | \#.* | $
      | (?P<bad>.))
    """,
    re.X,
)

# One match reads a whole line in the shape ``serialize`` writes, with any
# blanks and a trailing comment; a line that does not match is tokenized.
# Names are the tokenizer's (``\w`` is ``[A-Za-z0-9_]`` under ``re.ASCII``,
# which also compiles faster), and a name in a pattern ends where its token
# ends: in a model body every name is followed by a blank, a comma, a paren,
# a colon, a bar or a comment, none of which a name can take in, and in an
# identification body a name before an arrow is guarded by ``(?![\w-])``,
# so ``x-> y`` is not read as ``x -> y`` (the tokenizer reads the name
# ``x-`` there).  So splitting a match at its punctuation reads the tokens
# the tokenizer would.
_NAME = r"[A-Za-z_][\w-]*"
_NAMES = rf"[ \t]*{_NAME}(?:[ \t]*,[ \t]*{_NAME})*[ \t]*"
# A model body line: ``allow|forbid (f, ...):`` then ``(v, ...)`` tuples, commas
# between names and between tuples (groups 1-3), or ``feature f: v | ...``
# (groups 4-5).
_MODEL_LINE_RE = re.compile(
    rf"[ \t]*(?:(allow|forbid)[ \t]*\(({_NAMES})\)[ \t]*:"
    rf"((?:[ \t]*\({_NAMES}\)(?:[ \t]*,[ \t]*\({_NAMES}\))*)?)"
    rf"|feature[ \t]+({_NAME})[ \t]*:([ \t]*{_NAME}(?:[ \t]*\|[ \t]*{_NAME})*))"
    r"[ \t]*(?:\#.*)?",
    re.ASCII,
)
# An identification body line: ``feature t -> s {`` (groups 1-2), one value
# pair ``tv -> sv`` (groups 3-4), or a closing ``}``.
_IDENT_LINE_RE = re.compile(
    rf"[ \t]*(?:feature[ \t]+({_NAME})(?![\w-])[ \t]*->[ \t]*({_NAME})[ \t]*\{{"
    rf"|({_NAME})(?![\w-])[ \t]*->[ \t]*({_NAME})|\}})[ \t]*(?:\#.*)?",
    re.ASCII,
)

#: ``(kind, text, line, column)``; spans are built only for errors.
_Token = tuple[str, str, int, int]


def _span(tok: _Token) -> SourceSpan:
    return SourceSpan(tok[2], tok[3], len(tok[1]) or 1)


def _tokenize(line: str, lineno: int, source: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind is None:  # a comment or the end of the line
            break
        column = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m[kind]!r}",
                SourceSpan(lineno, column),
                source=source,
            )
        out.append((kind, m[kind], lineno, column))
    return out


class _Line:
    """Cursor over one line's tokens, closed by an ``end`` token (empty text)
    just past the last one, so that reads need no bounds check."""

    def __init__(self, tokens: list[_Token], source: str):
        _, text, lineno, column = tokens[-1]
        self.tokens = tokens + [("end", "", lineno, column + len(text))]
        self.source = source
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def done(self) -> bool:
        return self.tokens[self.i][0] == "end"

    def error(self, message: str, token: _Token, **kw) -> ParseError:
        return ParseError(message, _span(token), source=self.source, **kw)

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise self.error("unexpected end of line", tok)
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.tokens[self.i]
        if tok[1] != text:
            raise self.error(
                f"expected {text!r}", tok, expected=repr(text), found=tok[1] or None
            )
        self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if its text is ``text``."""
        if self.tokens[self.i][1] != text:
            return False
        self.i += 1
        return True

    def name(self, what: str = "name") -> _Token:
        tok = self.tokens[self.i]
        if tok[0] != "name":
            raise self.error(
                f"expected a {what}", tok, expected=what, found=tok[1] or None
            )
        self.i += 1
        return tok

    def end(self) -> None:
        tok = self.tokens[self.i]
        if tok[0] != "end":
            raise self.error(f"trailing input {tok[1]!r}", tok)


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1])


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# parser


class _ModelBuilder:
    def __init__(self, name: str):
        self.name = name
        self.by_name: dict[str, Fiber] = {}
        self.tables: list[ConstraintTable] = []
        self.labels: dict[str, str] = {}

    def build(self) -> Model:
        # the parser checked every name, value and label key it holds
        return Model._trusted(self.name, self.by_name, self.tables, self.labels)


class _IdentBuilder:
    def __init__(self, name: str, target: str, source: str, head: _Token):
        self.name = name
        self.target_name = target
        self.source_name = source
        self.head = head
        self.feature_map: dict[str, str] = {}
        self.value_maps: dict[str, dict[str, str]] = {}
        self.current: str | None = None

    def build(self) -> IdentificationDecl:
        # the parser has matched every name and refused a feature mapped
        # twice; an empty value map is the one check left, made by the caller
        ident = FeatureIdentification._trusted(
            self.name, self.feature_map, self.value_maps
        )
        return IdentificationDecl(ident, self.target_name, self.source_name)


class _Parser:
    def __init__(
        self,
        text: str,
        *,
        source: str = "<text>",
        base: Path | None = None,
        workspace: bool = True,
    ):
        self.text = text
        self.source = source
        self.base = base
        self.workspace = workspace
        self.items: list[WorkspaceItem] = []
        self.defined: dict[str, str] = {}  # name -> kind
        self.model: _ModelBuilder | None = None
        self.ident: _IdentBuilder | None = None
        self.saw_any = False

    # -- helpers

    def _define(self, name: str, kind: str, tok: _Token, line: _Line) -> None:
        if name in self.defined:
            raise line.error(f"duplicate name {name!r}", tok)
        self.defined[name] = kind

    def _resolve_artifact(self, tok: _Token, line: _Line) -> str:
        kind = self.defined.get(tok[1])
        if kind is None:
            raise line.error(f"undefined reference {tok[1]!r}", tok)
        if kind == "identification":
            raise line.error(f"{tok[1]!r} is an identification, not a model", tok)
        return tok[1]

    def _close_model(self):
        if self.model is not None:
            self.items.append(self.model.build())
            self.model = None

    def _require_workspace(self, line: _Line, tok: _Token):
        if not self.workspace:
            raise line.error(f"{tok[1]!r} is not allowed in a model file", tok)

    # -- line dispatch

    def parse(self) -> Workspace:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            # an open model means no identify block is (its head closes the
            # model); a body line in canonical shape needs no tokens
            if self.model is not None:
                match = _MODEL_LINE_RE.fullmatch(raw)
                if match is not None and self._read_model_line(match):
                    continue
            elif self.ident is not None:
                match = _IDENT_LINE_RE.fullmatch(raw)
                if match is not None and self._read_ident_line(match):
                    continue
            tokens = _tokenize(raw, lineno, self.source)
            if not tokens:
                continue
            line = _Line(tokens, self.source)
            if self.ident is not None:
                self._ident_line(line)
            else:
                self._top_line(line)
        if self.ident is not None:
            raise ParseError(
                "identification block never closed",
                _span(self.ident.head),
                source=self.source,
            )
        self._close_model()
        return Workspace(tuple(self.items))

    def _top_line(self, line: _Line) -> None:
        head = line.peek()
        if head[1] == "format":
            line.take()
            if self.saw_any:
                raise line.error("format line must come first", head)
            version = line.take()
            if version[1] != str(FORMAT_VERSION):
                raise line.error(
                    f"unsupported format {version[1]!r}",
                    version,
                    expected=str(FORMAT_VERSION),
                    found=version[1],
                )
            line.end()
            return
        self.saw_any = True
        if head[1] == "model":
            self._close_model()
            line.take()
            name = line.name("model name")
            line.end()
            self._define(name[1], "model", name, line)
            self.model = _ModelBuilder(name[1])
            return
        if head[1] in ("feature", "label", "cover", "allow", "forbid"):
            if self.model is None:
                raise line.error(f"{head[1]!r} outside a model block", head)
            if head[1] in ("allow", "forbid"):  # the keyword is the polarity
                self._table(line, head[1])
            else:
                getattr(self, f"_model_{head[1]}")(line)
            return
        if head[1] == "include":
            self._require_workspace(line, head)
            self._close_model()
            self._include(line)
            return
        if head[1] == "identify":
            self._require_workspace(line, head)
            self._close_model()
            self._identify_head(line)
            return
        if head[1] in ("merge", "transfer", "check"):
            self._require_workspace(line, head)
            self._close_model()
            getattr(self, f"_directive_{head[1]}")(line)
            return
        raise line.error(f"unexpected {head[1]!r} at top level", head)

    # -- model bodies

    def _model_feature(self, line: _Line) -> None:
        line.take()
        m = self.model
        assert m is not None
        name = line.name("feature name")
        if name[1] in m.by_name:
            raise line.error(f"feature {name[1]!r} declared twice", name)
        line.expect(":")
        values: list[str] = []
        while True:
            v = line.name("value")
            if v[1] in values:
                raise line.error(f"duplicate value {v[1]!r}", v)
            values.append(v[1])
            if line.done():
                break
            line.expect("|")
        m.by_name[name[1]] = Fiber._trusted(name[1], tuple(values))

    def _model_label(self, line: _Line) -> None:
        line.take()
        m = self.model
        assert m is not None
        feat = line.name("feature name")
        if feat[1] not in m.by_name:
            raise line.error(f"unknown feature {feat[1]!r}", feat)
        key = feat[1]
        if line.accept("."):
            val = line.name("value")
            if val[1] not in m.by_name[feat[1]].index:
                raise line.error(f"{val[1]!r} is not a value of {feat[1]!r}", val)
            key = f"{feat[1]}.{val[1]}"
        tok = line.peek()
        if tok[0] != "string":
            raise line.error("expected a quoted label", tok, expected="string")
        line.take()
        line.end()
        m.labels[key] = _unquote(tok[1])

    def _model_cover(self, line: _Line) -> None:
        # the family is every subset of the features, so a seed adds nothing:
        # its names are checked and it is dropped, and old files still parse
        line.take()
        line.expect(":")
        m = self.model
        assert m is not None
        while not line.done():
            line.expect("{")
            while line.peek()[1] not in ("}", ""):  # "" ends the line
                tok = line.name("feature name")
                if tok[1] not in m.by_name:
                    raise line.error(f"unknown feature {tok[1]!r}", tok)
                line.accept(",")
            line.expect("}")
            if not line.done():
                line.expect(",")

    def _read_model_line(self, match: re.Match) -> bool:
        """Add the feature or table of a model body line in canonical shape,
        unless it breaks a rule that ``_model_feature`` or ``_table`` checks:
        then add nothing, and the line is tokenized so that they raise the
        error."""
        m = self.model
        assert m is not None
        if match[1] is None:
            name = match[4]
            if name in m.by_name:
                return False
            values = match[5].replace(" ", "").replace("\t", "").split("|")
            if len(set(values)) != len(values):
                return False
            m.by_name[name] = Fiber._trusted(name, tuple(values))
            return True
        # the groups hold only names, commas and parens between the blanks
        scope, body = (g.replace(" ", "").replace("\t", "") for g in match.group(2, 3))
        written = scope.split(",")
        names = set(written)
        if len(names) != len(written) or not m.by_name.keys() >= names:
            return False
        rows = [t.split(",") for t in body[1:-1].split("),(")] if body else []
        if any(len(row) != len(written) for row in rows):
            return False
        for f, column in zip(written, zip(*rows)):
            if not m.by_name[f].index.keys() >= set(column):
                return False
        self._add_table(match[1], written, rows)
        return True

    def _table(self, line: _Line, polarity: str) -> None:
        line.take()
        m = self.model
        assert m is not None
        line.expect("(")
        written: list[str] = []
        while True:
            tok = line.name("feature name")
            if tok[1] not in m.by_name:
                raise line.error(f"unknown feature {tok[1]!r}", tok)
            if tok[1] in written:
                raise line.error(f"feature {tok[1]!r} repeated in scope", tok)
            written.append(tok[1])
            if not line.accept(","):
                break
        line.expect(")")
        line.expect(":")
        fibers = [m.by_name[f] for f in written]
        rows: list[list[str]] = []
        while not line.done():
            open_tok = line.expect("(")
            row: list[_Token] = []
            while line.peek()[1] not in (")", ""):  # "" ends the line
                row.append(line.name("value"))
                line.accept(",")
            line.expect(")")
            if len(row) != len(written):
                raise line.error(
                    f"tuple has {len(row)} values, scope has {len(written)}",
                    open_tok,
                    expected=f"{len(written)} values",
                    found=f"{len(row)}",
                )
            for fib, vtok in zip(fibers, row):
                if vtok[1] not in fib.index:
                    raise line.error(
                        f"{vtok[1]!r} is not a value of {fib.feature!r}",
                        vtok,
                        expected=f"one of {'|'.join(fib.values)}",
                        found=vtok[1],
                    )
            rows.append([v[1] for v in row])
            if not line.done():
                line.expect(",")
        self._add_table(polarity, written, rows)

    def _add_table(
        self, polarity: str, written: list[str], rows: list[list[str]]
    ) -> None:
        """Append the table of checked rows, each in ``written`` scope order:
        declared, distinct features and values from their fibers."""
        assert self.model is not None
        # the names are declared features, so valid and already checked
        scope = Subset._trusted(tuple(sorted(written)))
        if scope.names != tuple(written):  # reorder to canonical positions
            order = [written.index(f) for f in scope.names]
            rows = [[row[i] for i in order] for row in rows]
        self.model.tables.append(ConstraintTable._trusted(scope, polarity, rows))

    # -- workspace items

    def _include(self, line: _Line) -> None:
        line.take()
        tok = line.peek()
        if tok[0] != "string":
            raise line.error("expected a quoted path", tok, expected="string")
        line.take()
        line.end()
        rel = _unquote(tok[1])
        if not rel.endswith(".psh"):
            raise line.error("only model files (.psh) can be included", tok)
        path = (self.base / rel) if self.base is not None else Path(rel)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, NUL in path
            raise line.error(f"cannot include {rel!r}: {exc}", tok) from exc
        model = parse_model(text, source=str(path))
        self._define(model.name, "model", tok, line)
        self.items.append(model)

    def _read_ident_line(self, match: re.Match) -> bool:
        """Take an identification body line in canonical shape as
        ``_ident_line`` would, unless it breaks a rule that ``_ident_line``
        checks or closes the whole block: then change nothing, and the line
        is tokenized so that ``_ident_line`` raises the error or closes."""
        ident = self.ident
        assert ident is not None
        tgt, src, tv, sv = match.group(1, 2, 3, 4)
        if tgt is not None:
            if (
                ident.current is not None
                or tgt in ident.feature_map
                or src in ident.feature_map.values()
            ):
                return False
            ident.feature_map[tgt] = src
            ident.value_maps[tgt] = {}
            ident.current = tgt
            return True
        if ident.current is None:
            return False
        if tv is None:  # the feature block's ``}``
            ident.current = None
            return True
        vmap = ident.value_maps[ident.current]
        # the token path reads a line that starts with ``feature`` as a head
        if tv == "feature" or tv in vmap:
            return False
        vmap[tv] = sv
        return True

    def _identify_head(self, line: _Line) -> None:
        head = line.take()
        name = line.name("identification name")
        self._define(name[1], "identification", name, line)
        line.expect(":")
        target = line.name("target name")
        line.expect("->")
        source = line.name("source name")
        self._resolve_artifact(source, line)
        line.expect("{")
        self.ident = _IdentBuilder(name[1], target[1], source[1], head)
        self._ident_line(line)  # blocks may continue on the same line

    def _ident_line(self, line: _Line) -> None:
        ident = self.ident
        assert ident is not None
        while not line.done():
            head = line.peek()
            if head[1] == "}":
                line.take()
                if ident.current is not None:
                    ident.current = None
                    continue
                empty = [t for t, vmap in ident.value_maps.items() if not vmap]
                if empty:
                    message = f"identification {ident.name!r} has an empty value map"
                    raise ParseError(
                        f"{message} for {empty[0]!r}", _span(ident.head), source=self.source
                    )
                self.items.append(ident.build())
                self.ident = None
                line.end()
                return
            if head[1] == "feature":
                if ident.current is not None:
                    raise line.error("previous feature block never closed", head)
                line.take()
                tgt = line.name("target feature")
                if tgt[1] in ident.feature_map:
                    raise line.error(f"target feature {tgt[1]!r} mapped twice", tgt)
                line.expect("->")
                src = line.name("source feature")
                if src[1] in ident.feature_map.values():
                    raise line.error(f"source feature {src[1]!r} mapped twice", src)
                line.expect("{")
                ident.feature_map[tgt[1]] = src[1]
                ident.value_maps[tgt[1]] = {}
                ident.current = tgt[1]
                continue
            if ident.current is None:
                raise line.error("expected 'feature' or '}'", head)
            vmap = ident.value_maps[ident.current]
            tv = line.name("target value")
            if tv[1] in vmap:
                raise line.error(f"value {tv[1]!r} mapped twice", tv)
            line.expect("->")
            sv = line.name("source value")
            vmap[tv[1]] = sv[1]
            line.accept(",")

    # -- directives

    def _directive_merge(self, line: _Line) -> None:
        line.take()
        result = line.name("result name")
        line.expect("=")
        left = line.name("model name")
        line.expect("+")
        right = line.name("model name")
        line.end()
        self._resolve_artifact(left, line)
        self._resolve_artifact(right, line)
        self._define(result[1], "result", result, line)
        self.items.append(MergeDirective(result[1], left[1], right[1]))

    def _directive_transfer(self, line: _Line) -> None:
        line.take()
        result = line.name("result name")
        line.expect("=")
        ident = line.name("identification name")
        if self.defined.get(ident[1]) != "identification":
            raise line.error(f"undefined identification {ident[1]!r}", ident)
        line.expect("of")
        source = line.name("model name")
        line.end()
        self._resolve_artifact(source, line)
        self._define(result[1], "result", result, line)
        self.items.append(TransferDirective(result[1], ident[1], source[1]))

    def _directive_check(self, line: _Line) -> None:
        line.take()
        target = line.name("artifact name")
        line.end()
        self._resolve_artifact(target, line)
        self.items.append(CheckDirective(target[1]))


def parse_workspace(
    text: str, *, source: str = "<workspace>", base: Path | str | None = None
) -> Workspace:
    base_path = Path(base) if base is not None else None
    return _Parser(text, source=source, base=base_path, workspace=True).parse()


def parse_model(text: str, *, source: str = "<model>") -> Model:
    ws = _Parser(text, source=source, workspace=False).parse()
    models = [i for i in ws.items if isinstance(i, Model)]
    if len(models) != 1:
        raise ParseError(
            f"a model file must define exactly one model, found {len(models)}",
            SourceSpan(1, 1),
            source=source,
        )
    return models[0]


def parse_workspace_file(path: Path | str) -> Workspace:
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines up to the bad byte, which stands in as one character
        lines = (data[: exc.start].decode("utf-8") + "\ufffd").splitlines()
        raise ParseError(
            f"invalid UTF-8 byte {data[exc.start]:#04x} ({exc.reason})",
            SourceSpan(len(lines), len(lines[-1])),
            source=str(path),
        ) from exc
    if path.suffix == ".psh":
        return Workspace((parse_model(text, source=str(path)),))
    return parse_workspace(text, source=str(path), base=path.parent)


# ---------------------------------------------------------------------------
# serializer


def _model_lines(m: Model) -> list[str]:
    lines = [f"model {m.name}"]
    for f in m.feature_order():
        fib = m.fibers[f]
        lines.append(f"feature {f}: " + " | ".join(fib.values))
        if f in m.labels:
            lines.append(f"label {f} {_quote(m.labels[f])}")
        for v in fib.values:
            key = f"{f}.{v}"
            if key in m.labels:
                lines.append(f"label {key} {_quote(m.labels[key])}")
    for t in m.tables:
        scope = "(" + ", ".join(t.scope.names) + ")"
        rows = ", ".join("(" + ", ".join(r) + ")" for r in t.tuples)
        line = f"{t.polarity} {scope}:"
        lines.append(f"{line} {rows}" if rows else line)
    return lines


def _ident_lines(decl: IdentificationDecl) -> list[str]:
    h = decl.ident
    lines = [f"identify {h.name}: {decl.target_name} -> {decl.source_name} {{"]
    for tgt, src in h.feature_map.items():
        lines.append(f"  feature {tgt} -> {src} {{")
        for tv, sv in h.value_maps[tgt].items():
            lines.append(f"    {tv} -> {sv}")
        lines.append("  }")
    lines.append("}")
    return lines


def serialize(value: Union[Model, Workspace]) -> str:
    """Canonical text; parsing it back yields an equal value."""
    if isinstance(value, Model):
        return "\n".join([f"format {FORMAT_VERSION}", ""] + _model_lines(value)) + "\n"
    if not isinstance(value, Workspace):
        raise MalformedInputError(f"cannot serialize {type(value).__name__}")
    blocks: list[list[str]] = []
    for item in value.items:
        if isinstance(item, Model):
            blocks.append(_model_lines(item))
        elif isinstance(item, IdentificationDecl):
            blocks.append(_ident_lines(item))
        elif isinstance(item, MergeDirective):
            blocks.append([f"merge {item.result} = {item.left} + {item.right}"])
        elif isinstance(item, TransferDirective):
            blocks.append(
                [f"transfer {item.result} = {item.identification} of {item.source}"]
            )
        else:
            blocks.append([f"check {item.target}"])
    out = [f"format {FORMAT_VERSION}"]
    for block in blocks:
        out.append("")
        out.extend(block)
    return "\n".join(out) + "\n"


def canonicalize(
    text: str, *, source: str = "<text>", base: Path | str | None = None
) -> str:
    """Parse and re-emit in canonical form; parse errors propagate."""
    return serialize(parse_workspace(text, source=source, base=base))
