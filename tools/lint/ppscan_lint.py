#!/usr/bin/env python3
"""ppscan_lint — concurrency-protocol and repo-invariant checker.

Generic static analysis (clang-tidy, see .clang-tidy) cannot check the
invariants this repository's lock-free layer actually relies on: *which*
memory orders each std::atomic member is allowed to use, and the phase /
ownership protocol that makes a relaxed operation correct in one place and a
bug in another. This linter encodes those invariants:

  protocol-missing    every std::atomic / AtomicArray / unique_ptr<atomic[]>
                      member in the configured paths must carry a
                      `// protocol: <discipline>` annotation naming its
                      ordering discipline (disciplines are defined in
                      atomics_protocol.toml).
  protocol-unknown    the annotation names a discipline the config does not
                      define.
  protocol-order      a load/store/RMW/CAS/wait call site on an annotated
                      member uses a memory_order outside the discipline's
                      allowed set (the implicit default — seq_cst for
                      std::atomic, relaxed for the AtomicArray wrapper — is
                      checked too, so an accidental bare `.load()` on a
                      relaxed counter is caught).
  protocol-ambiguous  two members share a name but declare different
                      disciplines — call sites are resolved by receiver
                      name, so this must be an error, not a guess.
  protocol-docs       an annotated member is missing from the protocol table
                      in docs/memory_model.md (keeps the docs complete).
  protocol-stale      a protocol-table row (`| `name` | `discipline` |`)
                      names a member no annotated declaration has, or a
                      [disciplines.*] entry in atomics_protocol.toml is
                      named by no member (keeps the docs and the config
                      free of deleted code).
  banned-api          rand()/srand()/time(nullptr)/naked new[] in phase-body
                      code (config-driven pattern list).
  vertexid-narrowing  `static_cast<VertexId>(...)` of a size-like 64-bit
                      expression at a graph boundary; use
                      ppscan::checked_vertex_cast, which asserts the value
                      fits.
  order-assert        functions listed in the config (the similarity-reuse
                      core-checking paths, Algorithm 3) must contain their
                      declared `u < v` order-constraint assertion.
  trace-hotpath       PPSCAN_TRACE_* / PPSCAN_FAULT_* macros in the
                      configured hot paths (the setops kernels): even
                      compiled-out trace hooks and fault points are
                      forbidden where a null-check or function call would
                      sit inside the per-element intersection loops.

A second pass (config: lock_protocol.toml) enforces the blocking-side lock
discipline that complements clang's -Wthread-safety (which checks
guard/capability use but has no reliable whole-program lock ordering):

  lock-raw            std::mutex / lock_guard / unique_lock / ... in the
                      configured paths; raw primitives are invisible to
                      -Wthread-safety — use CheckedMutex/CheckedLock from
                      util/thread_safety.hpp.
  lock-unannotated    a CheckedMutex member without a `// guards:` comment
                      naming the state it protects.
  lock-undeclared     a CheckedMutex not registered in lock_protocol.toml
                      ([[locks]]) — every mutex needs a lock-order level —
                      or a registered lock with no declaration left in the
                      tree.
  lock-ambiguous      two CheckedMutex declarations share a name; the order
                      checker resolves locks by name, so this is an error.
  lock-order          an acquisition edge (lexical nesting, a call made
                      while a lock is held — via a transitive may-acquire
                      closure — or a PPSCAN_REQUIRES-derived hold) that
                      violates the strictly-increasing level hierarchy,
                      including self-deadlocks on the non-recursive
                      CheckedMutex.
  lock-hotpath        any mutex use in lock-free hot-path directories, or a
                      direct acquisition inside the functions listed in
                      [[hotpath_functions]] (the executor claim path).
  lock-docs           a mutex missing from the "Mutexes and guards" table
                      in docs/memory_model.md.

Engine: a comment/string-aware tokenizer (no dependencies beyond the
standard library). When the optional libclang python bindings are installed,
`--verify-with-libclang` cross-validates the declaration scan against a real
AST walk; the bindings are NOT required — this tool must run anywhere the
repo builds.

Per-site waivers: `// lint-ok: <rule>` on the offending line or the line
directly above suppresses that rule at that site. Waivers are counted in the
summary so they stay visible.

Output: `file:line: [rule] message` — clickable in CI logs and editors.
Exit codes: 0 clean, 1 findings, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys
import tomllib

# --------------------------------------------------------------------------
# Source model: comment/string-aware scan
# --------------------------------------------------------------------------


@dataclasses.dataclass
class SourceFile:
    """One scanned file: raw text, code with comments/strings blanked
    (offsets and newlines preserved), and per-line comment text."""

    path: str
    text: str
    code: str  # comments and string literals replaced by spaces
    comments: dict[int, str]  # 1-based line -> concatenated comment text

    def line_of(self, offset: int) -> int:
        return self.text.count("\n", 0, offset) + 1


def blank_comments_and_strings(text: str) -> tuple[str, dict[int, str]]:
    """Replaces comments and string/char literals with spaces (newlines kept)
    and collects comment text per line. Handles //, /* */, "", '', and
    R"delim( )delim" raw strings."""
    out: list[str] = []
    comments: dict[int, str] = {}
    i, n = 0, len(text)
    line = 1

    def add_comment(ln: int, s: str) -> None:
        comments[ln] = comments.get(ln, "") + " " + s

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("\n")
            line += 1
            i += 1
        elif c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            add_comment(line, text[i:j])
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i : j + 2]
            for k, part in enumerate(chunk.split("\n")):
                add_comment(line + k, part)
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j + 2
        elif c == 'R' and nxt == '"':
            m = re.match(r'R"([^ ()\\\t\n]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j < 0 else j + len(close)
                chunk = text[i:j]
                out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
                line += chunk.count("\n")
                i = j
            else:
                out.append(c)
                i += 1
        elif c in ('"', "'"):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out), comments


def load_source(path: pathlib.Path, root: pathlib.Path) -> SourceFile:
    text = path.read_text(encoding="utf-8", errors="replace")
    code, comments = blank_comments_and_strings(text)
    return SourceFile(str(path.relative_to(root)), text, code, comments)


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def waived(src: SourceFile, line: int, rule: str) -> bool:
    for ln in (line, line - 1):
        comment = src.comments.get(ln, "")
        m = re.search(r"lint-ok:\s*([A-Za-z0-9_,\- ]+)", comment)
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


# --------------------------------------------------------------------------
# Config
# --------------------------------------------------------------------------

ORDER_NAMES = {"relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst"}


@dataclasses.dataclass
class Discipline:
    name: str
    summary: str
    allowed: dict[str, set[str]]  # op-kind -> allowed orders
    cas_failure: set[str]
    line: int  # of its [disciplines.<name>] header in the config file


@dataclasses.dataclass
class Config:
    path: pathlib.Path  # the TOML file the disciplines came from
    disciplines: dict[str, Discipline]
    protocol_paths: list[str]
    exclude_paths: list[str]
    docs_file: str | None
    banned: list[dict]
    narrowing_paths: list[str]
    narrowing_hints: list[str]
    required_asserts: list[dict]
    trace_hotpath_paths: list[str]


def header_line(text: str, header: str) -> int:
    """1-based line of the first line that starts with `header`, else 1."""
    for number, line in enumerate(text.splitlines(), start=1):
        if line.startswith(header):
            return number
    return 1


def load_config(path: pathlib.Path) -> Config:
    try:
        text = path.read_text(encoding="utf-8")
        data = tomllib.loads(text)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise SystemExit(f"ppscan_lint: cannot read config {path}: {exc}")

    disciplines: dict[str, Discipline] = {}
    for name, spec in data.get("disciplines", {}).items():
        allowed = {}
        for op in ("load", "store", "rmw", "cas", "wait"):
            orders = set(spec.get(op, []))
            bad = orders - ORDER_NAMES
            if bad:
                raise SystemExit(
                    f"ppscan_lint: discipline {name}: unknown order(s) {bad}")
            allowed[op] = orders
        cas_failure = set(spec.get("cas_failure",
                                   allowed["cas"] | {"relaxed", "acquire"}))
        disciplines[name] = Discipline(
            name=name,
            summary=spec.get("summary", ""),
            allowed=allowed,
            cas_failure=cas_failure,
            line=header_line(text, f"[disciplines.{name}]"),
        )
    protocol = data.get("protocol", {})
    narrowing = data.get("narrowing", {})
    trace = data.get("trace", {})
    return Config(
        path=path,
        disciplines=disciplines,
        protocol_paths=protocol.get("paths", ["src/"]),
        exclude_paths=data.get("exclude_paths", []),
        docs_file=protocol.get("docs_file"),
        banned=data.get("banned", []),
        narrowing_paths=narrowing.get("paths", ["src/"]),
        narrowing_hints=narrowing.get(
            "hints", [r"\.size\s*\(\)", r"\bEdgeId\b", r"\bsize_t\b",
                      r"\buint64_t\b", r"\.num_arcs\s*\(\)"]),
        required_asserts=data.get("required_asserts", []),
        trace_hotpath_paths=trace.get("hotpath_paths", []),
    )


# --------------------------------------------------------------------------
# Declaration scan: atomic members and their protocol annotations
# --------------------------------------------------------------------------


@dataclasses.dataclass
class AtomicDecl:
    path: str
    line: int
    name: str
    kind: str  # "atomic" (std::atomic / unique_ptr<atomic[]>) | "wrapper"
    discipline: str | None  # None = unannotated


# Anchors for declarations whose type carries atomics. `unique_ptr<...>` is
# only kept when its template arguments mention std::atomic.
DECL_ANCHOR = re.compile(
    r"\b(?:std\s*::\s*)?(atomic|atomic_flag|unique_ptr|AtomicArray)\s*<")
IDENT = re.compile(r"[A-Za-z_]\w*")


def balance(code: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index one past the matching close bracket, or -1."""
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def find_decls(src: SourceFile) -> list[AtomicDecl]:
    decls: list[AtomicDecl] = []
    code = src.code
    for m in DECL_ANCHOR.finditer(code):
        head = m.group(1)
        lt = code.index("<", m.end() - 1)
        end = balance(code, lt, "<", ">")
        if end < 0:
            continue
        inner = code[lt:end]
        if head == "unique_ptr" and "atomic" not in inner:
            continue
        # Reject anchors that are themselves nested inside another template
        # argument list (e.g. the atomic< inside make_unique<...> or
        # unique_ptr<...> — the outer anchor reports the declaration).
        before = code[max(0, m.start() - 64):m.start()]
        if re.search(r"[<,]\s*(?:std\s*::\s*)?$", before):
            continue
        j = end
        while j < len(code) and code[j] in " \t\n*&":
            if code[j] in "*&":  # pointer/reference to atomic: not a member
                j = -1
                break
            j += 1
        if j < 0 or j >= len(code):
            continue
        ident = IDENT.match(code, j)
        if not ident:
            continue
        k = ident.end()
        while k < len(code) and code[k] in " \t\n":
            k += 1
        if k < len(code) and code[k] == "{":
            k = balance(code, k, "{", "}")
            if k < 0:
                continue
            while k < len(code) and code[k] in " \t\n":
                k += 1
        if k >= len(code) or code[k] not in ";=":
            continue  # function declaration, ctor call, etc.
        line = src.line_of(m.start())
        kind = "wrapper" if head == "AtomicArray" else "atomic"
        decls.append(AtomicDecl(src.path, line, ident.group(0), kind,
                                find_protocol_annotation(src, line)))
    return decls


def find_protocol_annotation(src: SourceFile, decl_line: int) -> str | None:
    """`protocol: <name>` trailing on the declaration line or in the
    contiguous comment block directly above it."""
    candidates = [decl_line]
    ln = decl_line - 1
    while ln > 0 and src.comments.get(ln):
        candidates.append(ln)
        ln -= 1
    for ln in candidates:
        m = re.search(r"protocol:\s*([A-Za-z0-9_\-]+)", src.comments.get(ln, ""))
        if m:
            return m.group(1)
    return None


# --------------------------------------------------------------------------
# Call-site scan: memory orders vs declared discipline
# --------------------------------------------------------------------------

OP_CALL = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|compare_exchange_strong|"
    r"compare_exchange_weak|compare_exchange|fetch_add|fetch_sub|fetch_or|"
    r"fetch_and|fetch_xor|wait)\s*\(")

# op -> (kind, 0-based index of the memory_order argument) per receiver kind
ORDER_ARG_ATOMIC = {
    "load": ("load", 0), "store": ("store", 1), "exchange": ("rmw", 1),
    "fetch_add": ("rmw", 1), "fetch_sub": ("rmw", 1), "fetch_or": ("rmw", 1),
    "fetch_and": ("rmw", 1), "fetch_xor": ("rmw", 1), "wait": ("wait", 1),
    "compare_exchange_strong": ("cas", 2), "compare_exchange_weak": ("cas", 2),
}
ORDER_ARG_WRAPPER = {
    "load": ("load", 1), "store": ("store", 2), "fetch_add": ("rmw", 2),
    "compare_exchange": ("cas", 3),
}
ORDER_TOKEN = re.compile(
    r"^(?:std\s*::\s*)?memory_order(?:_|\s*::\s*)"
    r"(relaxed|consume|acquire|release|acq_rel|seq_cst)$")


def receiver_before(code: str, dot: int) -> str | None:
    """Identifier owning the access chain ending at `dot` (the `.`/`->`),
    skipping one trailing [index] or () group: `data_[i].load`, `w->hb.load`."""
    i = dot - 1
    while i >= 0 and code[i] in " \t\n":
        i -= 1
    if i >= 0 and code[i] in ")]":
        close = code[i]
        open_ch = "(" if close == ")" else "["
        depth = 0
        while i >= 0:
            if code[i] == close:
                depth += 1
            elif code[i] == open_ch:
                depth -= 1
                if depth == 0:
                    i -= 1
                    break
            i -= 1
        while i >= 0 and code[i] in " \t\n":
            i -= 1
    end = i + 1
    while i >= 0 and (code[i].isalnum() or code[i] == "_"):
        i -= 1
    name = code[i + 1:end]
    return name if name else None


def split_args(argtext: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in argtext:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return args


def classify_order(arg: str | None, default: str) -> str:
    """Returns an order name, or 'dynamic' for a forwarded/non-literal order."""
    if arg is None:
        return default
    m = ORDER_TOKEN.match(arg.strip())
    return m.group(1) if m else "dynamic"


def check_call_sites(src: SourceFile, registry: dict[str, AtomicDecl],
                     cfg: Config) -> list[Finding]:
    findings: list[Finding] = []
    code = src.code
    for m in OP_CALL.finditer(code):
        op = m.group(1)
        recv = receiver_before(code, m.start())
        decl = registry.get(recv) if recv else None
        if decl is None or decl.discipline not in cfg.disciplines:
            continue
        disc = cfg.disciplines[decl.discipline]
        table = ORDER_ARG_WRAPPER if decl.kind == "wrapper" else ORDER_ARG_ATOMIC
        if op not in table:
            continue
        kind, order_idx = table[op]
        close = balance(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        args = split_args(code[m.end():close - 1])
        default = "relaxed" if decl.kind == "wrapper" else "seq_cst"
        line = src.line_of(m.start())
        if waived(src, line, "protocol-order"):
            continue

        def bad(kind_label: str, order: str, allowed: set[str]) -> None:
            findings.append(Finding(
                src.path, line, "protocol-order",
                f"{recv}.{op}: {kind_label} order '{order}' not allowed by "
                f"protocol '{disc.name}' (allowed: "
                f"{', '.join(sorted(allowed)) or 'none'})"))

        order = classify_order(
            args[order_idx] if len(args) > order_idx else None, default)
        allowed = disc.allowed[kind]
        if order == "dynamic":
            bad(kind, "<non-literal>", allowed)
        elif order not in allowed:
            bad(kind, order, allowed)
        if kind == "cas":
            if len(args) > order_idx + 1:
                fail = classify_order(args[order_idx + 1], default)
            else:
                # [atomics.types.operations]: the one-order CAS derives its
                # failure order from the success order (release -> relaxed,
                # acq_rel -> acquire, otherwise the same).
                fail = {"release": "relaxed", "acq_rel": "acquire"}.get(
                    order, order)
            if fail == "dynamic":
                bad("cas-failure", "<non-literal>", disc.cas_failure)
            elif fail not in disc.cas_failure:
                bad("cas-failure", fail, disc.cas_failure)
    return findings


# --------------------------------------------------------------------------
# Simple pattern rules: banned APIs, VertexId narrowing
# --------------------------------------------------------------------------


def check_banned(src: SourceFile, cfg: Config) -> list[Finding]:
    findings = []
    for rule in cfg.banned:
        if not path_in(src.path, rule.get("paths", ["src/"])):
            continue
        for m in re.finditer(rule["pattern"], src.code):
            line = src.line_of(m.start())
            if waived(src, line, "banned-api"):
                continue
            findings.append(Finding(src.path, line, "banned-api",
                                    f"{rule['name']}: {rule['message']}"))
    return findings


NARROW_CAST = re.compile(r"static_cast\s*<\s*VertexId\s*>\s*\(")


def check_narrowing(src: SourceFile, cfg: Config) -> list[Finding]:
    if not path_in(src.path, cfg.narrowing_paths):
        return []
    findings = []
    hints = [re.compile(h) for h in cfg.narrowing_hints]
    for m in NARROW_CAST.finditer(src.code):
        close = balance(src.code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        arg = src.code[m.end():close - 1]
        if not any(h.search(arg) for h in hints):
            continue
        line = src.line_of(m.start())
        if waived(src, line, "vertexid-narrowing"):
            continue
        findings.append(Finding(
            src.path, line, "vertexid-narrowing",
            "size-like value narrowed with a raw static_cast<VertexId>; use "
            "ppscan::checked_vertex_cast (util/types.hpp), which asserts the "
            "value is representable"))
    return findings


TRACE_MACRO = re.compile(r"\bPPSCAN_(?:TRACE|FAULT)_[A-Z0-9_]+\s*\(")


def check_trace_hotpath(src: SourceFile, cfg: Config) -> list[Finding]:
    """Trace hooks and fault points are banned from the configured hot
    paths. Even with PPSCAN_TRACE=OFF / PPSCAN_FAULTS=OFF the macros still
    evaluate to a statement, and with them ON the null-check + clock read
    (or the fault-registry lookup) lands inside per-element kernel loops
    whose cost model the paper's figures depend on. Instrument the *caller*
    (phase body / task wrapper), never the kernel."""
    if not path_in(src.path, cfg.trace_hotpath_paths):
        return []
    findings = []
    for m in TRACE_MACRO.finditer(src.code):
        line = src.line_of(m.start())
        # The macro's own definition site is not a use.
        line_start = src.code.rfind("\n", 0, m.start()) + 1
        if re.match(r"\s*#\s*define\b", src.code[line_start:m.start()]):
            continue
        if waived(src, line, "trace-hotpath"):
            continue
        findings.append(Finding(
            src.path, line, "trace-hotpath",
            "PPSCAN_TRACE_*/PPSCAN_FAULT_* macro in a trace-free hot path; "
            "record the event (or place the fault site) in the calling "
            "phase body instead (see docs/observability.md)"))
    return findings


# --------------------------------------------------------------------------
# Required order-constraint assertions (Algorithm 3 contract)
# --------------------------------------------------------------------------


def check_required_asserts(sources: dict[str, SourceFile],
                           cfg: Config) -> list[Finding]:
    findings = []
    for req in cfg.required_asserts:
        src = sources.get(req["file"])
        if src is None:
            findings.append(Finding(req["file"], 1, "order-assert",
                                    "file listed in [[required_asserts]] was "
                                    "not scanned (moved or deleted?)"))
            continue
        fn = req["function"]
        body = None
        body_line = 1
        for m in re.finditer(r"\b" + re.escape(fn) + r"\s*\(", src.code):
            close = balance(src.code, m.end() - 1, "(", ")")
            if close < 0:
                continue
            k = close
            while k < len(src.code) and src.code[k] in " \t\n":
                k += 1
            if k < len(src.code) and src.code[k] == "{":
                end = balance(src.code, k, "{", "}")
                if end > 0:
                    body = src.code[k:end]
                    body_line = src.line_of(m.start())
                    break
        if body is None:
            findings.append(Finding(
                req["file"], 1, "order-assert",
                f"function '{fn}' (with a body) not found; update "
                "[[required_asserts]] if it moved"))
            continue
        if not re.search(req["pattern"], body):
            findings.append(Finding(
                req["file"], body_line, "order-assert",
                f"'{fn}' must assert its order constraint "
                f"(pattern /{req['pattern']}/): {req.get('reason', '')}"))
    return findings


# --------------------------------------------------------------------------
# Docs completeness
# --------------------------------------------------------------------------


# A protocol-table row: `| `member` | `discipline` | ...`.
PROTOCOL_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*`[^`]+`\s*\|")


def check_docs(decls: list[AtomicDecl], cfg: Config,
               root: pathlib.Path) -> list[Finding]:
    if not cfg.docs_file:
        return []
    docs_path = root / cfg.docs_file
    if not docs_path.is_file():
        return [Finding(cfg.docs_file, 1, "protocol-docs",
                        "protocol docs file missing")]
    docs = docs_path.read_text(encoding="utf-8")
    findings = []
    for d in decls:
        if d.discipline and f"`{d.name}`" not in docs:
            findings.append(Finding(
                d.path, d.line, "protocol-docs",
                f"atomic member `{d.name}` is annotated but missing from the "
                f"protocol table in {cfg.docs_file}"))
    members = {d.name for d in decls if d.discipline}
    for number, line in enumerate(docs.splitlines(), start=1):
        row = PROTOCOL_ROW.match(line)
        if row and row.group(1) not in members:
            findings.append(Finding(
                cfg.docs_file, number, "protocol-stale",
                f"protocol table row `{row.group(1)}` names no annotated "
                "atomic member"))
    named = {d.discipline for d in decls}
    try:
        config_file = str(cfg.path.resolve().relative_to(root.resolve()))
    except ValueError:
        config_file = str(cfg.path)
    for name, discipline in cfg.disciplines.items():
        if name not in named:
            findings.append(Finding(
                config_file, discipline.line, "protocol-stale",
                f"discipline '{name}' is named by no `// protocol:` "
                "annotation"))
    return findings


# --------------------------------------------------------------------------
# Lock-discipline pass (lock_protocol.toml)
# --------------------------------------------------------------------------


@dataclasses.dataclass
class LockSpec:
    name: str
    level: int  # lower = acquired first (outermost); edges must go up
    summary: str


@dataclasses.dataclass
class LockConfig:
    paths: list[str]
    exclude_paths: list[str]
    docs_file: str | None
    locks: dict[str, LockSpec]
    hotpath_paths: list[str]
    hotpath_functions: list[dict]
    call_aliases: dict[str, str]  # macro name -> function it expands to


def load_lock_config(path: pathlib.Path) -> LockConfig:
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise SystemExit(f"ppscan_lint: cannot read lock config {path}: {exc}")
    locks: dict[str, LockSpec] = {}
    for spec in data.get("locks", []):
        name = spec["name"]
        if name in locks:
            raise SystemExit(f"ppscan_lint: lock config lists '{name}' twice")
        locks[name] = LockSpec(name=name, level=int(spec["level"]),
                               summary=spec.get("summary", ""))
    lock = data.get("lock", {})
    hotpath = data.get("hotpath", {})
    return LockConfig(
        paths=lock.get("paths", ["src/"]),
        exclude_paths=data.get("exclude_paths", []),
        docs_file=lock.get("docs_file"),
        locks=locks,
        hotpath_paths=hotpath.get("paths", []),
        hotpath_functions=data.get("hotpath_functions", []),
        call_aliases=data.get("call_aliases", {}),
    )


@dataclasses.dataclass
class LockDecl:
    path: str
    line: int
    name: str
    guarded: bool  # has a `// guards:` comment


@dataclasses.dataclass
class LockSite:
    """One acquisition: a CheckedLock declaration or an explicit .lock().
    The lock is treated as held from `offset` to the close of the innermost
    enclosing brace block (`scope_end`) — RAII lifetime, and a safe
    over-approximation for manual lock()/unlock() pairs."""

    path: str
    line: int
    offset: int
    scope_end: int
    name: str


@dataclasses.dataclass
class FuncDef:
    name: str
    line: int
    body_start: int  # offset of the opening '{'
    body_end: int  # one past the closing '}'
    requires: list[str]  # identifiers from PPSCAN_REQUIRES(...)


LOCK_DECL = re.compile(
    r"\b(?:ppscan\s*::\s*)?CheckedMutex\s+([A-Za-z_]\w*)\s*[;={]")
RAW_LOCK = re.compile(
    r"\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")
LOCK_GUARD_DECL = re.compile(r"\bCheckedLock\s+[A-Za-z_]\w*\s*\(")
LOCK_METHOD_CALL = re.compile(r"(?:\.|->)\s*lock\s*\(")
HOTPATH_LOCK = re.compile(
    r"\bCheckedMutex\b|\bCheckedLock\b|"
    r"\bstd\s*::\s*(?:recursive_|timed_|shared_)*mutex\b|"
    r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"(?:\.|->)\s*lock\s*\(")
# A call not reached through `.`/`->`/`::` — the receiver-less calls the
# intra-repo call graph is built from. Template-qualified calls (f<T>())
# are rare enough here to ignore; missing one only loses a may-acquire
# edge, never invents one.
CALL_SITE = re.compile(r"(?<![\w~.:>])([A-Za-z_]\w*)\s*\(")
# Unlike CALL_SITE this must accept `Class::name(` — qualified method
# definitions — so only a preceding word char or '~' blocks the match.
FUNC_ANCHOR = re.compile(r"(?<![\w~])(~?[A-Za-z_]\w*)\s*\(")
CPP_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "alignas", "throw", "new", "delete",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "assert", "defined", "do", "else", "case", "goto", "co_await",
    "co_return", "co_yield", "requires", "noexcept", "operator",
}
FUNC_SPECIFIERS = {"const", "noexcept", "override", "final", "mutable",
                   "volatile", "try", "constexpr", "inline"}


def find_guards_annotation(src: SourceFile, decl_line: int) -> bool:
    """`guards: <what>` trailing on the declaration line or in the
    contiguous comment block directly above it (mirrors `protocol:`)."""
    candidates = [decl_line]
    ln = decl_line - 1
    while ln > 0 and src.comments.get(ln):
        candidates.append(ln)
        ln -= 1
    return any(re.search(r"guards:\s*\S", src.comments.get(ln, ""))
               for ln in candidates)


def enclosing_scope_end(code: str, offset: int) -> int:
    """Offset of the '}' closing the innermost block containing `offset`
    (end of text if at namespace/file scope)."""
    depth = 0
    for i in range(offset, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(code)


def _skip_ctor_init_list(code: str, k: int) -> int:
    """From just after the ':' introducing a constructor initializer list,
    returns the offset of the body '{', or -1 if this isn't one."""
    n = len(code)
    while True:
        while k < n and code[k] in " \t\n":
            k += 1
        m = IDENT.match(code, k)
        if not m:
            return -1
        k = m.end()
        while True:  # qualified-id and template-argument tail
            while k < n and code[k] in " \t\n":
                k += 1
            if code.startswith("::", k):
                m = IDENT.match(code, k + 2)
                if not m:
                    return -1
                k = m.end()
                continue
            if k < n and code[k] == "<":
                k = balance(code, k, "<", ">")
                if k < 0:
                    return -1
                continue
            break
        if k >= n or code[k] not in "({":
            return -1
        k = balance(code, k, code[k], ")" if code[k] == "(" else "}")
        if k < 0:
            return -1
        while k < n and code[k] in " \t\n":
            k += 1
        if k < n and code[k] == ",":
            k += 1
            continue
        return k if k < n and code[k] == "{" else -1


def extract_functions(src: SourceFile) -> list[FuncDef]:
    """Function definitions (free functions, methods, constructors,
    destructors) by bare name: `name(params) specifiers... { body }`.
    Tolerates cv/ref/noexcept specifiers, PPSCAN_* attribute macros
    (capturing PPSCAN_REQUIRES arguments), and constructor initializer
    lists. Lambdas are not extracted — their acquisitions attribute to the
    enclosing named function, which is what the order checker wants."""
    code = src.code
    n = len(code)
    out: list[FuncDef] = []
    for m in FUNC_ANCHOR.finditer(code):
        name = m.group(1)
        if name in CPP_KEYWORDS:
            continue
        close = balance(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        k = close
        requires: list[str] = []
        body_start = -1
        while 0 <= k < n:
            while k < n and code[k] in " \t\n":
                k += 1
            if k >= n:
                break
            c = code[k]
            if c == "{":
                body_start = k
                break
            if c == ":":
                body_start = _skip_ctor_init_list(code, k + 1)
                break
            if c in "-&*>":  # ref-qualifiers, trailing-return arrows
                k += 1
                continue
            w = IDENT.match(code, k)
            if not w:
                break
            word = w.group(0)
            k2 = w.end()
            while k2 < n and code[k2] in " \t\n":
                k2 += 1
            if k2 < n and code[k2] == "(":
                pe = balance(code, k2, "(", ")")
                if pe < 0:
                    break
                if word == "PPSCAN_REQUIRES":
                    requires.extend(
                        re.findall(r"[A-Za-z_]\w*", code[k2 + 1:pe - 1]))
                k = pe
                continue
            if word in FUNC_SPECIFIERS or word.startswith("PPSCAN_"):
                k = w.end()
                continue
            break
        if body_start < 0:
            continue
        body_end = balance(code, body_start, "{", "}")
        if body_end < 0:
            continue
        out.append(FuncDef(name, src.line_of(m.start()), body_start,
                           body_end, requires))
    return out


def find_lock_sites(src: SourceFile, known: set[str]) -> list[LockSite]:
    sites: list[LockSite] = []
    code = src.code
    for m in LOCK_GUARD_DECL.finditer(code):
        close = balance(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        # Last identifier of the argument: `reg.registry_mu` -> registry_mu.
        idents = re.findall(r"[A-Za-z_]\w*", code[m.end():close - 1])
        if not idents:
            continue
        sites.append(LockSite(src.path, src.line_of(m.start()), m.start(),
                              enclosing_scope_end(code, m.start()),
                              idents[-1]))
    for m in LOCK_METHOD_CALL.finditer(code):
        recv = receiver_before(code, m.start())
        if recv and recv in known:
            sites.append(LockSite(src.path, src.line_of(m.start()), m.start(),
                                  enclosing_scope_end(code, m.start()), recv))
    sites.sort(key=lambda s: s.offset)
    return sites


def calls_in(code: str, begin: int, end: int, table: set[str],
             aliases: dict[str, str]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for m in CALL_SITE.finditer(code, begin, end):
        name = aliases.get(m.group(1), m.group(1))
        if name in table:
            out.append((name, m.start(1)))
    return out


def run_lock_lint(cfg: LockConfig, sources: dict[str, SourceFile],
                  root: pathlib.Path, check_docs_table: bool) -> list[Finding]:
    findings: list[Finding] = []
    lock_sources = [s for s in sources.values()
                    if path_in(s.path, cfg.paths)
                    and not path_in(s.path, cfg.exclude_paths)]

    # -- declarations, raw primitives ------------------------------------
    decls: list[LockDecl] = []
    for src in lock_sources:
        for m in LOCK_DECL.finditer(src.code):
            line = src.line_of(m.start())
            decls.append(LockDecl(src.path, line, m.group(1),
                                  find_guards_annotation(src, line)))
        for m in RAW_LOCK.finditer(src.code):
            line = src.line_of(m.start())
            if waived(src, line, "lock-raw"):
                continue
            findings.append(Finding(
                src.path, line, "lock-raw",
                f"raw std::{m.group(1)} is invisible to -Wthread-safety; "
                "use CheckedMutex/CheckedLock (util/thread_safety.hpp)"))

    by_name: dict[str, LockDecl] = {}
    for d in decls:
        src = sources[d.path]
        prior = by_name.get(d.name)
        if prior is not None:
            if not waived(src, d.line, "lock-ambiguous"):
                findings.append(Finding(
                    d.path, d.line, "lock-ambiguous",
                    f"mutex '{d.name}' is also declared at "
                    f"{prior.path}:{prior.line}; the lock-order checker "
                    "resolves locks by name — rename one of them"))
            continue
        by_name[d.name] = d
        if not d.guarded and not waived(src, d.line, "lock-unannotated"):
            findings.append(Finding(
                d.path, d.line, "lock-unannotated",
                f"CheckedMutex '{d.name}' has no `// guards:` comment "
                "naming the state it protects"))
        if d.name not in cfg.locks and not waived(src, d.line,
                                                  "lock-undeclared"):
            findings.append(Finding(
                d.path, d.line, "lock-undeclared",
                f"CheckedMutex '{d.name}' is not registered in "
                "tools/lint/lock_protocol.toml ([[locks]]); every mutex "
                "needs a lock-order level"))
    for name in sorted(set(cfg.locks) - set(by_name)):
        findings.append(Finding(
            "tools/lint/lock_protocol.toml", 1, "lock-undeclared",
            f"config registers lock '{name}' but no CheckedMutex with that "
            "name exists in the scanned tree (renamed or deleted?)"))

    # -- functions, acquisitions, may-acquire closure --------------------
    known = set(by_name) | set(cfg.locks)
    funcs_by_file = {s.path: extract_functions(s) for s in lock_sources}
    sites_by_file = {s.path: find_lock_sites(s, known) for s in lock_sources}

    table: dict[str, dict] = {}
    for src in lock_sources:
        for fn in funcs_by_file[src.path]:
            table.setdefault(fn.name, {"direct": set(), "callees": set()})
    site_owner: dict[tuple[str, int], str] = {}
    for src in lock_sources:
        funcs = funcs_by_file[src.path]
        for site in sites_by_file[src.path]:
            inner = None
            for fn in funcs:
                if fn.body_start <= site.offset < fn.body_end and (
                        inner is None or fn.body_start > inner.body_start):
                    inner = fn
            if inner is not None:
                table[inner.name]["direct"].add(site.name)
                site_owner[(src.path, site.offset)] = inner.name
    names = set(table)
    for src in lock_sources:
        for fn in funcs_by_file[src.path]:
            for callee, _ in calls_in(src.code, fn.body_start, fn.body_end,
                                      names, cfg.call_aliases):
                if callee != fn.name:
                    table[fn.name]["callees"].add(callee)
    # Functions are merged by bare name across the tree (no overload or
    # class resolution) — a conservative over-approximation: it can invent
    # may-acquire edges, never lose them.
    may: dict[str, set[str]] = {f: set(e["direct"]) for f, e in table.items()}
    changed = True
    while changed:
        changed = False
        for f, e in table.items():
            before = len(may[f])
            for c in e["callees"]:
                may[f] |= may[c]
            changed = changed or len(may[f]) != before

    # -- ordered-acquisition edges ---------------------------------------
    # (outer, inner, path, line, how)
    edges: list[tuple[str, str, str, int, str]] = []
    for src in lock_sources:
        sites = sites_by_file[src.path]
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                if b.offset >= a.scope_end:
                    break
                edges.append((a.name, b.name, src.path, b.line,
                              "nested acquisition"))
            for callee, off in calls_in(src.code, a.offset, a.scope_end,
                                        set(may), cfg.call_aliases):
                for inner_lock in may[callee]:
                    edges.append((a.name, inner_lock, src.path,
                                  src.line_of(off),
                                  f"call to {callee}() while held"))
        for fn in funcs_by_file[src.path]:
            reqs = sorted({t for t in fn.requires if t in known})
            if not reqs:
                continue
            for site in sites_by_file[src.path]:
                if fn.body_start <= site.offset < fn.body_end:
                    for r in reqs:
                        edges.append((r, site.name, src.path, site.line,
                                      f"inside {fn.name}() "
                                      f"[PPSCAN_REQUIRES({r})]"))
            for callee, off in calls_in(src.code, fn.body_start, fn.body_end,
                                        set(may), cfg.call_aliases):
                for inner_lock in may[callee]:
                    for r in reqs:
                        edges.append((r, inner_lock, src.path,
                                      src.line_of(off),
                                      f"call to {callee}() inside "
                                      f"{fn.name}() [PPSCAN_REQUIRES({r})]"))

    seen_edges: set[tuple[str, str, str, int]] = set()
    for outer, inner, path, line, how in edges:
        key = (outer, inner, path, line)
        if key in seen_edges:
            continue
        seen_edges.add(key)
        src = sources.get(path)
        if src is not None and waived(src, line, "lock-order"):
            continue
        lo = cfg.locks.get(outer)
        li = cfg.locks.get(inner)
        if lo is None or li is None:
            continue  # lock-undeclared already reported the missing level
        if outer == inner:
            findings.append(Finding(
                path, line, "lock-order",
                f"'{inner}' acquired while already held ({how}); "
                "CheckedMutex is not recursive — this self-deadlocks"))
        elif lo.level >= li.level:
            findings.append(Finding(
                path, line, "lock-order",
                f"lock-order inversion: '{inner}' (level {li.level}) "
                f"acquired while '{outer}' (level {lo.level}) is held "
                f"({how}); tools/lint/lock_protocol.toml requires strictly "
                "increasing levels"))

    # -- hot paths --------------------------------------------------------
    for src in lock_sources:
        if not path_in(src.path, cfg.hotpath_paths):
            continue
        for m in HOTPATH_LOCK.finditer(src.code):
            line = src.line_of(m.start())
            if waived(src, line, "lock-hotpath"):
                continue
            findings.append(Finding(
                src.path, line, "lock-hotpath",
                "mutex use in a lock-free hot path; the setops kernels and "
                "the executor claim path must stay blocking-free — move "
                "the lock to the calling phase body"))
    for spec in cfg.hotpath_functions:
        src = sources.get(spec["file"])
        if src is None:
            findings.append(Finding(
                spec["file"], 1, "lock-hotpath",
                "file listed in [[hotpath_functions]] was not scanned "
                "(moved or deleted?)"))
            continue
        banned = set(spec.get("functions", []))
        present = {f.name for f in funcs_by_file.get(spec["file"], [])}
        for want in sorted(banned - present):
            findings.append(Finding(
                spec["file"], 1, "lock-hotpath",
                f"function '{want}' listed in [[hotpath_functions]] not "
                "found; update tools/lint/lock_protocol.toml if it moved"))
        for site in sites_by_file.get(spec["file"], []):
            owner = site_owner.get((site.path, site.offset))
            if owner in banned and not waived(src, site.line, "lock-hotpath"):
                findings.append(Finding(
                    site.path, site.line, "lock-hotpath",
                    f"'{site.name}' acquired inside {owner}(), which is on "
                    "the lock-free executor claim path "
                    "([[hotpath_functions]]); hand the work to the phase "
                    "body instead"))

    # -- docs table -------------------------------------------------------
    if check_docs_table and cfg.docs_file:
        docs_path = root / cfg.docs_file
        if not docs_path.is_file():
            findings.append(Finding(cfg.docs_file, 1, "lock-docs",
                                    "lock docs file missing"))
        else:
            docs = docs_path.read_text(encoding="utf-8")
            if not re.search(r"(?im)^#+\s+mutexes and guards\b", docs):
                findings.append(Finding(
                    cfg.docs_file, 1, "lock-docs",
                    'missing the "Mutexes and guards" section the lock '
                    "table lives in"))
            for name in sorted(set(by_name) | set(cfg.locks)):
                if f"`{name}`" not in docs:
                    d = by_name.get(name)
                    findings.append(Finding(
                        d.path if d else cfg.docs_file,
                        d.line if d else 1, "lock-docs",
                        f"mutex `{name}` is missing from the Mutexes-and-"
                        f"guards table in {cfg.docs_file}"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h", ".cxx"}


def path_in(path: str, prefixes: list[str]) -> bool:
    for p in prefixes:
        base = p.rstrip("/")
        if path == base or path.startswith(base + "/"):
            return True
    return False


def collect_files(root: pathlib.Path, cfg: Config,
                  lock_cfg: LockConfig | None = None) -> list[pathlib.Path]:
    scopes = set(cfg.protocol_paths) | set(cfg.narrowing_paths) | \
        set(cfg.trace_hotpath_paths)
    for rule in cfg.banned:
        scopes |= set(rule.get("paths", ["src/"]))
    if lock_cfg is not None:
        scopes |= set(lock_cfg.paths) | set(lock_cfg.hotpath_paths)
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for scope in sorted(scopes):
        base = root / scope
        if not base.exists():
            continue
        candidates = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in candidates:
            if p.suffix not in SOURCE_SUFFIXES or p in seen:
                continue
            rel = str(p.relative_to(root))
            if path_in(rel, cfg.exclude_paths):
                continue
            seen.add(p)
            files.append(p)
    return files


def run_lint(cfg: Config, root: pathlib.Path,
             check_docs_table: bool = True,
             lock_cfg: LockConfig | None = None) -> list[Finding]:
    sources: dict[str, SourceFile] = {}
    for path in collect_files(root, cfg, lock_cfg):
        src = load_source(path, root)
        sources[src.path] = src

    findings: list[Finding] = []
    decls: list[AtomicDecl] = []
    for src in sources.values():
        if path_in(src.path, cfg.protocol_paths):
            decls.extend(find_decls(src))

    registry: dict[str, AtomicDecl] = {}
    for d in decls:
        src = sources[d.path]
        if d.discipline is None:
            if not waived(src, d.line, "protocol-missing"):
                findings.append(Finding(
                    d.path, d.line, "protocol-missing",
                    f"atomic member '{d.name}' has no `// protocol:` "
                    "annotation naming its ordering discipline"))
            continue
        if d.discipline not in cfg.disciplines:
            findings.append(Finding(
                d.path, d.line, "protocol-unknown",
                f"'{d.name}' names discipline '{d.discipline}', which "
                "atomics_protocol.toml does not define"))
            continue
        prior = registry.get(d.name)
        if prior and prior.discipline != d.discipline:
            findings.append(Finding(
                d.path, d.line, "protocol-ambiguous",
                f"'{d.name}' declared with discipline '{d.discipline}' here "
                f"but '{prior.discipline}' at {prior.path}:{prior.line}; "
                "call sites resolve by receiver name — rename one member"))
            continue
        registry[d.name] = d

    for src in sources.values():
        if path_in(src.path, cfg.protocol_paths):
            findings.extend(check_call_sites(src, registry, cfg))
        findings.extend(check_banned(src, cfg))
        findings.extend(check_narrowing(src, cfg))
        findings.extend(check_trace_hotpath(src, cfg))
    findings.extend(check_required_asserts(sources, cfg))
    if check_docs_table:
        findings.extend(check_docs(decls, cfg, root))
    if lock_cfg is not None:
        findings.extend(run_lock_lint(lock_cfg, sources, root,
                                      check_docs_table))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def verify_with_libclang(cfg: Config, root: pathlib.Path) -> int:
    """Optional cross-validation: every std::atomic field libclang sees must
    be in the tokenizer's declaration registry. Requires the clang python
    bindings; returns the number of declarations the tokenizer missed."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        print("ppscan_lint: libclang python bindings unavailable; "
              "skipping AST cross-validation (tokenizer engine is "
              "authoritative)", file=sys.stderr)
        return 0
    index = cindex.Index.create()
    missed = 0
    tokenizer_decls = set()
    for path in collect_files(root, cfg):
        src = load_source(path, root)
        if path_in(src.path, cfg.protocol_paths):
            for d in find_decls(src):
                tokenizer_decls.add((d.path, d.name))
    for path in collect_files(root, cfg):
        rel = str(path.relative_to(root))
        if not path_in(rel, cfg.protocol_paths) or path.suffix != ".hpp":
            continue
        tu = index.parse(str(path), args=["-std=c++20", f"-I{root}/src"])
        for cur in tu.cursor.walk_preorder():
            if cur.kind == cindex.CursorKind.FIELD_DECL and \
                    "atomic" in cur.type.spelling and \
                    cur.location.file and \
                    str(cur.location.file) == str(path):
                if (rel, cur.spelling) not in tokenizer_decls:
                    print(f"{rel}:{cur.location.line}: [libclang-verify] "
                          f"field '{cur.spelling}' missed by tokenizer",
                          file=sys.stderr)
                    missed += 1
    return missed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--config", default=None,
                        help="config TOML (default: tools/lint/"
                             "atomics_protocol.toml under --root)")
    parser.add_argument("--lock-config", default=None,
                        help="lock-discipline config TOML (default: tools/"
                             "lint/lock_protocol.toml under --root)")
    parser.add_argument("--no-docs-check", action="store_true",
                        help="skip the protocol-docs and lock-docs "
                             "completeness rules")
    parser.add_argument("--verify-with-libclang", action="store_true",
                        help="cross-validate the declaration scan with the "
                             "optional clang python bindings")
    args = parser.parse_args(argv)

    root = pathlib.Path(args.root).resolve()
    config_path = pathlib.Path(args.config) if args.config else \
        root / "tools" / "lint" / "atomics_protocol.toml"
    if not config_path.is_file():
        print(f"ppscan_lint: config not found: {config_path}", file=sys.stderr)
        return 2
    cfg = load_config(config_path)
    lock_config_path = pathlib.Path(args.lock_config) if args.lock_config \
        else root / "tools" / "lint" / "lock_protocol.toml"
    if not lock_config_path.is_file():
        print(f"ppscan_lint: lock config not found: {lock_config_path}",
              file=sys.stderr)
        return 2
    lock_cfg = load_lock_config(lock_config_path)

    findings = run_lint(cfg, root, check_docs_table=not args.no_docs_check,
                        lock_cfg=lock_cfg)
    for f in findings:
        print(f)
    if args.verify_with_libclang:
        if verify_with_libclang(cfg, root) > 0:
            return 1
    if findings:
        print(f"ppscan_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ppscan_lint: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
