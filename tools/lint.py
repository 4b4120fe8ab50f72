#!/usr/bin/env python3
"""SPARTS custom lint: project-specific C++ rules the generic tools miss.

Rules (see docs/static_analysis.md):

  raw-assert      <assert.h> assert() is compiled out by NDEBUG and prints
                  no context.  Use SPARTS_CHECK (always on) or
                  SPARTS_DCHECK (debug-only) from common/error.hpp.
  naked-new       `new` outside a smart-pointer factory leaks on the first
                  exception.  Use std::make_unique / containers.
  untagged-send   A send with an integer-literal tag (src/ only).  The
                  solver's message-passing discipline requires every
                  in-flight message to have a unique (src, dst, tag), so
                  tags must come from a named scheme or constant that the
                  reader can audit — not from magic numbers.  Tests are
                  exempt: micro-programs use literal tags deliberately.
  raw-panel-copy  memcpy in solver code (src/ outside the exec/common
                  layers and the blessed pack/unpack helper
                  partrisolve/packets.cpp).  Panel and payload bytes move
                  through audited helpers so ProcStats::bytes_copied
                  stays truthful; an ad-hoc memcpy is an invisible copy.
  narrowing-cast  C-style casts to integer types hide narrowing and
                  signedness bugs.  Use static_cast, which clang-tidy and
                  -Wconversion can then reason about.
  raw-thread      std::thread constructed outside src/exec/ escapes the
                  exec contract: its failures bypass error_priority, its
                  work is invisible to RunStats and the tracer, and
                  nothing joins it on the error path.  All parallelism
                  goes through a backend (ThreadBackend, TaskBackend).
                  std::thread::hardware_concurrency() is fine — the rule
                  only matches the type, not its statics.
  raw-try-recv    Process::try_recv is the reliability envelope's polling
                  primitive (src/exec/reliable.cpp); algorithm code that
                  polls directly bypasses sequence numbering, dedup and the
                  retransmit protocol, silently forfeiting fault tolerance.
                  Outside src/exec/ (and the backends implementing the
                  primitive) use blocking recv(), and let the envelope poll.
                  Tests are exempt: they probe the primitive deliberately.
  raw-socket-call A socket syscall (::send/::recv/::shutdown on an fd,
                  unqualified connect/accept/bind/listen/setsockopt, or
                  socket(AF_...)) outside src/exec/wire.cpp.  Every byte
                  on the wire flows through wire::WireConn so framing,
                  CRC32C checksums, the SPARTS_CHAOS shim, and the
                  flight-recorder byte accounting stay complete; a naked
                  syscall is an unframed, unchecksummed, untraced side
                  channel.  tests/ is exempt (they attack the framing
                  over socketpairs deliberately); the rule guards src/
                  and tools/.
  default-seq-cst An atomic operation in src/exec/ or src/common/ without
                  an explicit memory_order argument defaults to seq_cst —
                  which reads as "unconsidered", not "strongest".  In the
                  concurrency kernel every ordering is an argument: spell
                  it (and wrap protocol-critical sites in SPARTS_MO /
                  SPARTS_MO_ADVISORY so the model checker's mutation sweep
                  covers them, docs/static_analysis.md).  Deliberate
                  seq_cst is std::memory_order_seq_cst, plus an allow()
                  suppression only if the order is intentionally implicit.

Suppress a finding by appending `// sparts-lint: allow(<rule>)` to the
offending line.

Usage:
  tools/lint.py            # lint src/ tools/ tests/ relative to the repo root
  tools/lint.py PATH...    # lint the given files or directories

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
No dependencies beyond the standard library.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# Each rule: (name, regex on the comment/string-stripped line, message,
# predicate on the repo-relative path).
RULES = [
    (
        "raw-assert",
        re.compile(r"\bassert\s*\("),
        "use SPARTS_CHECK / SPARTS_DCHECK instead of raw assert()",
        lambda rel: True,
    ),
    (
        "naked-new",
        re.compile(r"\bnew\b"),
        "use std::make_unique or a container instead of naked new",
        lambda rel: True,
    ),
    (
        "untagged-send",
        re.compile(
            r"(?:\.|->)\s*send(?:_values\s*<[^<>]*>)?\s*\("
            r"\s*[^,()]+,\s*[-+]?\d+\s*,"
        ),
        "message tag is an integer literal; derive tags from a named "
        "scheme or constant (unique (src, dst, tag) per in-flight message)",
        lambda rel: rel.parts[:1] == ("src",),
    ),
    (
        "raw-try-recv",
        re.compile(r"(?:\.|->)\s*try_recv\s*\("),
        "direct try_recv polling outside the exec layer bypasses the "
        "reliability envelope; use blocking recv()",
        lambda rel: rel.parts[:1] == ("src",)
        and rel.parts[:2] not in {("src", "exec"), ("src", "simpar")},
    ),
    (
        "raw-thread",
        re.compile(r"\bstd::thread\b(?!\s*::)"),
        "raw std::thread construction outside the exec layer; all "
        "parallelism must go through an exec backend (ThreadBackend, "
        "TaskBackend) so error propagation, stats, and shutdown stay "
        "uniform",
        # simpar::Machine is the simulated backend: like src/exec/ it
        # implements the contract rather than escaping it.
        lambda rel: rel.parts[:2] not in {("src", "exec"), ("src", "simpar")},
    ),
    (
        "raw-panel-copy",
        re.compile(r"\b(?:std::)?memcpy\s*\("),
        "raw memcpy in solver code: panel/payload bytes must move through "
        "the sanctioned helpers (partrisolve/packets.cpp packing, the "
        "send_owned zero-copy lane, vector moves) so every copy is "
        "visible in ProcStats::bytes_copied; ad-hoc memcpy reintroduces "
        "silent copies the stats cannot see",
        # The exec/common layers ARE the sanctioned machinery, and
        # packets.cpp is the one blessed pack/unpack site.
        lambda rel: rel.parts[:1] == ("src",)
        and rel.parts[:2] not in {("src", "exec"), ("src", "common")}
        and rel.parts != ("src", "partrisolve", "packets.cpp"),
    ),
    (
        "raw-socket-call",
        re.compile(
            # send/recv/shutdown are also Process/Comm METHOD names (and
            # unqualified self-calls inside the backends), so for those
            # only the explicitly ::-qualified syscall spelling counts.
            # The connection-setup calls have no method homonyms — and no
            # side channel opens without socket(AF_...) anyway, so the
            # setup calls are the real gate.
            r"::(?:send|recv|shutdown)\s*\(\s*\w+\s*,"
            r"|(?:(?<=::)|(?<![\w.>:]))"
            r"(?:sendto|recvfrom|connect|accept|bind|listen|"
            r"setsockopt|getsockopt)\s*\(\s*\w+\s*,"
            r"|\bsocket\s*\(\s*AF_|\bsocketpair\s*\(\s*AF_"
        ),
        "naked socket syscall outside src/exec/wire.cpp: every byte on the "
        "wire must flow through wire::WireConn so framing, CRC32C "
        "checksums, the chaos shim, and the flight-recorder accounting "
        "stay complete — a raw send/recv is an unframed, unchecksummed, "
        "untraced side channel",
        # wire.cpp IS the sanctioned syscall site; tests/ is exempt (they
        # drive socketpairs to attack the framing deliberately), and the
        # rule guards src/ and tools/ only.
        lambda rel: rel.parts[:1] in {("src",), ("tools",)}
        and rel.parts != ("src", "exec", "wire.cpp"),
    ),
    (
        "narrowing-cast",
        re.compile(
            r"\(\s*(?:int|long|short|unsigned|index_t|nnz_t|size_t|"
            r"std::size_t|std::u?int(?:8|16|32|64)_t)\s*\)\s*[A-Za-z_0-9(]"
        ),
        "C-style cast to an integer type; use static_cast",
        lambda rel: True,
    ),
]

SUPPRESS = re.compile(r"//\s*sparts-lint:\s*allow\(([a-z-]+)\)")

# ---------------------------------------------------------------------------
# default-seq-cst: a multi-line rule (the argument list of an atomic op can
# span lines), so it runs as its own pass over the comment-stripped text
# rather than through the per-line RULES table.
# ---------------------------------------------------------------------------

ATOMIC_OP = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|"
    r"fetch_and|compare_exchange_weak|compare_exchange_strong)\s*\("
)


def atomic_call_args(text: str, open_paren: int) -> str | None:
    """The argument substring of the call whose '(' is at open_paren, or
    None when the parens never balance (malformed / truncated input)."""
    depth = 0
    for i in range(open_paren, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : i]
    return None


def lint_default_seq_cst(
    rel: pathlib.Path, raw_lines: list[str], code_text: str
) -> list[str]:
    if rel.parts[:2] not in {("src", "exec"), ("src", "common")}:
        return []
    findings = []
    for m in ATOMIC_OP.finditer(code_text):
        args = atomic_call_args(code_text, m.end() - 1)
        if args is None:
            continue
        if "memory_order" in args or "SPARTS_MO" in args:
            continue
        lineno = code_text.count("\n", 0, m.start()) + 1
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if "default-seq-cst" in set(SUPPRESS.findall(raw)):
            continue
        findings.append(
            f"{rel}:{lineno}: [default-seq-cst] atomic {m.group(1)}() with "
            "an implicit (seq_cst) memory order; spell the order — and "
            "route protocol-critical sites through SPARTS_MO so the "
            "mutation sweep covers them"
        )
    return findings


def strip_comments_and_strings(text: str) -> str:
    """Replace comments and string/char literal bodies with spaces,
    preserving line structure so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail back to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def lint_file(path: pathlib.Path) -> list[str]:
    try:
        rel = path.resolve().relative_to(REPO_ROOT)
    except ValueError:
        rel = path
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    code_text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
    code_lines = code_text.splitlines()

    findings = []
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), start=1):
        allowed = set(SUPPRESS.findall(raw))
        for name, pattern, message, applies in RULES:
            if not applies(rel):
                continue
            if name in allowed:
                continue
            if pattern.search(code):
                findings.append(f"{rel}:{lineno}: [{name}] {message}")
    findings.extend(lint_default_seq_cst(rel, raw_lines, code_text))
    return findings


def collect_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files = []
    for p in paths:
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*")) if f.suffix in CXX_SUFFIXES
            )
        elif p.is_file():
            files.append(p)
        else:
            print(f"lint.py: no such file or directory: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories (default: src tools tests)")
    args = parser.parse_args()

    paths = args.paths or [REPO_ROOT / d for d in ("src", "tools", "tests")]
    files = collect_files(paths)

    findings = []
    for f in files:
        findings.extend(lint_file(f))

    for line in findings:
        print(line)
    print(
        f"lint.py: {len(files)} file(s), {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
