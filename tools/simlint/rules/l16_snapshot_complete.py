"""L16: snapshot completeness — serialize must name every member."""

from __future__ import annotations

import re
from typing import List, Optional

from tools.simlint.cppparse import balanced_braces, class_bodies, depth0
from tools.simlint.model import Finding, Project
from tools.simlint.registry import rule

# A class opts into the snapshot contract by declaring (or overriding)
# save_state taking a SnapshotWriter, or by declaring the one-body
# `serialize(Self &self, IO &io)` that save_state and restore_state
# share (snapshot/snapshot.h).
SAVE_DECL_RE = re.compile(r"\bsave_state\s*\(\s*(?:moka\s*::\s*)?SnapshotWriter\b")
SERIALIZE_DECL_RE = re.compile(r"\bserialize\s*\(\s*Self\s*&")

# Lines that declare something other than a data member. Tested on
# the *stripped* line, separately from the member match, so regex
# backtracking through leading whitespace cannot skip the keyword
# check and let friend/static declarations through.
NON_MEMBER_RE = re.compile(
    r"(?:using|typedef|friend|static|enum|struct|class"
    r"|public|private|protected|template|return|case)\b"
)

# One whole depth-0 line declaring a data member: `Type name_;` with
# an optional initializer. Per line (no spanning), so the reported
# line number is exact.
MEMBER_DECL_RE = re.compile(
    r"[\w:<>,&*\s]+?[\s&*](\w+)(?:\s*=\s*[^;]*|\s*\{[^;]*\})?\s*;$"
)


def _member_lines(body: str):
    """(name, line offset within body) of single-line data members."""
    out = []
    for off, line in enumerate(depth0(body).split("\n")):
        stripped = line.strip()
        if "(" in stripped or ")" in stripped:
            continue  # function declaration, not a data member
        if NON_MEMBER_RE.match(stripped):
            continue
        m = MEMBER_DECL_RE.fullmatch(stripped)
        if m is not None:
            out.append((m.group(1), off))
    return out


def _annotated(sf, line: int) -> bool:
    """LINT_SNAPSHOT_OK on the member's own line, or on a comment line
    directly above it. A trailing annotation on the previous member's
    line covers that member only."""
    lines = sf.raw_lines
    if "LINT_SNAPSHOT_OK" in lines[line - 1]:
        return True
    above = lines[line - 2].strip() if line >= 2 else ""
    return above.startswith("//") and "LINT_SNAPSHOT_OK" in above


def _definition(code: str, start: int) -> Optional[str]:
    """Function body after a signature ending at @p start, or None
    when the signature is only a declaration (or an explicit
    instantiation)."""
    brace = code.find("{", start)
    semi = code.find(";", start)
    if brace == -1 or (semi != -1 and semi < brace):
        return None
    return balanced_braces(code, brace)


def _inline_body(body: str, decl_re: re.Pattern) -> Optional[str]:
    """Body of the function @p decl_re matches when defined inside
    the class, else None."""
    m = decl_re.search(body)
    return None if m is None else _definition(body, m.end())


def _out_of_line_body(files, cls: str, func: str) -> Optional[str]:
    """Body of `Cls::func(...)` found anywhere under src/.

    Accepts an optional template argument list on the class head
    (`UpdateBuffer<AddrT>::serialize`) so templated components stay
    under the contract, and skips explicit instantiations.
    """
    sig = re.compile(
        r"\b" + re.escape(cls) + r"\s*(?:<[^<>;{}]*>)?\s*::\s*"
        + func + r"\s*\("
    )
    for sf in files:
        for m in sig.finditer(sf.code):
            text = _definition(sf.code, m.end())
            if text is not None:
                return text
    return None


def _field_list(files, name: str, body: str):
    """(function, body) that names the class's fields: its serialize,
    or a hand-written save_state where the class has no serialize.
    The body is None when no definition is visible."""
    func, decl_re = (
        ("serialize", SERIALIZE_DECL_RE)
        if SERIALIZE_DECL_RE.search(body)
        else ("save_state", SAVE_DECL_RE)
    )
    text = _inline_body(body, decl_re)
    if text is None:
        text = _out_of_line_body(files, name, func)
    return func, text


@rule("L16", "snapshot completeness: serialize must name every member")
def check(project: Project) -> List[Finding]:
    """Every class that implements ``save_state(SnapshotWriter&)`` or
    declares the one-body ``serialize(Self &self, IO &io)`` must
    mention each of its non-static data members in the body that
    names its fields: ``serialize`` (in the class or out of line as
    ``Cls::serialize``), or a hand-written ``save_state`` where the
    class has no ``serialize``. A member counts when it is serialized
    directly, delegated (``field(io, *self.inner_)``), or folded into
    a helper call that names it.

    Why: a member silently missing from save_state is exactly the bug
    the snapshot subsystem's byte-identity guarantee cannot tolerate —
    the restored run diverges from the straight-through run only under
    workloads that exercise the forgotten state, which is the worst
    possible way to find out.  Annotate a member that is deliberately
    *not* serialized (config mirrors, caches rebuilt on demand, pure
    scratch) with ``LINT_SNAPSHOT_OK: <why>`` on or just above its
    declaration.
    """
    out: List[Finding] = []
    files = project.src_files()
    for sf in files:
        for name, body, cls_line in class_bodies(sf.code):
            if (
                SAVE_DECL_RE.search(body) is None
                and SERIALIZE_DECL_RE.search(body) is None
            ):
                continue
            members = _member_lines(body)
            if not members:
                continue
            func, save_text = _field_list(files, name, body)
            if save_text is None:
                out.append(
                    Finding(
                        "L16",
                        sf.path,
                        cls_line,
                        f"`{name}` declares {func} but no definition is "
                        "visible under src/; the snapshot contract cannot "
                        "be checked",
                    )
                )
                continue
            body_line = sf.code[: sf.code.index(body)].count("\n") + 1
            for member, line_off in members:
                decl_line = body_line + line_off
                if _annotated(sf, decl_line):
                    continue
                if re.search(r"\b" + re.escape(member) + r"\b", save_text):
                    continue
                out.append(
                    Finding(
                        "L16",
                        sf.path,
                        decl_line,
                        f"`{name}::{member}` is not named by {func}; a "
                        "restored run will diverge from a "
                        "straight-through one (annotate deliberate "
                        "omissions with LINT_SNAPSHOT_OK: <why>)",
                    )
                )
    return out
