"""L16: snapshot completeness — save_state must cover every member."""

from __future__ import annotations

import re
from typing import List, Optional

from tools.simlint.cppparse import balanced_braces, class_bodies, depth0
from tools.simlint.model import Finding, Project
from tools.simlint.registry import rule

# A class opts into the snapshot contract by declaring (or overriding)
# save_state taking a SnapshotWriter.
SAVE_DECL_RE = re.compile(r"\bsave_state\s*\(\s*(?:moka\s*::\s*)?SnapshotWriter\b")

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


def _inline_body(body: str) -> Optional[str]:
    """save_state body when defined inside the class, else None."""
    m = SAVE_DECL_RE.search(body)
    if m is None:
        return None
    brace = body.find("{", m.end())
    semi = body.find(";", m.end())
    if brace == -1 or (semi != -1 and semi < brace):
        return None  # declaration only; defined out of line
    return balanced_braces(body, brace)


def _out_of_line_body(files, cls: str) -> Optional[str]:
    """Body of `Cls::save_state(...)` found anywhere under src/.

    Accepts an optional template argument list on the class head
    (`UpdateBuffer<AddrT>::save_state`) so templated components stay
    under the contract.
    """
    sig = re.compile(
        r"\b" + re.escape(cls) + r"\s*(?:<[^<>;{}]*>)?\s*::\s*save_state\s*\("
    )
    for sf in files:
        m = sig.search(sf.code)
        if m is None:
            continue
        brace = sf.code.find("{", m.end())
        if brace != -1:
            return balanced_braces(sf.code, brace)
    return None


@rule("L16", "snapshot completeness: save_state must serialize every member")
def check(project: Project) -> List[Finding]:
    """Every class that implements ``save_state(SnapshotWriter&)``
    must mention each of its non-static data members in that body (or
    in its out-of-line ``Cls::save_state`` definition) — whether
    serialized directly, delegated (``member->save_state(w)``), or
    folded into a helper call that names the member.

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
            if SAVE_DECL_RE.search(body) is None:
                continue
            members = _member_lines(body)
            if not members:
                continue
            save_text = _inline_body(body)
            if save_text is None:
                save_text = _out_of_line_body(files, name)
            if save_text is None:
                out.append(
                    Finding(
                        "L16",
                        sf.path,
                        cls_line,
                        f"`{name}` declares save_state(SnapshotWriter&) "
                        "but no definition is visible under src/; the "
                        "snapshot contract cannot be checked",
                    )
                )
                continue
            body_line = sf.code[: sf.code.index(body)].count("\n") + 1
            for member, line_off in members:
                decl_line = body_line + line_off
                if sf.annotated(decl_line, "LINT_SNAPSHOT_OK", lookback=1):
                    continue
                if re.search(r"\b" + re.escape(member) + r"\b", save_text):
                    continue
                out.append(
                    Finding(
                        "L16",
                        sf.path,
                        decl_line,
                        f"`{name}::{member}` is not serialized by "
                        "save_state; a restored run will diverge from a "
                        "straight-through one (annotate deliberate "
                        "omissions with LINT_SNAPSHOT_OK: <why>)",
                    )
                )
    return out
