"""L15: store I/O — check fwrite/fflush/fclose/rename results."""

from __future__ import annotations

import re
from typing import List

from tools.simlint.lexer import line_of
from tools.simlint.model import Finding, Project
from tools.simlint.registry import rule

# Calls whose return value reports the write actually landing.  The
# optional std:: prefix matches both spellings; the manual lookbehind
# in check() keeps `fs::rename` and `my_fclose` from matching.
IO_RE = re.compile(r"(?:std\s*::\s*)?\b(fwrite|fflush|fclose|rename)\s*\(")

# A call preceded by one of these characters feeds its result into an
# expression (comparison, assignment, condition, argument, boolean
# chain) — i.e. somebody is looking at it.
_CONSUMING = set("=(,&|!<>^?:+*/%-")

_WORD = re.compile(r"[A-Za-z0-9_]")


def _consumed(code: str, start: int) -> bool:
    """True when the call at ``code[start:]`` has its result used."""
    i = start - 1
    while i >= 0 and code[i].isspace():
        i -= 1
    if i < 0:
        return False
    ch = code[i]
    if ch in _CONSUMING:
        return True
    if _WORD.match(ch):
        j = i
        while j >= 0 and _WORD.match(code[j]):
            j -= 1
        return code[j + 1 : i + 1] in ("return", "co_return")
    return False  # ; { } ) — statement position, result dropped


# The file layer under both content-addressed stores (the warmup
# snapshot cache and the job result store read, publish and lease
# through it), plus the job engine, whose fault tools rewrite trace
# files (corrupt_trace_file).
SCOPE = ("src/snapshot/store_file.", "src/sim/jobs/")


@rule("L15", "store I/O: check fwrite/fflush/fclose/rename results")
def check(project: Project) -> List[Finding]:
    """The store file layer (src/snapshot/store_file.{h,cc}) is the
    crash-safety boundary: a rerun trusts every result and warmup file
    it finds, and a farm trusts every lease.  An
    fwrite/fflush/fclose/rename whose result is dropped turns disk-full
    or a short write into a published partial file — the fault
    StoreFile.PublishOverFileSizeLimitLeavesNoFile provokes with
    RLIMIT_FSIZE.  The job engine (src/sim/jobs/) sits on top of it
    and writes files of its own (corrupt_trace_file), so it is held to
    the same rule.

    The rule flags statement-position calls (result discarded) in those
    files.  Results fed into a comparison, assignment, condition,
    argument or `return` are fine.  A close that genuinely cannot lose
    data (read-only stream) takes `LINT_IO_OK: <why>`.
    """
    out: List[Finding] = []
    for sf in project.src_files():
        if not sf.rel.startswith(SCOPE):
            continue
        code = sf.code
        for m in IO_RE.finditer(code):
            if m.start() > 0 and (
                _WORD.match(code[m.start() - 1])
                or code[m.start() - 1] in ".:>"
            ):
                continue  # member/qualified/longer name, not libc's
            if _consumed(code, m.start()):
                continue
            no = line_of(code, m.start())
            if sf.annotated(no, "LINT_IO_OK"):
                continue
            out.append(
                Finding(
                    "L15",
                    sf.path,
                    no,
                    f"`{m.group(1)}` result discarded in store or "
                    "engine I/O; check it (disk-full and torn writes are "
                    "tested here) or annotate `LINT_IO_OK: <why>`",
                )
            )
    return out
