"""L19: hot path — no vector<bool> and no runtime-divisor `%` or `/`."""

from __future__ import annotations

import re

from tools.simlint.hotpath import analyze, hot_function_at
from tools.simlint.lexer import line_of
from tools.simlint.model import Finding, Project
from tools.simlint.registry import rule

# std::vector<bool> declarations anywhere in a file with hot code.
VECBOOL_RE = re.compile(r"\b(?:std\s*::\s*)?vector\s*<\s*bool\s*>")

# `% divisor` or `/ divisor` where the divisor is a runtime value: a
# member (trailing underscore, possibly with a field access like
# `cfg_.entries`), a `.size()` call, or a plain lower-case
# local/parameter.  Divisors the compiler can strength-reduce itself --
# integer literals and constant-style names (kFoo, FOO, Foo) -- are
# deliberately excluded.  Group 1 is the operator, group 2 the divisor.
RUNTIME_MOD_RE = re.compile(
    r"([%/])\s*(?:\(\s*)?("
    r"[A-Za-z_]\w*(?:\s*\.\s*\w+|\s*->\s*\w+)*\s*\.\s*size\s*\(\s*\)"  # x.size()
    r"|\w+_\s*(?:\.\s*\w+|->\s*\w+)+"  # cfg_.entries, p_->rows
    r"|[a-z]\w*_\b"  # bare member: count_
    r"|[a-z]\w*\b(?!\s*\()"  # lower-case local, not a call
    r")"
)

# Names that look constant despite being lower-case free of underscore
# suffix would still be caught by the last alternative; filter the
# obvious constant spellings after the match instead.
CONST_NAME_RE = re.compile(r"^(?:k[A-Z]\w*|[A-Z][A-Z0-9_]*)$")

# A `/` whose divisor is cast to a floating-point type divides in the
# FPU, pipelined, and is not an integer division.
FLOAT_CAST_RE = re.compile(
    r"static_cast\s*<\s*(?:const\s+)?(?:long\s+)?(?:double|float)\s*>"
)


@rule("L19", "hot path: no vector<bool>, no runtime-divisor % or /")
def check(project: Project):
    """Two per-access-loop cost patterns that hide in plain sight.

    ``std::vector<bool>`` is a bit-packed proxy container: every
    element access pays a shift/mask through a proxy object, it
    cannot hand out real references or contiguous bytes, and
    auto-vectorization over it is poor.  Hot simulator state wants
    ``std::vector<std::uint8_t>`` (one byte per flag, directly
    addressable) or an explicit packed word with named bits.

    ``x % divisor`` and ``x / divisor`` with a *runtime* divisor
    compile to an integer division (20-90 cycles, unpipelined) on
    every access.  Set and ring indexing on per-access paths should
    precompute geometry at construction: a mask when the count is a
    power of two (``x & (n - 1)``), a shift for a power-of-two
    quotient (``x >> log2(n)``), a compare-wrap for ring advances
    (``if (++i == n) i = 0;``), a quotient computed once when both
    operands are fixed, or a shift plan like the DRAM channel/bank
    slicing.  Divisors the compiler already strength-reduces --
    literals and ``kConstant`` spellings -- are not flagged, nor is a
    ``/`` whose divisor is cast to ``double`` or ``float``, which is
    a floating-point division.

    Flags both patterns inside hot-reachable functions (and
    ``vector<bool>`` declarations anywhere in a file pair that has
    hot-reachable code, since the container poisons every later
    access).  For a genuine non-pow2 fallback kept next to the fast
    path, or an amortized sub-path where the division cannot recur
    per access, annotate with ``LINT_HOT_OK: <why>``.
    """
    out = []
    model = analyze(project)
    # Header/source pairing as in L7/L11: a member declared in foo.h
    # is hot-relevant when foo.cc (or the header itself) has hot code.
    hot_pairs = {
        (sf.path.parent, sf.path.stem)
        for sf in project.src_files()
        if sf.rel in model.spans
    }
    for sf in project.src_files():
        code = sf.code
        if (sf.path.parent, sf.path.stem) in hot_pairs:
            for m in VECBOOL_RE.finditer(code):
                no = line_of(code, m.start())
                if sf.annotated(no, "LINT_HOT_OK", lookback=4):
                    continue
                out.append(
                    Finding(
                        "L19",
                        sf.path,
                        no,
                        "std::vector<bool> in a hot file: bit-proxy "
                        "element access on the per-access path; use "
                        "std::vector<std::uint8_t> or a packed word — "
                        "or annotate `LINT_HOT_OK: <why not>`",
                    )
                )
        if sf.rel not in model.spans:
            continue
        for m in RUNTIME_MOD_RE.finditer(code):
            op, divisor = m.group(1), m.group(2)
            if CONST_NAME_RE.match(divisor):
                continue
            if op == "/" and FLOAT_CAST_RE.match(code, m.start(2)):
                continue
            no = line_of(code, m.start())
            d = hot_function_at(model, sf, no)
            if d is None or sf.annotated(no, "LINT_HOT_OK", lookback=4):
                continue
            out.append(
                Finding(
                    "L19",
                    sf.path,
                    no,
                    f"runtime-divisor `{op} {divisor}` in hot-reachable "
                    f"`{d.qual}` is an integer division per access; "
                    "precompute a mask, shift or compare-wrap at "
                    "construction — "
                    "or annotate `LINT_HOT_OK: <why not>`",
                )
            )
    return out
