"""simlint — mokasim's repo-specific static analyzer.

Generic tooling (clang-tidy, -Wall -Wextra, -Wthread-safety) cannot
express the project's own correctness conventions; simlint enforces
them as a rule-plugin package:

  L1  no raw assert / <cassert> in src/ (use common/check.h)
  L2  no truncating casts of address expressions to <=32 bits
  L3  no narrow signed casts of address expressions
  L4  stateful components must be covered by src/audit/audit.cc
  L5  no bare catch (...) without classification
  L6  no raw console output in library code
  L7  determinism: no wall clocks / rand / unordered iteration or
      pointer-keyed ordering on result paths
  L9  concurrency: no bare std::mutex; SimMutex members must guard
      something (see common/thread_annotations.h)
  L10-L14, L19  hot-path cost: no per-access heap allocation, hash
      or tree maps, undevirtualizable dispatch, large by-value
      structs, formatting/I/O, vector<bool> or runtime-divisor modulo
  L15 store I/O: fwrite/fflush/fclose/rename results are checked
  L16 snapshot completeness: save_state covers every data member
  L17 page geometry only through the typed helpers
  L18 address-type .raw() escapes only at blessed seams

There is no L8: record structs derive their delta, snapshot and
fingerprint code from one visit_fields list (common/fields.h), whose
completeness the compiler checks.

Run from the repository root:

  python3 -m tools.simlint               # lint the repo
  python3 -m tools.simlint --explain L7  # what a rule means and why
  python3 -m tools.simlint --fix         # apply mechanical fixes
  python3 -m tools.simlint --root DIR    # lint another tree (fixtures)

Exit status is non-zero when any finding remains.
"""

from tools.simlint.api import lint, main  # noqa: F401

__all__ = ["lint", "main"]
