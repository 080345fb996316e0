/**
 * @file
 * Hot-path contract annotations. The simulator's throughput is set by
 * a handful of per-access functions (the access pipeline in
 * Machine::run, cache lookup/fill, prefetcher operate, the MOKA
 * filter decision, UpdateBuffer traffic). Marking them lets both the
 * compiler and the repo's static analyzer treat them specially:
 *
 *  - SIM_HOT marks a per-access root. Under GCC/Clang it expands to
 *    __attribute__((hot)) (optimize harder, cluster text); elsewhere
 *    it is inert. tools/simlint computes call-reachability from every
 *    SIM_HOT declaration over the whole tree and enforces the
 *    hot-path contract (rules L10-L14: no per-access heap
 *    allocation, no hash-map lookups where a flat structure fits, no
 *    non-devirtualizable virtual dispatch, no by-value passing of
 *    large structs, no formatting/IO) on everything reachable.
 *
 *  - SIM_COLD marks an amortized, cadence, or failure path that a hot
 *    function may call without dragging it into the contract
 *    (interval/epoch ticks, audit sweeps, error reporting). Under
 *    GCC/Clang it expands to __attribute__((cold)), which also moves
 *    the code out of the hot text; simlint stops its reachability
 *    traversal at any SIM_COLD declaration.
 *
 *  - SIM_INLINE forces a small helper of a SIM_HOT function inline
 *    where GCC's heuristics would leave the call out of line (in the
 *    LTO build, Cache::access's per-access helpers). It declares the
 *    function inline, so define it in every translation unit that
 *    calls it.
 *
 * Escape hatch: a justified violation inside hot-reachable code
 * carries a `LINT_HOT_OK: <why>` comment on or just above the line,
 * exactly like the LINT_NONDET_OK / LINT_ORDER_OK escapes of L7.
 * The justification should say why the cost is acceptable (amortized
 * by a cadence, bounded by a tiny structure, intrinsic to the model).
 *
 * See "Hot-path contract" in docs/ARCHITECTURE.md for how the
 * contract, the MOKASIM_ALLOC_TRACE interposer and the optreport
 * worklist (tools/optreport_tool.py) fit together.
 */
#ifndef MOKASIM_COMMON_HOT_PATH_H
#define MOKASIM_COMMON_HOT_PATH_H

#if defined(__GNUC__) || defined(__clang__)
#define SIM_HOT __attribute__((hot))
#define SIM_COLD __attribute__((cold))
#define SIM_INLINE __attribute__((always_inline)) inline
#else
#define SIM_HOT
#define SIM_COLD
#define SIM_INLINE inline
#endif

#endif  // MOKASIM_COMMON_HOT_PATH_H
