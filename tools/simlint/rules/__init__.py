"""Built-in rule set.  Importing this package registers every rule."""

from tools.simlint.rules import (  # noqa: F401
    l1_assert,
    l2_l3_casts,
    l4_audit,
    l5_catch,
    l6_console,
    l7_determinism,
    l9_locks,
    l10_hot_alloc,
    l11_hot_maps,
    l12_hot_virtual,
    l13_hot_byvalue,
    l14_hot_io,
    l15_io_checked,
    l16_snapshot_complete,
    l17_page_geometry,
    l18_addr_escapes,
    l19_hot_modulo,
)
