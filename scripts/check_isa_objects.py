#!/usr/bin/env python3
"""Check that the per-ISA kernel objects export no shared code.

kernels_avx2.cpp and kernels_avx512.cpp are compiled with -mavx2 /
-mavx512*. Any weak (COMDAT) symbol they define — an inline function, a
template instance, an inline variable — can also be defined by a baseline
object, and the linker keeps whichever copy it sees first. If that copy is
the AVX one, baseline callers run AVX code on hosts without it, even under
FDEVOLVE_CPU_FEATURES=baseline. So these two archive members may define
only strong or local symbols; the one allowed weak symbol is the
exception-personality reference the compiler emits for any object with
unwind tables.

Usage:
    python3 scripts/check_isa_objects.py NM LIBFDEVOLVE_QUERY_A

Runs `NM -A --defined-only` over the archive and exits non-zero when a
per-ISA member defines a weak (W/w/V/v) or unique (u) symbol other than
DW.ref.__gxx_personality_v0, or when the archive holds no per-ISA member.
"""

import re
import subprocess
import sys

ISA_MEMBER = re.compile(r"kernels_avx(2|512)\.cpp\.o(bj)?$")
SHARED_TYPES = set("WwVvu")
ALLOWED = {"DW.ref.__gxx_personality_v0"}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    nm, archive = argv[1], argv[2]
    out = subprocess.run([nm, "-A", "--defined-only", archive],
                         check=True, capture_output=True, text=True).stdout
    members = set()
    bad = []
    for line in out.splitlines():
        # "<archive>:<member>:<address> <type> <name>"
        fields = line.split()
        if len(fields) < 3:
            continue
        location, sym_type, name = fields[0], fields[1], " ".join(fields[2:])
        parts = location.split(":")
        if len(parts) < 3 or not ISA_MEMBER.search(parts[-2]):
            continue
        members.add(parts[-2])
        if sym_type in SHARED_TYPES and name not in ALLOWED:
            bad.append(f"{parts[-2]}: {sym_type} {name}")
    if not members:
        print(f"FAIL: no kernels_avx*.cpp.o member in {archive}",
              file=sys.stderr)
        return 1
    if bad:
        print("FAIL: per-ISA kernel objects define shared symbols:",
              file=sys.stderr)
        for entry in bad:
            print("  " + entry, file=sys.stderr)
        return 1
    print(f"ok: {', '.join(sorted(members))} define no shared symbols")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
