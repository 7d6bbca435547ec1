#!/usr/bin/env python3
"""Fails when a vector kernel object exports anything but its kernel set.

simd_kernels_avx2.cc and simd_kernels_avx512.cc are each compiled for their
own ISA, and both instantiate the shared kernel bodies of
src/metric/simd_kernels_vector.h. Any function they define with global or
weak linkage (a non-template inline helper, a std:: function template
instantiated there and not inlined) is emitted once per object, and the
linker keeps one copy for every caller: an AVX-512 body could then run in
the AVX2 set, or an AVX2 body on a CPU without AVX2. So each of the two
objects in the metric archive may define exactly one such symbol, its
`*KernelSetImpl` accessor.

Runs `nm` over the archive and prints every offending symbol. An archive
without the ISA objects (a non-x86 build) passes with a note.

Usage:
  python3 tools/check_kernel_symbols.py [--nm NM] LIBFKC_METRIC_ARCHIVE
"""

import argparse
import re
import subprocess
import sys

ISA_OBJECTS = ("simd_kernels_avx2.cc.o", "simd_kernels_avx512.cc.o")
ALLOWED = re.compile(r"KernelSetImpl")
# nm's letters for symbols an object defines with global or weak binding:
# upper case is global (U, undefined, excepted), u is a unique global,
# i an indirect function, V/W weak (v/w are weak undefined).
EXPORTED = set("ABCDGIRSTVWiu")


def exported_symbols(nm, archive):
    """{object name: [(type, symbol)]} for the defined global and weak
    symbols of every member of `archive`."""
    out = subprocess.run([nm, archive], capture_output=True, text=True,
                         check=True).stdout
    members, current = {}, None
    for line in out.splitlines():
        header = re.match(r"^(\S+):$", line)
        if header:
            current = header.group(1)
            members[current] = []
            continue
        fields = line.split()
        if current is None or len(fields) < 2:
            continue
        kind, name = fields[-2], fields[-1]
        if kind in EXPORTED:
            members[current].append((kind, name))
    return members


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nm", default="nm")
    parser.add_argument("archive")
    args = parser.parse_args()
    members = exported_symbols(args.nm, args.archive)
    failed = False
    seen = 0
    for obj in ISA_OBJECTS:
        if obj not in members:
            continue
        seen += 1
        allowed = [s for _, s in members[obj] if ALLOWED.search(s)]
        extra = [(k, s) for k, s in members[obj] if not ALLOWED.search(s)]
        for kind, name in extra:
            print(f"{obj}: exports {kind} {name}")
            failed = True
        if len(allowed) != 1:
            print(f"{obj}: exports {len(allowed)} *KernelSetImpl symbols, "
                  "not 1")
            failed = True
    if seen == 0:
        print("no vector kernel objects in the archive; nothing to check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
