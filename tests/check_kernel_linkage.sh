#!/bin/sh
# Usage: check_kernel_linkage.sh <libbuffy.a> <nm> <objdump> <processor>
# simd_swar.cpp and simd_avx2.cpp compile one template body (DESIGN.md §15);
# only its anonymous namespace stops the linker from merging the baseline
# and -mavx2 instantiations. Fails on a non-local lanes_inl:: symbol, or a
# ymm instruction in the baseline SWAR object (x86 only).
set -eu
syms=$("$2" -C --defined-only "$1")
if printf '%s\n' "$syms" | grep 'lanes_inl::' | grep -E '^[0-9a-f]+ [A-Z] '; then
  echo "FAIL: lanes_inl:: symbols with external linkage"; exit 1
fi
case "$4" in x86_64 | amd64 | AMD64 | i?86) ;; *) exit 0 ;; esac
dis=$("$3" -d --no-show-raw-insn "$1")
swar=$(printf '%s\n' "$dis" | awk '/file format/ { m = $1 } m == "simd_swar.cpp.o:"')
[ -n "$swar" ] || { echo "FAIL: no simd_swar.cpp.o in $1"; exit 1; }
if printf '%s\n' "$swar" | grep -m 3 '%ymm'; then
  echo "FAIL: AVX instructions in the baseline SWAR kernel"; exit 1
fi
