#!/bin/sh
# Codegen gate for the DSE batch kernels (src/dse/batch_kernels.cc).
#
# The fast sweep's throughput rests on the compiler autovectorizing the
# SoA inner loops — a silent vectorization regression (a new branch, an
# aliasing pessimization, a changed loop shape) would not fail any
# correctness test, only quietly cost the ~5x sweep speedup. This
# script compiles the kernel translation unit exactly as the Release
# build does and fails unless the compiler reports a vectorized loop
# inside every hot kernel.
#
# Works with both GCC (-fopt-info-vec-optimized) and Clang
# (-Rpass=loop-vectorize); both emit `file:line:col: ... vectorized`
# remarks, which is all the parsing below relies on.
#
# Usage: tools/check_vectorization.sh   (CXX overrides the compiler)

set -eu

cd "$(dirname "$0")/.."
SRC=src/dse/batch_kernels.cc
CXX=${CXX:-g++}
REPORT=$(mktemp)
OBJ=$(mktemp)
trap 'rm -f "$REPORT" "$OBJ"' EXIT

case "$("$CXX" --version 2>/dev/null)" in
    *clang*) VEC_FLAGS="-Rpass=loop-vectorize" ;;
    *)       VEC_FLAGS="-fopt-info-vec-optimized" ;;
esac

# Same language/optimization surface as the Release build of the
# library; remarks go to stderr on both compilers.
"$CXX" -std=c++20 -O3 -I. $VEC_FLAGS -c "$SRC" -o "$OBJ" \
    2> "$REPORT" || {
    echo "check_vectorization: compile failed:" >&2
    cat "$REPORT" >&2
    exit 1
}

fail=0

# Require at least one vectorized-loop remark whose line number falls
# inside the kernel's definition (function name at column 0, body
# closed by a `}` at column 0 — the file's uniform style).
check_kernel() {
    fn=$1
    start=$(grep -n "^${fn}(" "$SRC" | head -n 1 | cut -d: -f1)
    if [ -z "$start" ]; then
        echo "FAIL: kernel ${fn} not found in ${SRC}" >&2
        fail=1
        return
    fi
    end=$(awk -v s="$start" 'NR > s && /^}/ { print NR; exit }' "$SRC")
    hits=$(grep "vectorized" "$REPORT" |
        awk -F: -v s="$start" -v e="$end" \
            '$1 ~ /batch_kernels\.cc$/ && $2 + 0 >= s && $2 + 0 <= e' |
        wc -l)
    if [ "$hits" -eq 0 ]; then
        echo "FAIL: no vectorized loop reported in ${fn}()" \
            "(${SRC}:${start}-${end})" >&2
        fail=1
    else
        echo "ok: ${fn}() — ${hits} vectorized loop(s)"
    fi
}

# The bandwidth-lane kernels. sweepFeasibleCounts is deliberately
# absent: its two-pointer walk is a data-dependent scan that no
# compiler vectorizes, and its win is algorithmic (O(n1+n2) probes),
# not SIMD.
check_kernel batchRuntimes
check_kernel batchFeasibleRow
check_kernel batchAdd
check_kernel batchAddValidWindow

if [ "$fail" -ne 0 ]; then
    echo "check_vectorization: FAILED — vectorization report follows:" >&2
    grep "vectorized" "$REPORT" >&2 || true
    exit 1
fi
echo "check_vectorization: all batch kernels vectorize"
