#!/usr/bin/env bash
# Dead-code check: lists every strong mapp:: function that a library
# archive defines and that no production executable (mapp_cli, the
# examples, the bench_* binaries) links, minus the kept functions in
# tests/dead_symbols.allow. Exits 1, naming each function, if any is
# left, or if an allowlist entry is no longer a defined-but-unlinked
# function (so the list stays exact); exits 2 with the build log if the
# build fails.
#
# Usage: tests/dead_symbols.sh [build-dir]   (default: build-deadcode)
#
# The build directory must be new or one this script configured: it
# refuses (exit 2) a directory whose CMake cache holds other settings,
# since reconfiguring it would leave a later plain `cmake -B <dir>`
# building at -O0 with --gc-sections.
#
# The allowlist holds demangled GCC/libstdc++ (x86-64, C++11 ABI)
# signatures; under another compiler or standard library its entries
# read as stale.
#
# The build is Debug (-O0) on purpose: at -O2/-O3 a function inlined
# into every caller leaves no reference and looks dead. Each function
# gets its own section and the linker drops the unreferenced ones, so
# a symbol survives in an executable only if something reaches it.
set -euo pipefail
export LC_ALL=C

src=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-deadcode}
allow="$src/tests/dead_symbols.allow"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The build stays quiet unless it fails.
quiet() {
    if ! "$@" >"$work/build.log" 2>&1; then
        cat "$work/build.log"
        exit 2
    fi
}

cache="$build/CMakeCache.txt"
if [[ -f "$cache" ]] && ! {
    grep -qx 'CMAKE_BUILD_TYPE:STRING=Debug' "$cache" &&
        grep -qx 'CMAKE_CXX_FLAGS:STRING=-ffunction-sections' "$cache"
}; then
    echo "$build holds a build configured with other settings;" \
        "give a new directory (default: build-deadcode)" >&2
    exit 2
fi

exes=()
for f in "$src"/examples/*.cpp "$src"/bench/bench_*.cc; do
    exes+=("$(basename "${f%.*}")")
done
quiet cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=-ffunction-sections \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
quiet cmake --build "$build" -j 4 --target "${exes[@]}"

# Strong (T) mapp:: functions the archives define.
find "$build/src" -name 'lib*.a' -print0 |
    xargs -0 nm --defined-only |
    awk '$2 == "T" && $3 ~ /^_ZNK?4mapp/ { print $3 }' |
    sort -u >"$work/defined"

# Every symbol left in a production executable after --gc-sections.
for f in "$src"/examples/*.cpp "$src"/bench/bench_*.cc; do
    dir=$(basename "$(dirname "$f")")
    nm --defined-only "$build/$dir/$(basename "${f%.*}")"
done | awk '{ print $3 }' | sort -u >"$work/linked"

comm -23 "$work/defined" "$work/linked" | c++filt | sort -u >"$work/dead"
{ grep -v -e '^#' -e '^$' "$allow" || true; } | sort -u >"$work/allow"

status=0
while IFS= read -r fn; do
    echo "dead: $fn (no example or bench reaches it)"
    status=1
done < <(comm -23 "$work/dead" "$work/allow")
while IFS= read -r fn; do
    echo "stale allowlist entry: $fn (reached by a binary, or gone)"
    status=1
done < <(comm -13 "$work/dead" "$work/allow")
exit $status
