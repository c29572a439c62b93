#!/usr/bin/env bash
# Wall-clock benchmark baseline for the simulation kernel.
#
# Runs the google-benchmark microbenches (bench_simkernel) plus wall-clock
# timings of two end-to-end virtual-time harnesses (bench_fig3_micro,
# bench_bft_e2e), and writes one JSON document to stdout or $2. Re-run on
# the same machine before/after a kernel change and diff the two files;
# BENCH_PR2.json in the repo root holds the PR-2 before/after pair.
#
# Usage: scripts/bench.sh [build-dir] [out.json]
#        scripts/bench.sh ab <base-build-dir> <head-build-dir> [out.json]
#        scripts/bench.sh pop <build-dir> [out.json]
#   build-dir: configured build tree (default: ./build).
#   out.json:  output path (default: stdout).
#
# Wall-clock methodology: this box is noisy (shared cores, coarse timer
# tick), so each end-to-end harness runs $RUBIN_BENCH_REPS times (default
# 5) and reports the *minimum* — the run least disturbed by neighbours.
# The google-benchmark side already does its own repetition internally.
#
# A/B mode: compares two build trees of the same benchmarks (e.g. main vs
# a perf branch). Runs are *interleaved* — base, head, base, head, … with
# the order flipped every repetition — so slow drift in machine load hits
# both sides equally instead of biasing whichever ran second. Reports the
# best of $RUBIN_BENCH_REPS per side (BM_RdmaChannelEcho items/sec and
# bench_bft_e2e wall seconds) plus head/base ratios. BENCH_PR3.json in
# the repo root holds the PR-3 zero-copy before/after pair.
#
# POP mode: SRQ vs per-QP A/B of the SAME binary (bench_population_scaling
# --wall srq / --wall perqp, $RUBIN_POP_CLIENTS clients, default 10000),
# interleaved like ab mode. The two sides run *different* receive
# provisioning, so their numbers legitimately differ; the determinism
# contract here is per side — every rep of a side must print an identical
# pop_wall line (virtual time is a pure function of the scenario). The
# script reports wall seconds and server receive-state bytes/connection
# per side plus the srq/perqp memory ratio. BENCH_PR9.json holds the PR-9
# pair.
set -eu

cd "$(dirname "$0")/.."

# ---------------------------------------------------------------- pop mode ---

if [ "${1:-}" = "pop" ]; then
  DIR="${2:?bench.sh pop: missing build dir}"
  OUT="${3:-}"
  REPS="${RUBIN_BENCH_REPS:-5}"
  CLIENTS="${RUBIN_POP_CLIENTS:-10000}"
  BIN="$DIR/bench/bench_population_scaling"
  [ -x "$BIN" ] || {
    echo "bench.sh pop: missing $BIN — build it first:" >&2
    echo "  cmake --build $DIR --target bench_population_scaling" >&2
    exit 1
  }

  TMP=$(mktemp -d)
  trap 'rm -rf "$TMP"' EXIT

  run_pop_side() { # $1=side-name (also the --wall mode arg)
    start=$(date +%s.%N)
    "$BIN" --wall "$1" --clients "$CLIENTS" > "$TMP/$1.last" 2>/dev/null
    end=$(date +%s.%N)
    awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f\n", b - a }' \
      >> "$TMP/$1.wall"
    grep '^pop_wall ' "$TMP/$1.last" >> "$TMP/$1.lines"
  }

  i=0
  while [ "$i" -lt "$REPS" ]; do
    if [ $((i % 2)) -eq 0 ]; then
      run_pop_side srq; run_pop_side perqp
    else
      run_pop_side perqp; run_pop_side srq
    fi
    i=$((i + 1))
  done

  # Per-side determinism: a side's virtual-time output must be identical
  # on every rep. (The sides differ from each other by design.)
  for side in srq perqp; do
    if [ "$(sort -u "$TMP/$side.lines" | wc -l)" -ne 1 ]; then
      echo "bench.sh pop: VIRTUAL OUTPUT DIVERGED across $side reps:" >&2
      sort -u "$TMP/$side.lines" >&2
      exit 1
    fi
  done

  pop_field() { # $1=side $2=field-name — value from the pop_wall line
    sort -u "$TMP/$1.lines" | grep -o "$2=[0-9.]*" | sed "s/$2=//"
  }

  SRQ_S=$(sort -n "$TMP/srq.wall" | head -1)
  PERQP_S=$(sort -n "$TMP/perqp.wall" | head -1)
  SRQ_BPC=$(pop_field srq srv_bytes_per_conn)
  PERQP_BPC=$(pop_field perqp srv_bytes_per_conn)

  JSON=$(
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "host": "%s",\n' "$(uname -srm)"
    printf '  "host_cores": %s,\n' "$(nproc 2>/dev/null || echo 1)"
    printf '  "mode": "interleaved-pop-ab",\n'
    printf '  "reps": %s,\n' "$REPS"
    printf '  "build_dir": "%s",\n' "$DIR"
    printf '  "clients": %s,\n' "$CLIENTS"
    printf '  "per_side_output_identical_across_reps": true,\n'
    printf '  "srq": {\n'
    printf '    "wall_seconds": %s,\n' "$SRQ_S"
    printf '    "virtual_rps": %s,\n' "$(pop_field srq virtual_rps)"
    printf '    "p99_us": %s,\n' "$(pop_field srq p99_us)"
    printf '    "server_recv_bytes_per_conn": %s\n' "$SRQ_BPC"
    printf '  },\n'
    printf '  "perqp": {\n'
    printf '    "wall_seconds": %s,\n' "$PERQP_S"
    printf '    "virtual_rps": %s,\n' "$(pop_field perqp virtual_rps)"
    printf '    "p99_us": %s,\n' "$(pop_field perqp p99_us)"
    printf '    "server_recv_bytes_per_conn": %s\n' "$PERQP_BPC"
    printf '  },\n'
    printf '  "srq_over_perqp_recv_bytes_per_conn": %s\n' \
      "$(awk -v a="$SRQ_BPC" -v b="$PERQP_BPC" 'BEGIN { printf "%.4f", a / b }')"
    printf '}\n'
  )

  if [ -n "$OUT" ]; then
    printf '%s\n' "$JSON" >"$OUT"
    echo "bench.sh: wrote $OUT" >&2
  else
    printf '%s\n' "$JSON"
  fi
  exit 0
fi

# ---------------------------------------------------------------- A/B mode ---

if [ "${1:-}" = "ab" ]; then
  BASE_DIR="${2:?bench.sh ab: missing base build dir}"
  HEAD_DIR="${3:?bench.sh ab: missing head build dir}"
  OUT="${4:-}"
  REPS="${RUBIN_BENCH_REPS:-5}"
  MIN_TIME="${RUBIN_BENCH_MIN_TIME:-0.1}"

  for d in "$BASE_DIR" "$HEAD_DIR"; do
    for bin in "$d/bench/bench_simkernel" "$d/bench/bench_bft_e2e"; do
      [ -x "$bin" ] || { echo "bench.sh ab: missing $bin" >&2; exit 1; }
    done
  done

  # Per-side accumulators: best (max) items/sec per echo size, best (min)
  # wall seconds for the e2e bench. Plain files so the loop stays POSIX.
  TMP=$(mktemp -d)
  trap 'rm -rf "$TMP"' EXIT

  run_side() { # $1=side-name $2=build-dir
    side="$1"; dir="$2"
    "$dir/bench/bench_simkernel" --benchmark_filter='BM_RdmaChannelEcho' \
      --benchmark_min_time="$MIN_TIME" --benchmark_format=csv 2>/dev/null |
      grep '^"BM_' | awk -F, -v f="$TMP/$side.echo" '
        { gsub(/"/, "", $1); print $1, $7 >> f }'
    start=$(date +%s.%N)
    "$dir/bench/bench_bft_e2e" >/dev/null 2>&1
    end=$(date +%s.%N)
    awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f\n", b - a }' \
      >> "$TMP/$side.e2e"
  }

  i=0
  while [ "$i" -lt "$REPS" ]; do
    if [ $((i % 2)) -eq 0 ]; then
      run_side base "$BASE_DIR"; run_side head "$HEAD_DIR"
    else
      run_side head "$HEAD_DIR"; run_side base "$BASE_DIR"
    fi
    i=$((i + 1))
  done

  best_echo() { # $1=side $2=bench-name — max items/sec across reps
    awk -v n="$2" '$1 == n && ($2 + 0 > best) { best = $2 + 0 }
                   END { printf "%.0f", best }' "$TMP/$1.echo"
  }
  best_e2e() { # $1=side — min wall seconds across reps
    sort -n "$TMP/$1.e2e" | head -1
  }

  ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", a / b }'; }

  B1K=$(best_echo base 'BM_RdmaChannelEcho/1024')
  B64K=$(best_echo base 'BM_RdmaChannelEcho/65536')
  H1K=$(best_echo head 'BM_RdmaChannelEcho/1024')
  H64K=$(best_echo head 'BM_RdmaChannelEcho/65536')
  BE2E=$(best_e2e base)
  HE2E=$(best_e2e head)

  JSON=$(
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "host": "%s",\n' "$(uname -srm)"
    printf '  "mode": "interleaved-ab",\n'
    printf '  "reps": %s,\n' "$REPS"
    printf '  "base_build_dir": "%s",\n' "$BASE_DIR"
    printf '  "head_build_dir": "%s",\n' "$HEAD_DIR"
    printf '  "base": {\n'
    printf '    "rdma_channel_echo_1k_items_per_second": %s,\n' "$B1K"
    printf '    "rdma_channel_echo_64k_items_per_second": %s,\n' "$B64K"
    printf '    "bft_e2e_wall_seconds": %s\n' "$BE2E"
    printf '  },\n'
    printf '  "head": {\n'
    printf '    "rdma_channel_echo_1k_items_per_second": %s,\n' "$H1K"
    printf '    "rdma_channel_echo_64k_items_per_second": %s,\n' "$H64K"
    printf '    "bft_e2e_wall_seconds": %s\n' "$HE2E"
    printf '  },\n'
    printf '  "head_over_base": {\n'
    printf '    "rdma_channel_echo_1k": %s,\n' "$(ratio "$H1K" "$B1K")"
    printf '    "rdma_channel_echo_64k": %s,\n' "$(ratio "$H64K" "$B64K")"
    printf '    "bft_e2e_wall_speedup": %s\n' "$(ratio "$BE2E" "$HE2E")"
    printf '  }\n'
    printf '}\n'
  )

  if [ -n "$OUT" ]; then
    printf '%s\n' "$JSON" >"$OUT"
    echo "bench.sh: wrote $OUT" >&2
  else
    printf '%s\n' "$JSON"
  fi
  exit 0
fi
BUILD_DIR="${1:-build}"
OUT="${2:-}"
REPS="${RUBIN_BENCH_REPS:-5}"
MIN_TIME="${RUBIN_BENCH_MIN_TIME:-0.1}" # plain seconds; old benchmark
                                        # releases reject a "s" suffix

SIMKERNEL="${BUILD_DIR}/bench/bench_simkernel"
for bin in "$SIMKERNEL" "${BUILD_DIR}/bench/bench_fig3_micro" \
  "${BUILD_DIR}/bench/bench_bft_e2e"; do
  if [ ! -x "$bin" ]; then
    echo "bench.sh: missing $bin — build it first:" >&2
    echo "  cmake --build ${BUILD_DIR} --target bench_simkernel bench_fig3_micro bench_bft_e2e" >&2
    exit 1
  fi
done

# Seconds-with-fraction wall clock around one command, best of $REPS.
wall_min() {
  best=""
  for _ in $(seq "$REPS"); do
    start=$(date +%s.%N)
    "$@" >/dev/null 2>&1
    end=$(date +%s.%N)
    elapsed=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
    if [ -z "$best" ] || awk -v e="$elapsed" -v b="$best" \
      'BEGIN { exit !(e < b) }'; then
      best="$elapsed"
    fi
  done
  printf '%s' "$best"
}

# --- 1. kernel microbenches (items/sec, google-benchmark) --------------------

SIMKERNEL_CSV=$("$SIMKERNEL" --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=csv 2>/dev/null | grep '^"BM_')

# --- 2. end-to-end harnesses (wall seconds, best of $REPS) -------------------

FIG3_S=$(wall_min "${BUILD_DIR}/bench/bench_fig3_micro")
BFT_S=$(wall_min "${BUILD_DIR}/bench/bench_bft_e2e")

# --- 3. emit JSON ------------------------------------------------------------

JSON=$(
  {
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "host": "%s",\n' "$(uname -srm)"
    printf '  "build_dir": "%s",\n' "$BUILD_DIR"
    printf '  "reps": %s,\n' "$REPS"
    printf '  "simkernel_items_per_second": {\n'
    printf '%s\n' "$SIMKERNEL_CSV" | awk -F, '
      { gsub(/"/, "", $1)
        line = sprintf("    \"%s\": %s", $1, ($7 == "" ? "null" : $7))
        lines = lines (lines == "" ? "" : ",\n") line }
      END { print lines }'
    printf '  },\n'
    printf '  "wall_seconds_best_of_reps": {\n'
    printf '    "bench_fig3_micro": %s,\n' "$FIG3_S"
    printf '    "bench_bft_e2e": %s\n' "$BFT_S"
    printf '  }\n'
    printf '}\n'
  }
)

if [ -n "$OUT" ]; then
  printf '%s\n' "$JSON" >"$OUT"
  echo "bench.sh: wrote $OUT" >&2
else
  printf '%s\n' "$JSON"
fi
