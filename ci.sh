#!/usr/bin/env sh
# The workspace's CI gauntlet — .github/workflows/ci.yml runs exactly
# this script, so local and Actions runs are the same gate.
# Order is cheapest-first so failures surface fast.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> simlint --deny (bench artifact)"
# Any finding fails the run; the only exceptions are inline allows, each
# audited. BENCH_simlint.json records scan size and coverage counts only
# (no timing), so a rerun on unchanged code rewrites it byte for byte.
cargo run -q -p simlint -- --deny --bench BENCH_simlint.json
grep -q '"files_scanned"' BENCH_simlint.json
# The monotonicity pass must have covered real code: zero timestamp
# sites would mean the [monotonic] sinks rotted out from under it.
sites=$(sed -n 's/.*"monotonic_sites":\([0-9][0-9]*\).*/\1/p' BENCH_simlint.json)
if [ "${sites:-0}" -lt 1 ]; then
    echo "monotonic_sites is zero — the monotonicity pass lost its coverage"
    exit 1
fi
echo "    (monotonic_sites: $sites)"

echo "==> bench ledger (BENCH_history.jsonl: one line per merged PR)"
# The trajectory the north star asks for: every line names its commit and
# the host's core count and covers all eight benchmark workloads.
test -s BENCH_history.jsonl
for key in commit host_cores region_day incast_storm incast_storm_traced \
    bulk_stream udp_floor fat_tree_shuffle fleet_lake lake_scan; do
    if grep -qv "\"$key\"" BENCH_history.jsonl; then
        echo "a BENCH_history.jsonl line lacks \"$key\""
        exit 1
    fi
done
# From the fourth line (PR 22) on, a line also reads without CHANGES.md
# beside it: the parent's medians from the same alternating pairs, the
# pairs won per metric and the host-noise spin reading.
for key in parent_medians pairs_won calib_spin_ns; do
    if tail -n +4 BENCH_history.jsonl | grep -qv "\"$key\""; then
        echo "a BENCH_history.jsonl line after the third lacks \"$key\""
        exit 1
    fi
done

echo "==> clippy (determinism bans: clippy.toml at deny)"
# The hash-ordered types, the host clock and the environment reads are
# denied by the [workspace.lints] levels; each legitimate site carries an
# #[expect] with a reason, and a stale one fails the build.
cargo clippy --workspace --all-targets -- -D clippy::dbg_macro -D clippy::todo

echo "==> clippy probe (every planted ban and a stale #[expect] must fail)"
# A throwaway crate with this workspace's clippy.toml and lint levels
# uses each banned type and method once and puts an #[expect] on clean
# code: clippy must refuse it and name every one. A ban that stopped
# resolving, or a level that slipped below deny, fails here.
PROBE_TMP="${TMPDIR:-/tmp}/ms_clippy_probe"
rm -rf "$PROBE_TMP"
mkdir -p "$PROBE_TMP/src"
cp clippy.toml "$PROBE_TMP/"
{
    printf '[package]\nname = "clippy_probe"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n\n'
    awk '/^\[/ { keep = /^\[workspace\.lints\./ } keep' Cargo.toml | sed 's/^\[workspace\.lints\./[lints./'
} > "$PROBE_TMP/Cargo.toml"
cat > "$PROBE_TMP/src/lib.rs" <<'PROBE'
pub fn planted() {
    let _ = std::collections::HashMap::<u8, u8>::new();
    let _ = std::collections::HashSet::<u8>::new();
    let _ = std::hash::RandomState::new();
    let _ = std::hash::DefaultHasher::new();
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _ = std::env::var("PROBE");
    let _ = std::env::var_os("PROBE");
    let _ = std::env::vars();
    let _ = std::env::vars_os();
    let _ = std::env::args();
    let _ = std::env::args_os();
    let _ = std::env::temp_dir();
    let _ = std::env::current_dir();
}

#[expect(clippy::disallowed_methods)]
pub fn clean() -> u8 {
    1
}
PROBE
status=0
(cd "$PROBE_TMP" && CARGO_TARGET_DIR="$PROBE_TMP/target" cargo clippy --offline -q) \
    > "$PROBE_TMP/out.txt" 2>&1 || status=$?
if [ "$status" -eq 0 ]; then
    echo "clippy accepted the planted bans"
    exit 1
fi
for item in std::collections::HashMap std::collections::HashSet \
    std::hash::RandomState std::hash::DefaultHasher; do
    grep -q "^error: use of a disallowed type \`$item\`" "$PROBE_TMP/out.txt" || { echo "probe: $item not denied"; exit 1; }
done
for item in std::time::Instant::now std::time::SystemTime::now std::env::var \
    std::env::var_os std::env::vars std::env::vars_os std::env::args \
    std::env::args_os std::env::temp_dir std::env::current_dir; do
    grep -q "^error: use of a disallowed method \`$item\`" "$PROBE_TMP/out.txt" || { echo "probe: $item not denied"; exit 1; }
done
grep -q '^error: this lint expectation is unfulfilled' "$PROBE_TMP/out.txt" || { echo "probe: stale #[expect] not denied"; exit 1; }
rm -rf "$PROBE_TMP"

echo "==> cargo test"
cargo test --workspace -q

echo "==> perf crate tests (the benchmark's only door into the crates)"
# perf/ is its own workspace, so the line above does not build it. A
# crate API change that breaks perf/src/api.rs must fail here, not in
# the benchmark run.
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "==> benchmark fingerprints (every workload byte-identical to BENCH_fingerprints.txt)"
# One rep of each benchmark workload at the ledger's seed: its output
# fingerprint, dispatch count and work must equal the checked-in rows, so
# "same behaviour at benchmark scale" fails here and not in a PR's prose.
FP_TMP="${TMPDIR:-/tmp}/ms_fingerprint_smoke"
rm -rf "$FP_TMP"
cargo run -q --release --offline --manifest-path perf/Cargo.toml -- \
    run --reps 1 --seed 42 --out "$FP_TMP" > /dev/null
awk -F'"' '
    /^      "name":/ { name = $4 }
    /^      "work":/ { split($0, a, ": "); work = a[2]; sub(/,$/, "", work) }
    /^      "fingerprint":/ { fp = $4 }
    /^      "dispatches":/ {
        split($0, a, ": "); n = a[2]; sub(/,$/, "", n)
        print name, fp, n, work
    }' "$FP_TMP/results.json" > "$FP_TMP/fingerprints.txt"
grep -v '^#' BENCH_fingerprints.txt | diff - "$FP_TMP/fingerprints.txt"
rm -rf "$FP_TMP"

echo "==> traced example smoke (Perfetto export)"
TRACE_TMP="${TMPDIR:-/tmp}/ms_trace_smoke.json"
cargo run -q --release -p ms-bench --example incast_loss -- --trace "$TRACE_TMP"
cargo run -q --release -p ms-bench --example trace_check -- "$TRACE_TMP"
rm -f "$TRACE_TMP"

echo "==> forensics smoke (every drop -> exactly one classified forensic)"
# The example exits non-zero unless the blackbox attributed every
# dropped byte of the contended showcase to one classified record.
cargo run -q --release -p ms-bench --example incast_loss -- --forensics \
    | grep -q '^OK: every dropped byte attributed'

echo "==> engine profiler smoke (clocked run -> dispatch table + folded stacks)"
PROFILE_TMP="${TMPDIR:-/tmp}/ms_profile_smoke.json"
cargo run -q --release -p ms-bench --example incast_loss -- --profile "$PROFILE_TMP" > /dev/null
grep -q '"by_kind"' "$PROFILE_TMP"
test -s "$PROFILE_TMP.folded"
rm -f "$PROFILE_TMP" "$PROFILE_TMP.folded"

echo "==> fleet sweep smoke (serial vs parallel byte-identity)"
# The same grid, every congestion controller, at --jobs 1 and --jobs 2:
# the aggregate CSV and JSON must come back byte-identical, with Cubic
# and Reno cells among the rows.
FLEET_TMP="${TMPDIR:-/tmp}/ms_fleet_smoke"
rm -rf "$FLEET_TMP"
mkdir -p "$FLEET_TMP"
for jobs in 1 2; do
    cargo run -q --release -p ms-fleet --bin fleet -- \
        --jobs "$jobs" --buckets 80 --conns 24 --bytes 1500000 --quiet \
        --ccs dctcp,cubic,reno \
        --csv "$FLEET_TMP/j$jobs.csv" --json "$FLEET_TMP/j$jobs.json"
done
diff "$FLEET_TMP/j1.csv" "$FLEET_TMP/j2.csv"
diff "$FLEET_TMP/j1.json" "$FLEET_TMP/j2.json"
grep -q -- '-cubic-' "$FLEET_TMP/j1.csv"
grep -q -- '-reno-' "$FLEET_TMP/j1.csv"
rm -rf "$FLEET_TMP"

echo "==> repro smoke (three exhibits, thread-count byte-identity)"
# The exhibit binary end to end on a 6-rack region: the CSVs it writes
# must not depend on how many workers ran the sweep.
REPRO_TMP="${TMPDIR:-/tmp}/ms_repro_smoke"
rm -rf "$REPRO_TMP"
cargo run -q --release -p ms-bench --bin repro -- \
    --racks 6 --servers 8 --buckets 120 --threads 1 \
    --out "$REPRO_TMP/A" table1 fig9 table2 > /dev/null
cargo run -q --release -p ms-bench --bin repro -- \
    --racks 6 --servers 8 --buckets 120 --threads 2 \
    --out "$REPRO_TMP/B" table1 fig9 table2 > /dev/null
diff -r "$REPRO_TMP/A" "$REPRO_TMP/B"
test -s "$REPRO_TMP/A/table2.csv"
# A CSV that cannot be written ends the run with exit 1, naming the path
# (fig1 runs no sweep, so this is quick).
status=0
cargo run -q --release -p ms-bench --bin repro -- \
    --out /dev/null/x fig1 > /dev/null 2> "$REPRO_TMP/write.err" || status=$?
if [ "$status" -ne 1 ]; then
    echo "repro with an unwritable --out exited $status, expected 1"
    exit 1
fi
grep -q '/dev/null/x/fig1.csv' "$REPRO_TMP/write.err"
rm -rf "$REPRO_TMP"

echo "==> lake smoke (writer determinism + query fidelity + exit codes)"
LAKE_TMP="${TMPDIR:-/tmp}/ms_lake_smoke"
rm -rf "$LAKE_TMP"
mkdir -p "$LAKE_TMP"
# The same grid at --jobs 1 and --jobs 2 must compact to byte-identical
# segment files (manifest CSV goes to stdout; compare that too). With
# --forensics the comparison also covers the forensics table, so the
# drop-attribution rows themselves are held to the byte-identity bar.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 1 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --forensics --out-lake "$LAKE_TMP/j1" > "$LAKE_TMP/manifest_j1.csv"
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --forensics --out-lake "$LAKE_TMP/j2" > "$LAKE_TMP/manifest_j2.csv"
diff "$LAKE_TMP/manifest_j1.csv" "$LAKE_TMP/manifest_j2.csv"
for seg in "$LAKE_TMP"/j1/*.msl; do
    cmp "$seg" "$LAKE_TMP/j2/$(basename "$seg")"
done
# The S8 loss-attribution report folds the forensics table out of core;
# both lakes must render the identical histogram.
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/j1" --report attribution --out "$LAKE_TMP/attr_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/j2" --report attribution --out "$LAKE_TMP/attr_j2.csv"
diff "$LAKE_TMP/attr_j1.csv" "$LAKE_TMP/attr_j2.csv"
grep -q '^cell,policy,self_burst,cross_contention,fabric_transient,total$' "$LAKE_TMP/attr_j1.csv"
# The grid is sized to actually drop: the histogram must have rows.
test "$(wc -l < "$LAKE_TMP/attr_j1.csv")" -gt 1
# The lake's out-of-core outcomes report must equal the in-memory
# FleetReport CSV from the same grid, byte for byte.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --csv "$LAKE_TMP/report.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/j1" --report outcomes --out "$LAKE_TMP/lake_outcomes.csv"
diff "$LAKE_TMP/report.csv" "$LAKE_TMP/lake_outcomes.csv"
# Full verification pass over every segment checksum.
cargo run -q --release -p ms-lake --bin lake -- stat --dir "$LAKE_TMP/j1" > /dev/null
# Bad-day drill: an outcomes segment cut off mid-chunk must fail the
# query with exit 1 and the damage named on stderr, never read as a
# shorter lake, and without the usage hint (the command line was fine).
cp -r "$LAKE_TMP/j1" "$LAKE_TMP/cut"
SEG="$LAKE_TMP/cut/outcomes-0000.msl"
head -c $(($(wc -c < "$SEG") / 2)) "$SEG" > "$SEG.half"
mv "$SEG.half" "$SEG"
status=0
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/cut" --report outcomes --out "$LAKE_TMP/cut.csv" 2> "$LAKE_TMP/cut.err" || status=$?
if [ "$status" -ne 1 ]; then
    echo "a truncated segment was queried with exit $status, expected 1"
    exit 1
fi
grep -q 'lake corrupt' "$LAKE_TMP/cut.err"
if grep -q 'try --help' "$LAKE_TMP/cut.err"; then
    echo "a corrupt lake printed the usage hint"
    exit 1
fi
# A usage error is exit 2 with the hint: `query` without --dir.
status=0
cargo run -q --release -p ms-lake --bin lake -- query 2> "$LAKE_TMP/usage.err" || status=$?
if [ "$status" -ne 2 ]; then
    echo "lake query without --dir exited $status, expected 2"
    exit 1
fi
grep -q 'try --help' "$LAKE_TMP/usage.err"
# The retired timing modes (repro's `perf` experiment, `fleet --bench`,
# `lake bench`) are usage errors: exit 2, never a silent no-op.
status=0
cargo run -q --release -p ms-bench --bin repro -- perf > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "repro's perf experiment exited $status, expected 2"
    exit 1
fi
status=0
cargo run -q --release -p ms-fleet --bin fleet -- --bench x 2> "$LAKE_TMP/fleet_bench.err" || status=$?
if [ "$status" -ne 2 ]; then
    echo "fleet --bench exited $status, expected 2"
    exit 1
fi
grep -q 'unknown flag' "$LAKE_TMP/fleet_bench.err"
status=0
cargo run -q --release -p ms-lake --bin lake -- bench --dir "$LAKE_TMP/bench" \
    2> "$LAKE_TMP/lake_bench.err" || status=$?
if [ "$status" -ne 2 ]; then
    echo "lake bench exited $status, expected 2"
    exit 1
fi
grep -q 'unknown command' "$LAKE_TMP/lake_bench.err"
grep -q 'try --help' "$LAKE_TMP/lake_bench.err"
echo "==> buffer-policy sweep smoke (every policy, jobs-count byte-identity)"
# One lossy base cell under each of the five policies: the per-policy
# attribution report must come back byte-identical for --jobs 1 and
# --jobs 2, and the policy-compare rollup must key one row per policy.
POLICIES=dt,cs,sp,fb,delay
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 1 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 0.25 --placements single --policies "$POLICIES" \
    --forensics --out-lake "$LAKE_TMP/p1" > /dev/null
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 0.25 --placements single --policies "$POLICIES" \
    --forensics --out-lake "$LAKE_TMP/p2" > /dev/null
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/p1" --report attribution --out "$LAKE_TMP/pattr_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/p2" --report attribution --out "$LAKE_TMP/pattr_j2.csv"
diff "$LAKE_TMP/pattr_j1.csv" "$LAKE_TMP/pattr_j2.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/p1" --report policy-compare --out "$LAKE_TMP/pcmp.csv"
grep -q '^policy,cells,' "$LAKE_TMP/pcmp.csv"
for policy in $(echo "$POLICIES" | tr , " "); do
    grep -q "^$policy,1," "$LAKE_TMP/pcmp.csv"
done

echo "==> multi-rack smoke (k=4 fat-tree incast, jobs-count byte-identity)"
# A cross-pod incast on the k=4 fat-tree: lake segments, the forensic
# attribution histogram, and the per-tier drop split must all come back
# byte-identical for --jobs 1 and --jobs 2, and the drops must land
# above the ToR tier (agg/spine columns nonzero) — the whole point of
# the region topology.
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 1 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 1.0 --placements single --topo k4d100 \
    --forensics --out-lake "$LAKE_TMP/t1" > /dev/null
cargo run -q --release -p ms-fleet --bin fleet -- \
    --jobs 2 --buckets 80 --conns 160 --bytes 20000000 --quiet \
    --seeds 1 --alphas 1.0 --placements single --topo k4d100 \
    --forensics --out-lake "$LAKE_TMP/t2" > /dev/null
for seg in "$LAKE_TMP"/t1/*.msl; do
    cmp "$seg" "$LAKE_TMP/t2/$(basename "$seg")"
done
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t1" --report attribution --out "$LAKE_TMP/tattr_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t2" --report attribution --out "$LAKE_TMP/tattr_j2.csv"
diff "$LAKE_TMP/tattr_j1.csv" "$LAKE_TMP/tattr_j2.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t1" --report tiers --out "$LAKE_TMP/tiers_j1.csv"
cargo run -q --release -p ms-lake --bin lake -- query \
    --dir "$LAKE_TMP/t2" --report tiers --out "$LAKE_TMP/tiers_j2.csv"
diff "$LAKE_TMP/tiers_j1.csv" "$LAKE_TMP/tiers_j2.csv"
grep -q '^cell,tor,agg,spine,offswitch,total$' "$LAKE_TMP/tiers_j1.csv"
# Fully cross-pod placement must push loss above the ToR: at least one
# cell row carries nonzero agg or spine drops.
awk -F, 'NR > 1 && ($3 + $4) > 0 { found = 1 } END { exit !found }' "$LAKE_TMP/tiers_j1.csv"
rm -rf "$LAKE_TMP"

echo "==> CI green"
