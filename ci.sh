#!/usr/bin/env bash
# Tier-1 verification, split into named, timed stages.
#
#   ./ci.sh                 run every stage
#   ./ci.sh <stage> [...]   run a subset (in the given order)
#   ./ci.sh --list          print the stage names
#
# Stages:
#   build        cargo build --release
#   test         debug workspace test suite (tier-1 superset)
#   golden       determinism fingerprints in --release (debug is covered
#                by `test`; a debug/release divergence must fail CI), the
#                pinned chain-only text, the whole-chain agreement of the
#                run-length probability with its stepping reference
#                (release only), the chain-only selfish race's pinned
#                cells and miner-sequence pins (`selfish::pinned`; the
#                whole-chain report's digest also by name,
#                `whole_chain_sequence_matches_its_pin`), the weighted
#                draw's threshold table against the subtraction loop it
#                replaced (`rng::chooser`, draw for draw and at every
#                threshold, up to 4,096 weights of extreme shapes: the
#                miner-sequence pins depend on the table),
#                the whole-chain scan's heap peak under 1 MiB
#                (`whole_chain_scan_peaks_under_a_mebibyte_of_heap`,
#                tests/allocs.rs), the dataset row codec and the
#                Fig. 4/5 merge-joins against their reference
#                implementations, the spilled-versus-in-memory agreement
#                of the observer log's segments, scans and merge
#                (`measure` tests named `spill`), the event loop's and
#                the selfish race's allocation ceilings (tests/allocs.rs),
#                the full-network selfish-pool pins
#                (`selfish_worlds_match_their_goldens`: fingerprints and
#                withheld/released counts of a classic and a stubborn
#                attacker), the shared job loop's panic context (a
#                selfish-threshold race that fails is named by its α, γ
#                and seed: `a_failing_threshold_race_names_its_cell_and_seed`),
#                the
#                reused-world equivalence checks (a reset runner, a reset
#                world and a reusing grid must match fresh runs), and the
#                two-lane analysis and digest (`suite_lanes_equal_each_family_run_alone`:
#                every `Suite` report equals its family run alone, in
#                memory and spilled; `the_hashing_lane`: the fingerprint's
#                hashing lane against one sequential FNV stream, also when
#                the lane lags a full 128-chunk queue, and a lane panic
#                that reaches the caller), and the month's row path against
#                its references (`spill_guard`: the spilled tx-id guard
#                against the plain binary search, and tx rows read segment
#                after segment against the merged scan by `arrival_seq`,
#                with a repeated seq panicking;
#                `one_pass_rows_match_the_reference_at_every_edge`: the
#                one-pass row parser at every edge value) in the profile
#                the benchmark measures
#   par-smoke    the sharded parallel engine in --release: shards=4 (and
#                2, 8) campaign fingerprints must equal the committed
#                sequential goldens bit-for-bit
#   lint         clippy -D warnings on every target, fmt, and rustdoc
#                -D warnings over the workspace (a dangling or private
#                intra-doc link fails)
#   detlint      workspace determinism lint (see DETERMINISM.md): must be
#                clean, and its JSON report must validate
#   dynamics-smoke  scripted network dynamics: partition and eclipse
#                campaigns must be fingerprint-identical at 2/4/8 shards
#                vs sequential, and `repro dynamics --json` must emit a
#                schema-valid ethmeter-reorg/v1 document that is
#                byte-identical between the sequential and 4-shard runs
#   repro-smoke  `repro table3`, the selfish-threshold grid, and the
#                spilled decentralization scalars on tiny presets:
#                non-empty, schema-valid output; then every experiment
#                `repro --list` names must print something
#   consensus-smoke  the pluggable fork choice: trait-conformance,
#                fork-choice-core (`headertree`) and uncle-rule unit
#                tests, the engine-law integration suite (pins the
#                explicit-heaviest goldens in --release) and the
#                view-vs-tree and slot-tree-vs-hash-keyed-reference
#                differential tests in --release — a name-filtered run
#                that matches 0 tests fails — plus
#                `repro forkchoice --json` on a pinned tiny scenario —
#                schema-valid ethmeter-forkchoice/v1 with distinct
#                heads across engines
#   benchmark-build  the repository benchmark (benchmark/, a workspace of
#                its own that no other stage compiles) still builds
#                against the product crates: its unit tests pass and
#                `benchmark/run.sh --list` names the workloads
#   benchmark-check  the repository benchmark itself, three passes per
#                workload: no failed check, the exact facts (events,
#                fingerprint, rows, segments) equal the committed
#                BENCH_baseline.json, and no workload's median peak_rss_mib
#                exceeds the baseline's by more than BENCHMARK.json's
#                bound; timings are printed, not gated
#
# Each stage is timed; a summary table is printed at the end (and on
# failure, which names the failed stage instead of dumping trace noise).
set -euo pipefail
cd "$(dirname "$0")"

STAGES=(build test golden par-smoke lint detlint dynamics-smoke repro-smoke consensus-smoke benchmark-build benchmark-check)

# `cargo test -q <args>` with a name filter. A filter that matches nothing
# still exits 0, so a renamed test or module would turn its gate into a
# no-op: this fails when the invocation ran 0 tests.
filtered_tests() {
    local log ran
    log="$(mktemp)"
    cargo test -q "$@" 2>&1 | tee "$log"
    ran="$(awk '/^test result:/ { for (i = 2; i <= NF; i++) if ($i == "passed;") n += $(i - 1) }
                END { print n + 0 }' "$log")"
    rm -f "$log"
    [ "$ran" -gt 0 ] \
    || { echo "ci.sh: \`cargo test -q $*\` ran 0 tests" >&2; return 1; }
}

stage_build() {
    cargo build --release
}

stage_test() {
    # Tier-1 is `cargo test -q` (the facade package); --workspace is a
    # superset, so running it alone avoids compiling the facade suites
    # twice.
    cargo test --workspace -q
}

stage_golden() {
    # Golden determinism fingerprints must hold in BOTH profiles: a
    # float/ordering divergence between debug and --release would
    # silently split "tested behavior" from "benchmarked behavior". The
    # debug run is covered by the workspace suite; re-run in release (the
    # pinned Fig. 7 month + selfish-grid text among them, and the report
    # pin: the tiny-101 suite text and the four scalar sets' CSV/JSON).
    filtered_tests --release --test golden
    # The selfish-pool worlds are named too, so a rename cannot drop the
    # only pins on the world's withholding path from the gate.
    filtered_tests --release --test golden selfish_worlds_match_their_goldens
    # prob_run_at_least's O(k³·log n) matrix power against the O(n·k)
    # stepping reference at n = 7.7 M (~1 min; ignored in debug builds,
    # where it would take far longer).
    filtered_tests --release -p ethmeter-stats \
        stepping_and_matrix_power_agree_over_the_whole_chain
    # The chain-only selfish race's pinned cells (below and above one
    # half, where the attacker keeps blocks back), the Fig. 7 month's
    # miner sequence and the whole-chain report, in the profile the
    # chain-only workload runs them in. The whole-chain pin and the
    # whole-chain scan's heap peak (the fold holds no sequence) are also
    # named, so a rename cannot drop them from the gate. The miner draws
    # come from `WeightedIndex`'s threshold table, checked against the
    # subtraction loop it replaced draw for draw and at every threshold,
    # the latter also over 1-4,096 weights with zeros, subnormals and
    # extreme ratios.
    filtered_tests --release -p ethmeter-core selfish::pinned
    filtered_tests --release -p ethmeter-core whole_chain_sequence_matches_its_pin
    filtered_tests --release -p ethmeter-sim rng::chooser
    filtered_tests --release --test allocs whole_chain_scan_peaks_under_a_mebibyte_of_heap
    # The CSV row codec (digit writer, arrival placement, field splitter)
    # against the formatter/split-collect codec it replaced, and the
    # Fig. 4/5 merge-joins against the hash-map reference, in the profile
    # the benchmark runs them in.
    filtered_tests --release -p ethmeter-measure csv::codec
    filtered_tests --release -p ethmeter-analysis commit::differential
    # Spill segments, scans and the merge: spilled logs must read exactly
    # as in-memory ones in the profile dataset-month runs them in.
    filtered_tests --release -p ethmeter-measure spill
    # Allocator calls per event, cold planet-shaped start and warm small
    # preset, and per block of the chain-only selfish race: the counts do
    # not depend on the profile, but release is what the benchmark runs.
    filtered_tests --release --test allocs allocation_ceiling
    # Reused worlds (the grid workers' path) against fresh ones: the
    # runner's reset proptest, the world's reset test, and the reusing
    # grid against fresh and sequential runs.
    filtered_tests --release -p ethmeter-core reset_reuse_is_fingerprint_identical
    filtered_tests --release -p ethmeter-core reset_reproduces_a_fresh_world
    filtered_tests --release --test sweep reused_worker_sweeps_equal_fresh_and_sequential
    # The job loop grids and the selfish-threshold grid share: a failing
    # race is re-raised with its cell and seed after every other has run.
    filtered_tests --release -p ethmeter-core a_failing_threshold_race_names_its_cell_and_seed
    # The lanes dataset-month's analysis and digest run on: each Suite
    # report against its family alone, and the fingerprint's hashing lane
    # against the sequential stream (chunk-spanning texts, spilled logs).
    filtered_tests --release -p ethmeter-core suite_lanes_equal_each_family_run_alone
    filtered_tests --release -p ethmeter-measure the_hashing_lane
    # The month's row path, named so a rename cannot drop it: the guard
    # in front of the spilled tx-id search against the search alone, the
    # merge-free tx rows against the merged scan (and the panic when a
    # seq repeats), and the one-pass parser's edge rows.
    filtered_tests --release -p ethmeter-measure spill_guard
    filtered_tests --release -p ethmeter-measure one_pass_rows_match_the_reference_at_every_edge
}

stage_par_smoke() {
    # The sharded engine's determinism contract: at 2/4/8 shards the
    # campaign fingerprint must be bit-identical to the committed
    # sequential goldens. Release profile, like the goldens themselves —
    # a debug-only equivalence would not cover benchmarked behavior.
    filtered_tests --release --test golden \
        sharded_campaigns_match_the_sequential_goldens
}

stage_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

stage_detlint() {
    # The determinism policy (DETERMINISM.md) is a hard gate: the text
    # run prints any diagnostics for the log, then the JSON report is
    # schema-validated and must carry zero diagnostics and a written
    # reason on every allowed site.
    cargo run -q -p ethmeter-detlint -- check
    local report
    report="$(mktemp)"
    cargo run -q -p ethmeter-detlint -- check --format json > "$report"
    test "$(jq -r .schema "$report")" = "ethmeter-detlint/v1"
    jq -e '.files_scanned > 50' "$report" > /dev/null
    jq -e '.diagnostics | length == 0' "$report" > /dev/null
    jq -e '[.allowed[] | (.reason | length > 0)] | all' "$report" > /dev/null \
    || { echo "detlint: allowed site without a written reason" >&2
         jq '.allowed' "$report" >&2
         rm -f "$report"
         return 1; }
    rm -f "$report"
}

stage_dynamics_smoke() {
    # Scripted network dynamics must not break the sharded determinism
    # contract: the partition and eclipse integration tests pin the
    # 2/4/8-shard fingerprints against the sequential reference.
    # (one positional filter; it matches both the partition and the
    # eclipse test)
    filtered_tests --release --test dynamics \
        script_fingerprint_is_shard_invariant
    # The reorg-depth CLI: a schema-valid ethmeter-reorg/v1 document with
    # the full k ∈ 1..=12 tail, byte-identical between the sequential and
    # the 4-shard run of the same eclipse campaign.
    cargo build --release -p ethmeter-bench --bin repro
    local seq_json par_json
    seq_json="$(mktemp)"
    par_json="$(mktemp)"
    ./target/release/repro dynamics --preset tiny --seed 7 --json \
        > "$seq_json" 2> /dev/null
    ./target/release/repro dynamics --preset tiny --seed 7 --shards 4 --json \
        > "$par_json" 2> /dev/null
    jq -e '
        .schema == "ethmeter-reorg/v1"
        and .canonical_blocks > 0
        and (.rows | length == 12)
        and ([.rows[].k] == [range(1; 13)])
        and ([.rows[] | .p_revert >= 0 and .p_revert <= 1] | all)
        and ([.rows[].reverted] == ([.rows[].reverted] | sort | reverse))' \
        "$seq_json" > /dev/null \
    || { echo "reorg JSON failed schema validation:" >&2
         cat "$seq_json" >&2
         rm -f "$seq_json" "$par_json"
         return 1; }
    cmp -s "$seq_json" "$par_json" \
    || { echo "dynamics: 4-shard reorg document differs from sequential" >&2
         diff "$seq_json" "$par_json" >&2 || true
         rm -f "$seq_json" "$par_json"
         return 1; }
    rm -f "$seq_json" "$par_json"
}

stage_repro_smoke() {
    # The reproduction CLI must produce real output on a tiny preset:
    # a non-empty Table III and a schema-valid selfish-threshold surface
    # whose gain grid matches the declared axes.
    cargo build --release -p ethmeter-bench --bin repro
    local table3
    table3="$(./target/release/repro table3 --preset tiny --seed 7 2> /dev/null)"
    [ -n "$table3" ] || { echo "repro table3 produced no output" >&2; return 1; }
    grep -q "Table III" <<< "$table3" || { echo "repro table3 output malformed" >&2; return 1; }
    local selfish_json
    selfish_json="$(mktemp)"
    ./target/release/repro selfish --preset tiny --seed 7 --json > "$selfish_json" 2> /dev/null
    jq -e '
        (.alphas | length) as $a | (.gammas | length) as $g |
        .schema == "ethmeter-selfish-threshold/v1"
        and $a >= 2 and $g >= 2
        and (.gain | length == $g)
        and ([.gain[] | length == $a] | all)
        and ([.gain[][] | (. > 0 and . < 10)] | all)
        and (.thresholds | length == $g)' \
        "$selfish_json" > /dev/null \
    || { echo "selfish-threshold JSON failed schema validation:" >&2
         cat "$selfish_json" >&2
         rm -f "$selfish_json"
         return 1; }
    rm -f "$selfish_json"
    # The decentralization scalars, computed out-of-core: a spilled
    # tiny campaign must emit a schema-valid report with every axis in
    # range (Gini in [0,1), HHI in (0,1], Nakamoto >= 1).
    local dec_json spill_dir
    dec_json="$(mktemp)"
    spill_dir="$(mktemp -d)"
    ./target/release/repro decentralization --preset tiny --seed 7 --json \
        --spill-dir "$spill_dir" --budget 65536 > "$dec_json" 2> /dev/null
    jq -e '
        .schema == "ethmeter-decentralization/v1" and .blocks > 0
        and ([.hash_power, .block_production, .first_observation, .revenue]
             | all(.n >= 1 and .nakamoto >= 1
                   and .gini >= 0 and .gini < 1
                   and .hhi > 0 and .hhi <= 1))' \
        "$dec_json" > /dev/null \
    || { echo "decentralization JSON failed schema validation:" >&2
         cat "$dec_json" >&2
         rm -rf "$dec_json" "$spill_dir"
         return 1; }
    rm -rf "$dec_json" "$spill_dir"
    # An experiment cannot be in the table and never run.
    local names name
    names="$(./target/release/repro --list | awk '{ print $1 }')"
    [ -n "$names" ] || { echo "repro --list names no experiment" >&2; return 1; }
    for name in $names; do
        [ -n "$(./target/release/repro "$name" --preset tiny 2> /dev/null)" ] \
        || { echo "repro $name produced no output" >&2; return 1; }
    done
}

stage_consensus_smoke() {
    # The consensus trait's laws: engine conformance at the unit level,
    # then the integration suite — explicit-heaviest campaigns must land
    # on the pinned goldens (sequential and 2/4/8 shards) and the
    # hash-ordered engines must be arrival-order independent — then the
    # fork-choice core against its reference model and the chain-only
    # race and miner draw against their pinned values. Release profile:
    # the debug run is covered by the workspace suite.
    filtered_tests -p ethmeter-chain consensus
    filtered_tests -p ethmeter-chain headertree
    filtered_tests -p ethmeter-chain uncles
    cargo test --release --test consensus -q
    # The differential check of the fork-choice core's two consumers
    # (windowed HeaderView vs unpruned BlockTree, every engine).
    filtered_tests --release --test consistency windowed_view_and_unpruned_tree_agree
    # The slot-backed core against the hash-keyed tree it replaced, every
    # engine, unbounded and at the smallest window (slots recycle).
    filtered_tests --release -p ethmeter-chain headertree::reference
    # The chain-only selfish race over a 3x3 alpha x gamma grid plus two
    # cells above one half, and the Fig. 7 month's miner sequence, pinned
    # value for value; and the weighted draw's threshold table against
    # the subtraction loop it replaced, index for index, generator state
    # for state and at every threshold.
    filtered_tests --release -p ethmeter-core selfish::pinned
    filtered_tests --release -p ethmeter-sim rng::chooser
    # The fork-choice comparison CLI on a pinned scenario: heaviest,
    # longest, and uncle-weighted GHOST must each report a head, and at
    # least two engines must disagree (tiny seed 11 splits all three).
    cargo build --release -p ethmeter-bench --bin repro
    local fc_json
    fc_json="$(mktemp)"
    ./target/release/repro forkchoice --preset tiny --seed 11 --json \
        > "$fc_json" 2> /dev/null
    jq -e '
        .schema == "ethmeter-forkchoice/v1"
        and .preset == "tiny" and .seed == 11
        and (.engines | length == 3)
        and ([.engines[].name] == ["heaviest", "longest", "uncle-ghost"])
        and ([.engines[] | .head_number > 0
              and (.head | startswith("0x"))
              and (.safe | startswith("0x"))
              and (.finalized | startswith("0x"))] | all)
        and .distinct_heads == true' \
        "$fc_json" > /dev/null \
    || { echo "forkchoice JSON failed schema validation:" >&2
         cat "$fc_json" >&2
         rm -f "$fc_json"
         return 1; }
    rm -f "$fc_json"
}

stage_benchmark_build() {
    # benchmark/ path-depends on ../crates but is outside the root
    # workspace, so a product-crate API change that stops it compiling
    # goes unnoticed by every stage above. Debug tests plus the release
    # build `run.sh` performs; no workload is run.
    cargo test --offline -q --manifest-path benchmark/Cargo.toml
    local listed
    listed="$(benchmark/run.sh --list)"
    grep -q '^workload planet-cold:' <<<"$listed" \
    || { echo "benchmark --list does not name planet-cold:" >&2
         echo "$listed" >&2
         return 1; }
}

stage_benchmark_check() {
    # The one performance ledger, run the way it is committed and at the
    # baseline's seed (the facts follow the seed). `run` and `check` fail
    # on any failed workload check.
    benchmark/run.sh run --seed "$(jq -r .seed BENCH_baseline.json)" --reps 3
    benchmark/run.sh check
    # Timing verdicts are information: between sessions on this 2-core
    # host one commit's planet-cold median moves by more than the 0.25
    # bound (benchmark/README.md). The exact facts are the gate.
    benchmark/run.sh compare BENCH_baseline.json benchmark/out/results.json || true
    local facts='.workloads | map_values({events, fingerprint, rows, segments})'
    diff <(jq -S "$facts" BENCH_baseline.json) <(jq -S "$facts" benchmark/out/results.json) \
    || { echo "benchmark-check: exact facts differ from BENCH_baseline.json" >&2; return 1; }
    # Peak RSS is gated: unlike the timings it repeats to within a MiB
    # or so from run to run and day to day, so a median past the
    # baseline's by more than the bound BENCHMARK.json gives it is a real
    # regression.
    local over
    over="$(jq -r --slurpfile base BENCH_baseline.json --slurpfile spec BENCHMARK.json '
        ($spec[0].end_to_end[] | select(.name == "peak_rss_mib") | .bound) as $bound
        | .workloads | to_entries[]
        | .key as $w
        | .value.metrics.peak_rss_mib.median as $now
        | $base[0].workloads[$w].metrics.peak_rss_mib.median as $was
        | select($now > $was * (1 + $bound))
        | "\($w): peak_rss_mib median \($now) MiB, baseline \($was) MiB, bound +\($bound * 100)%"
    ' benchmark/out/results.json)"
    [ -z "$over" ] \
    || { echo "benchmark-check: peak RSS above BENCH_baseline.json:" >&2
         echo "$over" >&2
         return 1; }
}

# --- driver -----------------------------------------------------------------

stage_known() {
    local s
    for s in "${STAGES[@]}"; do
        [ "$s" = "$1" ] && return 0
    done
    return 1
}

run_stages() {
    local results=() failed=""
    local stage rc t0 t1
    for stage in "$@"; do
        echo "==> stage: $stage"
        t0=$SECONDS
        rc=0
        # Run the stage in a child bash with its own errexit: calling the
        # function directly as `stage_x || rc=$?` would put its whole body
        # in an AND-OR context where bash *ignores* `set -e` (even inside
        # a subshell), silently swallowing every failure but the last
        # command's. A separate process is the only airtight form.
        export -f "stage_${stage//-/_}" filtered_tests
        bash -ec "set -uo pipefail; stage_${stage//-/_}" || rc=$?
        t1=$SECONDS
        if [ "$rc" -eq 0 ]; then
            results+=("$(printf '%-12s  %-4s  %4ss' "$stage" ok "$((t1 - t0))")")
        else
            results+=("$(printf '%-12s  %-4s  %4ss' "$stage" FAIL "$((t1 - t0))")")
            failed="$stage"
            break
        fi
    done
    echo
    echo "stage         status  time"
    echo "---------------------------"
    local line
    for line in "${results[@]}"; do
        echo "$line"
    done
    if [ -n "$failed" ]; then
        echo
        echo "ci.sh: stage '$failed' failed" >&2
        return 1
    fi
}

main() {
    if [ "${1:-}" = "--list" ]; then
        printf '%s\n' "${STAGES[@]}"
        return 0
    fi
    local requested=("$@")
    if [ "${#requested[@]}" -eq 0 ]; then
        requested=("${STAGES[@]}")
    fi
    local s
    for s in "${requested[@]}"; do
        if ! stage_known "$s"; then
            echo "ci.sh: unknown stage '$s' (try: ${STAGES[*]})" >&2
            return 2
        fi
    done
    run_stages "${requested[@]}"
}

main "$@"
