#!/usr/bin/env sh
# The CI gate, runnable locally. Everything is offline by design:
# dev-dependencies resolve to in-tree stubs (DESIGN.md §6).
#
#   scripts/check.sh            # everything
#   scripts/check.sh check      # fmt + clippy + debug build/test
#   scripts/check.sh stress     # examples + release concurrency/differential
#   scripts/check.sh obs        # observability gate: exports well-formed
#   scripts/check.sh lifecycle  # failure/staleness gate: tests + C3 ratio
#   scripts/check.sh verify     # static-verifier gate: 100% mutant
#                               # detection, zero false positives, docs clean
#   scripts/check.sh tier       # adaptive-tiering gate: tests + C4
#                               # convergence onto the oracle hot set
#   scripts/check.sh serve      # serving gate: RCU torture + persistence
#                               # corruption suites + C5 warm-start ratio
#   scripts/check.sh prof       # profiling gate: flight-recorder torture,
#                               # PROF overhead/attribution/symbolization
#                               # gates, brew-inspect smoke
#   scripts/check.sh equiv      # equivalence gate: symbolic translation
#                               # validation clean on the corpus with no
#                               # conservative re-emission, 100% miscompile
#                               # rejection, aggressive E2 <= 27
#   scripts/check.sh regalloc   # generated-code gate: differential corpus
#                               # bit-identical with the allocator and with
#                               # the dataflow passes on/off, verifier clean,
#                               # E2 <= 31 (<= 27 aggressive), A2 ladder
#                               # monotone, whole-sweep rewrite faster than
#                               # the specialized apply
#   scripts/check.sh hotpath    # hot-path gate: no default-hasher
#                               # (SipHash) map on a per-instruction path,
#                               # no lock or hash map in the image's page
#                               # store
#   scripts/check.sh bench      # benchmark gate: benchmark/ (its own
#                               # workspace) builds against the crates'
#                               # facade, its tests pass, a smoke run of all
#                               # five workloads checks every output, and
#                               # the deterministic section repeats
#
# The stress stage reruns the timing-sensitive suites under `--release`
# so single-flight/eviction races get exercised with optimization on.
# The obs stage runs the OBS experiment and the telemetry example; both
# self-validate their JSON/exposition payloads (brew_core::validate_json
# and exposition-shape asserts), so a malformed export fails the stage;
# the stage also fails when a `brew_*` line of EXPERIMENTS.md's OBS excerpt
# is no longer in the experiment's output.
set -eu

cd "$(dirname "$0")/.."

stage="${1:-all}"

if [ "$stage" = "all" ] || [ "$stage" = "check" ]; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check

    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets --offline -- -D warnings

    echo "==> cargo build --release (offline)"
    cargo build --release --workspace --offline

    echo "==> cargo test (offline)"
    cargo test --workspace --offline -q
fi

if [ "$stage" = "all" ] || [ "$stage" = "stress" ]; then
    echo "==> examples (release)"
    cargo build --release --offline --examples
    for ex in quickstart stencil pgas guarded dispatch parallel telemetry; do
        echo "--> example $ex"
        cargo run --release --offline --example "$ex" >/dev/null
    done

    echo "==> concurrency stress (release)"
    cargo test --release --offline -q -p brew-core --test concurrent

    echo "==> differential suite (release, includes the manager path)"
    cargo test --release --offline -q -p brew-suite --test differential
fi

if [ "$stage" = "all" ] || [ "$stage" = "obs" ]; then
    echo "==> observability gate (tables --exp obs + telemetry example)"
    obs_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp obs)"
    # Every metric name, help line and their order are pinned by
    # crates/core/tests/telemetry.rs against telemetry_pins.txt; what is
    # checked here is that EXPERIMENTS.md's OBS excerpt is still what the
    # experiment prints, so the section cannot go stale unnoticed.
    obs_doc="$(sed -n '/^## OBS /,/^## PROF /p' EXPERIMENTS.md | grep '^brew_' || true)"
    if [ -z "$obs_doc" ]; then
        echo "FAIL: no brew_* excerpt found in EXPERIMENTS.md's OBS section" >&2
        exit 1
    fi
    obs_flat="$(printf '%s\n' "$obs_out" | sed 's/^[[:space:]]*//')"
    printf '%s\n' "$obs_doc" | while IFS= read -r line; do
        if ! printf '%s\n' "$obs_flat" | grep -qxF -- "$line"; then
            echo "FAIL: EXPERIMENTS.md OBS says '$line'; tables --exp obs does not print it" >&2
            exit 1
        fi
    done || exit 1
    if ! printf '%s' "$obs_out" | grep -q '### Explain report'; then
        echo "FAIL: explain report missing from tables --exp obs" >&2
        exit 1
    fi
    cargo run --release --offline --example telemetry >/dev/null
    echo "observability exports well-formed"
fi

if [ "$stage" = "all" ] || [ "$stage" = "lifecycle" ]; then
    echo "==> lifecycle gate (negative cache, invalidation, panic containment)"
    cargo test --release --offline -q -p brew-core --test lifecycle

    # The C3 experiment must show the denied path amortizing the doomed
    # rewrite by >= 100x (the lifecycle acceptance bar, EXPERIMENTS.md C3).
    life_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp life)"
    ratio="$(printf '%s' "$life_out" | sed -n 's/.*(\([0-9][0-9]*\)x cheaper.*/\1/p')"
    if [ -z "$ratio" ]; then
        echo "FAIL: no amortization ratio in tables --exp life output" >&2
        exit 1
    fi
    if [ "$ratio" -lt 100 ]; then
        echo "FAIL: denied re-request only ${ratio}x cheaper than re-tracing (need >= 100x)" >&2
        exit 1
    fi
    if ! printf '%s' "$life_out" | grep -q '2 variants dropped by the sweep'; then
        echo "FAIL: revalidate sweep did not drop the mutated variants" >&2
        exit 1
    fi
    echo "lifecycle gate passed (denied path ${ratio}x cheaper)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "verify" ]; then
    echo "==> static-verifier gate (translation validation, V1)"
    # Every brew-verify test in release — among them the pinned structural
    # reports (tests/structural_pins.rs), the eager-`explained` oracle
    # (src/mem.rs) and the demand counters (src/lib.rs) that hold the
    # demand-driven structural tier to the verdicts of the eager one.
    cargo test --release --offline -q -p brew-verify

    # The V1 experiment is the acceptance bar: every seeded mutant caught,
    # no clean variant rejected, and the manager gate publishing everything.
    ver_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp verify)"
    if ! printf '%s' "$ver_out" | grep -q 'mutant escape count       : 0'; then
        echo "FAIL: a seeded mutant escaped the verifier" >&2
        printf '%s\n' "$ver_out" >&2
        exit 1
    fi
    if ! printf '%s' "$ver_out" | grep -q ' 0 false positives'; then
        echo "FAIL: the verifier rejected a clean variant" >&2
        printf '%s\n' "$ver_out" >&2
        exit 1
    fi
    if ! printf '%s' "$ver_out" | grep -q 'across 20/20 kinds'; then
        echo "FAIL: the corpus no longer exercises every mutation kind" >&2
        printf '%s\n' "$ver_out" >&2
        exit 1
    fi
    if ! printf '%s' "$ver_out" | grep -q ', 0 rejected,'; then
        echo "FAIL: the publish gate rejected a clean variant" >&2
        printf '%s\n' "$ver_out" >&2
        exit 1
    fi

    echo "==> cargo doc (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline >/dev/null
    echo "static-verifier gate passed (100% detection, 0 false positives)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "tier" ]; then
    echo "==> adaptive-tiering gate (tiering tests + C4 convergence)"
    cargo test --release --offline -q -p brew-core --test tiering

    # The C4 experiment must re-converge the resident set onto the oracle
    # hot set (>= 90% overlap) within every drift phase's round budget,
    # with no operator input (the tiering acceptance bar, EXPERIMENTS.md C4).
    tier_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp tier)"
    if ! printf '%s' "$tier_out" | grep -q 'all phases converged: yes'; then
        echo "FAIL: tiering did not re-converge on every drift phase" >&2
        printf '%s\n' "$tier_out" >&2
        exit 1
    fi
    if printf '%s' "$tier_out" | grep -q 'never'; then
        echo "FAIL: a drift phase never reached 90% oracle overlap" >&2
        printf '%s\n' "$tier_out" >&2
        exit 1
    fi
    echo "adaptive-tiering gate passed (resident set tracks the drifting hot set)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "serve" ]; then
    echo "==> serving gate (RCU torture, persistence corruption, C5)"
    cargo test --release --offline -q -p brew-core --test serving
    cargo test --release --offline -q -p brew-verify --test persist_corruption
    cargo test --release --offline -q -p brew-suite --test persist_roundtrip

    # The C5 experiment is the acceptance bar (EXPERIMENTS.md C5): warm
    # start >= 5x faster than the gated cold start, every serving dispatch
    # a lock-free hit, and the corruption sweep rejecting 100% of the
    # tampered checkpoints with zero false accepts.
    serve_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp serve)"
    if ! printf '%s' "$serve_out" | grep -q 'warm start >= 5x faster than cold: yes'; then
        echo "FAIL: warm start no longer amortizes the cold gated rewrite" >&2
        printf '%s\n' "$serve_out" >&2
        exit 1
    fi
    if ! printf '%s' "$serve_out" | grep -q 'all serving dispatches hit the lock-free read path: yes'; then
        echo "FAIL: a serving dispatch fell off the hit path" >&2
        printf '%s\n' "$serve_out" >&2
        exit 1
    fi
    if ! printf '%s' "$serve_out" | grep -q '26/26 rejected, 0 false accepts'; then
        echo "FAIL: the corruption sweep accepted or missed a tampered checkpoint" >&2
        printf '%s\n' "$serve_out" >&2
        exit 1
    fi
    echo "serving gate passed (warm start amortized, hit path lock-free, corruption rejected)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "prof" ]; then
    echo "==> profiling gate (flight torture, PROF gates, brew-inspect smoke)"
    cargo test --release --offline -q -p brew-core --test flight

    # The PROF experiment carries its own machine-checkable gate lines
    # (EXPERIMENTS.md PROF): always-on recorder overhead under the bar,
    # a tear-free at-rest dump, one perf-map symbol per resident variant,
    # and a strict-validated merged chrome export.
    prof_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp prof)"
    if ! printf '%s' "$prof_out" | grep -q 'gate <= 100: ok'; then
        echo "FAIL: flight record overhead exceeds the 100 ns/event gate" >&2
        printf '%s\n' "$prof_out" >&2
        exit 1
    fi
    if ! printf '%s' "$prof_out" | grep -q 'torn entries in dump    :          0'; then
        echo "FAIL: the at-rest flight dump has torn entries" >&2
        printf '%s\n' "$prof_out" >&2
        exit 1
    fi
    if ! printf '%s' "$prof_out" | grep -q 'match: yes'; then
        echo "FAIL: perf-map symbols disagree with the resident variant set" >&2
        printf '%s\n' "$prof_out" >&2
        exit 1
    fi
    if ! printf '%s' "$prof_out" | grep -q 'bytes of valid JSON'; then
        echo "FAIL: merged span+flight chrome export missing" >&2
        printf '%s\n' "$prof_out" >&2
        exit 1
    fi

    # brew-inspect smoke: the demo generates a dump + perf map through a
    # real manager and must cross-reference every live publish.
    inspect_out="$(cargo run --release --offline -p brew-bench --bin brew-inspect -- --demo)"
    if ! printf '%s' "$inspect_out" | grep -q '# flight timeline'; then
        echo "FAIL: brew-inspect --demo rendered no timeline" >&2
        printf '%s\n' "$inspect_out" >&2
        exit 1
    fi
    if ! printf '%s' "$inspect_out" | grep -Eq '([1-9][0-9]*)/\1 live publishes match a map line'; then
        echo "FAIL: brew-inspect cross-reference mismatch (live publishes vs perf map)" >&2
        printf '%s\n' "$inspect_out" >&2
        exit 1
    fi
    echo "profiling gate passed (recorder under the bar, symbols consistent)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "equiv" ]; then
    echo "==> equivalence gate (symbolic translation validation, V2)"
    cargo test --release --offline -q -p brew-verify --test determinism
    cargo test --release --offline -q -p brew-core --test publish_gate

    # The V2 experiment is the acceptance bar (EXPERIMENTS.md V2): the
    # prover accepts every clean corpus variant under every pass point,
    # rejects 100% of the regalloc-shaped miscompiles (which only the
    # equivalence rule can see), and the proof-gated aggressive coalescer
    # lands the E2 emission at or under the instruction gate with the
    # ladder monotone.
    v2_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp v2)"
    if ! printf '%s' "$v2_out" | grep -q ' 0 equivalence rejections, 0 total errors'; then
        echo "FAIL: the equivalence prover rejected a clean variant" >&2
        printf '%s\n' "$v2_out" >&2
        exit 1
    fi
    if ! printf '%s' "$v2_out" | grep -q 'conservative re-emissions : 0 '; then
        echo "FAIL: a clean variant needed the conservative re-emission (prover gap)" >&2
        printf '%s\n' "$v2_out" >&2
        exit 1
    fi
    if ! printf '%s' "$v2_out" | grep -q 'miscompile kinds          : 7/7 fully detected'; then
        echo "FAIL: a pass-shaped miscompile kind escaped the prover" >&2
        printf '%s\n' "$v2_out" >&2
        exit 1
    fi
    if ! printf '%s' "$v2_out" | grep -q 'ladder monotone           : yes'; then
        echo "FAIL: the E2 instruction ladder regressed" >&2
        printf '%s\n' "$v2_out" >&2
        exit 1
    fi
    agg="$(printf '%s\n' "$v2_out" | sed -n 's/^aggressive E2             : \([0-9][0-9]*\) instructions.*/\1/p')"
    if [ -z "$agg" ] || [ "$agg" -gt 27 ]; then
        echo "FAIL: aggressive E2 is ${agg:-?} instructions (gate <= 27)" >&2
        printf '%s\n' "$v2_out" >&2
        exit 1
    fi

    # The prover must not panic on malformed input paths: no unwrap in
    # the brew-verify library code (tests are exempt).
    echo "==> clippy unwrap audit (brew-verify lib)"
    cargo clippy -p brew-verify --no-deps --offline -q -- -D clippy::unwrap_used
    echo "equivalence gate passed (aggressive E2 ${agg} insts, 7/7 kinds rejected, no re-emission)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "regalloc" ]; then
    echo "==> generated-code gate (differential corpus, E2 size, A2 monotonicity, sweep vs apply)"
    # The soundness contract: every generator-corpus program runs
    # bit-identically at OptLevel::Regalloc and the level below it, and at
    # OptLevel::Dataflow (constant propagation + dead-code sweep) and below,
    # neither ever retires more instructions (the dataflow passes: nor emit
    # more bytes), and the static verifier accepts every optimized variant
    # with zero findings (including the §V workload variants).
    cargo test --release --offline -q -p brew-suite --test regalloc_differential
    cargo test --release --offline -q -p brew-suite --test differential

    # E2: the specialized stencil body must stay within budget (paper ~20
    # insts; pre-allocation we measured 74): <= 31 as emitted by default,
    # <= 27 with the proof-gated aggressive coalescing.
    e2_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp e2)"
    e2_insts="$(printf '%s' "$e2_out" | sed -n 's/^\([0-9][0-9]*\) instructions.*/\1/p' | head -n 1)"
    e2_aggr="$(printf '%s' "$e2_out" | sed -n 's/^with aggressive coalescing.*: \([0-9][0-9]*\) instructions.*/\1/p' | head -n 1)"
    if [ -z "$e2_insts" ] || [ -z "$e2_aggr" ]; then
        echo "FAIL: no instruction counts in tables --exp e2 output" >&2
        exit 1
    fi
    if [ "$e2_insts" -gt 31 ] || [ "$e2_aggr" -gt 27 ]; then
        echo "FAIL: E2 specialized body is ${e2_insts} instructions (gate <= 31), ${e2_aggr} aggressive (gate <= 27)" >&2
        printf '%s\n' "$e2_out" >&2
        exit 1
    fi

    # A2: each added level may never make the code slower — the ladder's
    # model-cycle column must be monotone non-increasing over one row per
    # OptLevel (the experiment prints how many that is). The table of
    # instructions removed per pass rides along for the log; its slot-alloc
    # line counts conversions, and a slot allocator that converts nothing
    # on `apply` is a dead phase.
    a2_out="$(cargo run --release --offline -p brew-bench --bin tables -- --exp a2)"
    a2_cycles="$(printf '%s\n' "$a2_out" | awk 'NF >= 4 && $(NF-2) ~ /^[0-9]+$/ { print $(NF-2) }')"
    rows="$(printf '%s\n' "$a2_cycles" | wc -l)"
    levels="$(printf '%s\n' "$a2_out" | sed -n 's/^ladder rows : \([0-9][0-9]*\) .*/\1/p')"
    if [ -z "$levels" ] || [ "$rows" -ne "$levels" ]; then
        echo "FAIL: A2 ladder has ${rows} rows (expected ${levels:-?}, one per OptLevel)" >&2
        printf '%s\n' "$a2_out" >&2
        exit 1
    fi
    prev=""
    for c in $a2_cycles; do
        if [ -n "$prev" ] && [ "$c" -gt "$prev" ]; then
            echo "FAIL: A2 ladder regressed: ${prev} -> ${c} model cycles" >&2
            printf '%s\n' "$a2_out" >&2
            exit 1
        fi
        prev="$c"
    done
    printf '%s\n' "$a2_out" | sed -n '/^### instructions removed/,$p'
    converted="$(printf '%s\n' "$a2_out" | awk '$1 == "slot-alloc" { print $2 }')"
    if [ -z "$converted" ] || [ "$converted" -eq 0 ]; then
        echo "FAIL: the slot allocator converted ${converted:-no} accesses on apply" >&2
        exit 1
    fi

    # §V.B: rewriting the whole sweep must beat calling the specialized
    # apply from the generic loop (E4's unroll=4 row against E1's).
    e14_out="$(cargo run --release --offline -p brew-bench --bin tables -- e1 e4)"
    apply_cycles="$(printf '%s\n' "$e14_out" | awk '/^BREW-specialized apply/ { print $(NF-2) }')"
    sweep_cycles="$(printf '%s\n' "$e14_out" | awk '/^sweep rewrite, unroll=4/ { print $(NF-2) }')"
    if [ -z "$apply_cycles" ] || [ -z "$sweep_cycles" ]; then
        echo "FAIL: no sweep/apply cycle counts in tables e1 e4 output" >&2
        exit 1
    fi
    if [ "$sweep_cycles" -ge "$apply_cycles" ]; then
        echo "FAIL: whole-sweep rewrite (${sweep_cycles} cycles) does not beat the specialized apply (${apply_cycles})" >&2
        printf '%s\n' "$e14_out" >&2
        exit 1
    fi
    echo "generated-code gate passed (E2 ${e2_insts}/${e2_aggr} insts, A2 monotone over ${rows} rows, sweep ${sweep_cycles} < apply ${apply_cycles} cycles)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "hotpath" ]; then
    echo "==> hot-path gate (no SipHash map per traced, verified or emulated instruction)"
    # These files run once per instruction of every gated miss (tracer,
    # structural tier) or of every emulated call. Their maps are keyed by
    # guest addresses and frame offsets the program made itself, so they use
    # brew_x86::WordMap/WordSet or a plain index; `HashMap::new()` and
    # `HashSet::new()` exist only for the default hasher.
    hot="crates/core/src/tracer.rs crates/core/src/exec.rs
        crates/verify/src/stack.rs crates/verify/src/cfg.rs crates/verify/src/mem.rs
        crates/emu/src/machine.rs"
    for f in $hot; do
        # The eager oracle in mem.rs is test-only and keeps std's hasher on
        # purpose; everything from its `#[cfg(test)]` on is exempt.
        if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'Hash\(Map\|Set\)::new()'; then
            echo "FAIL: default-hasher map on a per-instruction path in $f" >&2
            exit 1
        fi
    done
    # The image's page store sits under every guest load, store and fetch of
    # all of the above: a table of once-published atomic pages, no lock and
    # no hash map. Only the symbol table (names from outside the process,
    # never on an instruction's path) keeps its `RwLock<HashMap>`.
    if sed '/^#\[cfg(test)\]/,$d' crates/image/src/lib.rs |
        grep -n 'HashMap\|RwLock' | grep -v 'symbol\|^[0-9]*:use std::'; then
        echo "FAIL: lock or hash map outside the symbol table in crates/image/src/lib.rs" >&2
        exit 1
    fi
    echo "hot-path gate passed"
fi

if [ "$stage" = "all" ] || [ "$stage" = "bench" ]; then
    echo "==> benchmark gate (benchmark/ builds, smoke run, determinism)"
    # benchmark/ is not a workspace member: nothing above compiles it, so a
    # facade break in crates/* would otherwise surface only in the driver.
    # `run --smoke` exits non-zero on any failed operation or output
    # mismatch; `check-determinism` on any byte that differs between runs.
    cargo test --offline --manifest-path benchmark/Cargo.toml
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- check-determinism
    echo "benchmark gate passed (facade intact, outputs checked, deterministic section repeats)"
fi

echo "All checks passed ($stage)."
