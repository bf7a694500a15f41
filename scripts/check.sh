#!/usr/bin/env sh
# The CI gate, runnable locally. Everything is offline by design: the one
# dev-dependency resolves to an in-tree stub (DESIGN.md §6).
#
#   scripts/check.sh            # every stage
#   scripts/check.sh <stage>    # one stage
#   scripts/check.sh --list     # the stage names, one per line
#
# Each stage is the release run of the test targets that own its gates. The
# reproduction's gates (EXPERIMENTS.md) are the tests of
# crates/bench/tests/gates.rs, selected by the stage's name as a prefix;
# `tables_` is the pinned text of a full `tables` run (what EXPERIMENTS.md
# quotes) and `e2_` the E2 instruction ladder. Only three bars are
# wall-clock, and the `bench` stage reads them off the benchmark's smoke run.
set -eu

cd "$(dirname "$0")/.."

STAGES="check stress obs lifecycle verify tier serve prof equiv regalloc hotpath bench"

t() { cargo test --release --offline -q "$@"; }
gates() { t -p brew-bench --test gates -- "$@"; }
fail() {
    echo "FAIL: $*" >&2
    exit 1
}

stage_check() {
    cargo fmt --all --check
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo build --release --workspace --offline
    cargo test --workspace --offline -q
    ci="$(sed -n 's/^ *stage: \[\(.*\)\]$/\1/p' .github/workflows/ci.yml | tr -d ',')"
    [ "$ci" = "$STAGES" ] || fail "ci.yml runs [$ci], check.sh --list says [$STAGES]"
}

stage_stress() {
    for ex in quickstart stencil pgas guarded dispatch parallel telemetry; do
        cargo run --release --offline --example "$ex" >/dev/null
    done
    t -p brew-core --test concurrent
    t -p brew-suite --test differential
}

stage_obs() {
    gates obs_ tables_
    cargo run --release --offline --example telemetry >/dev/null
}

stage_lifecycle() {
    t -p brew-core --test lifecycle
    gates lifecycle_
}

stage_verify() {
    t -p brew-verify
    gates verify_
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline >/dev/null
}

stage_tier() {
    t -p brew-core --test tiering
    gates tier_
}

stage_serve() {
    t -p brew-core --test serving
    t -p brew-verify --test persist_corruption
    t -p brew-suite --test persist_roundtrip
    gates serve_
}

stage_prof() {
    t -p brew-core --test flight
    gates prof_
}

stage_equiv() {
    t -p brew-verify --test determinism
    t -p brew-core --test publish_gate
    gates equiv_ e2_
    # The prover must not panic on malformed input: no unwrap in the
    # brew-verify library code (tests are exempt).
    cargo clippy -p brew-verify --no-deps --offline -q -- -D clippy::unwrap_used
    # Nor the decoder on whatever the JIT segment holds.
    cargo clippy -p brew-x86 --no-deps --offline -q -- -D clippy::unwrap_used -D clippy::expect_used
}

stage_regalloc() {
    # The allocator's own unit tests: the frame-reload rule's kill checks
    # each have one, and so does each guard of the stack-pair rule.
    t -p brew-core --lib regalloc::
    t -p brew-suite --test regalloc_differential
    # The allocator's def/use is the operand-role table's; the emulator
    # differential is its only second opinion.
    t -p brew-emu --test defuse_differential
    t -p brew-suite --test differential
    gates regalloc_ e2_
}

# These files run once per instruction of every gated miss (tracer, world,
# optimization passes, structural tier, equivalence proof) or of every
# emulated call (the code table is under both). Their maps are keyed by guest
# addresses, registers, block indices and frame offsets the program made
# itself, so they use brew_x86::WordMap/WordSet, a bitset, a sorted vector or
# a plain index;
# `HashMap::new()` and `HashSet::new()` exist only for the default hasher,
# and a `BTreeMap` pays a tree walk per key where two of them are compared.
stage_hotpath() {
    for f in crates/core/src/tracer.rs crates/core/src/exec.rs crates/core/src/world.rs \
        crates/core/src/passes.rs crates/core/src/regalloc.rs \
        crates/core/src/dataflow/*.rs \
        crates/verify/src/stack.rs crates/verify/src/cfg.rs crates/verify/src/mem.rs \
        crates/verify/src/equiv.rs crates/verify/src/term.rs crates/verify/src/frame.rs \
        crates/x86/src/codetab.rs crates/x86/src/form.rs crates/emu/src/machine.rs; do
        # A listed file that is gone would pass the grep below unseen.
        [ -f "$f" ] || fail "$f is listed but does not exist"
        # The eager oracle in mem.rs is test-only and keeps std's hasher on
        # purpose; everything from its `#[cfg(test)]` on is exempt.
        if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'Hash\(Map\|Set\)::new()\|BTreeMap::new()'; then
            fail "default-hasher or tree map on a per-instruction path in $f"
        fi
    done
    # The proof's fixpoint takes its pending blocks lowest reverse-postorder
    # position first, each pending once; a FIFO walks a block once per
    # predecessor that changed it.
    if sed '/^#\[cfg(test)\]/,$d' crates/verify/src/equiv.rs | grep -n 'VecDeque'; then
        fail "a FIFO in the equivalence proof (crates/verify/src/equiv.rs)"
    fi
    # `RewriteConfig::func_opts` is built in config.rs, out of the loop's
    # sight, on the default hasher (its keys come with the request): the
    # per-instruction dispatcher reads the options its `TraceCtx` carries.
    if sed -n '/fn exec_inst(/,/^    }$/p' crates/core/src/exec.rs | grep -n 'opts_for'; then
        fail "exec_inst looks options up per traced instruction"
    fi
    # The image's page store sits under every guest load, store and fetch of
    # all of the above: a table of once-published atomic pages, no lock and
    # no hash map. Only the symbol table keeps its `RwLock<HashMap>`: names
    # from outside the process, read where a rewrite is explained or refused
    # — the tracer resolves a callee's name only for an attached recorder.
    if sed '/^#\[cfg(test)\]/,$d' crates/image/src/lib.rs |
        grep -n 'HashMap\|RwLock' | grep -v 'symbol\|^[0-9]*:use std::'; then
        fail "lock or hash map outside the symbol table in crates/image/src/lib.rs"
    fi
    # A manager hit is a lock-free cache probe plus one `note` into the
    # registry and the journal — the only two places a decision is written.
    if sed '/^#\[cfg(test)\]/,$d' crates/core/src/manager/mod.rs | grep -n 'RwLock\|EventSink'; then
        fail "a lock or a second decision channel in crates/core/src/manager/mod.rs"
    fi
    # The manager chooses in one pure function: the decision core names no
    # lock, atomic, journal, image, unwind or clock — the shell does that.
    if sed '/^#\[cfg(test)\]/,$d' crates/core/src/manager/decide.rs |
        grep -n 'Mutex\|Atomic\|\.lock(\|note(\|Image\|catch_unwind\|Instant'; then
        fail "a side effect in the decision core (crates/core/src/manager/decide.rs)"
    fi
    # Every manager decision runs on the caller's thread: the manager spawns
    # no thread and parks none on a condition variable of its own.
    for f in crates/core/src/manager/*.rs; do
        if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'thread::scope\|thread::spawn\|Condvar'; then
            fail "a thread or a condvar in the manager ($f)"
        fi
    done
    # Every byte the decoder and the encoder know (prefix, REX, opcode,
    # ModRM/SIB) is a row or a rule of the instruction-form table; the two
    # entry points only call it.
    for f in crates/x86/src/decode.rs crates/x86/src/encode.rs; do
        if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '0x[0-9A-Fa-f]{2}\b'; then
            fail "an opcode byte outside the form table (crates/x86/src/form.rs) in $f"
        fi
    done
    # What an instruction reads, writes, loads, stores and renames to is one
    # match in crates/x86/src/defuse.rs; no other crate walks `Inst` for it.
    if grep -rnE --include='*.rs' 'fn (map_operands|for_each_read|for_each_write)\b' \
        crates benchmark/src examples tests | grep -v '^crates/x86/src/'; then
        fail "a def/use or operand-mapping walk outside crates/x86/src/"
    fi
    # Whether a frame slot is read again is one answer, the shared liveness
    # (`PassCx::solve` in crates/core/src/dataflow/cx.rs): no pass file
    # keeps slot gen/kill/live-in sets of its own.
    for f in crates/core/src/regalloc.rs crates/core/src/passes.rs; do
        [ -f "$f" ] || fail "$f is listed but does not exist"
        if sed '/^#\[cfg(test)\]/,$d' "$f" |
            grep -nE '\b(gen|kill|live_in|live_out|loaded)\b *: *SlotSet|let mut (gen|kill|live_in|live_out|loaded)\b.*SlotSet'; then
            fail "a frame-slot liveness of its own in $f (read the shared solve)"
        fi
    done
    # A loop closes into what its variants agree on (`World::meet`); the
    # all-unknown world is only the fallback one variant short of the
    # per-address hard cap, and the one call to it sits under that test.
    demoted="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/tracer.rs | grep -n -B1 'fully_demoted')" || true
    if [ "$(printf '%s\n' "$demoted" | grep -c 'fully_demoted')" -ne 1 ] ||
        ! printf '%s\n' "$demoted" | grep -q 'hard_cap('; then
        fail "crates/core/src/tracer.rs falls back to fully_demoted outside its hard-cap fallback"
    fi
    # Every library crate is safe Rust, and says so where the compiler
    # holds it to that: a crate root without the attribute could take
    # `unsafe` back unseen.
    for f in crates/*/src/lib.rs; do
        grep -q '^#!\[forbid(unsafe_code)\]' "$f" || fail "$f does not forbid unsafe_code"
    done
    # The same paths by their work: one decode per distinct address traced,
    # full world comparisons only where a digest matches.
    gates trace_
}

# benchmark/ is not a workspace member: nothing above compiles it, so a
# facade break in crates/* would otherwise surface only in the driver.
# `run --smoke` exits non-zero on any failed operation or output mismatch and
# prints `name value unit` lines under `== <workload> (<mode>) ==` headers;
# `check-determinism` fails on any byte that differs between runs.
stage_bench() {
    b="cargo run --release --offline --manifest-path benchmark/Cargo.toml --"
    cargo test --offline --manifest-path benchmark/Cargo.toml
    smoke="$($b run --smoke)"
    metric() {
        printf '%s\n' "$smoke" | awk -v w="$1" -v mode="($2)" -v m="$3" \
            '$1 == "==" { on = ($2 == w && $3 == mode) } on && $1 == m { print $2; exit }'
    }
    # at_most A K B: A * K <= B, both read. (ns * 100 <= us * 1000, so K = 0.1.)
    at_most() { awk -v a="$1" -v k="$2" -v b="$3" 'BEGIN { exit !(a != "" && b != "" && a * k <= b) }'; }
    denied="$(metric corpus-cold traced manager.denied_ns)"
    cold="$(metric corpus-cold untraced cold_request_us)"
    at_most "$denied" 0.1 "$cold" ||
        fail "a denial (${denied} ns) is not 100x cheaper than the cold request it saves (${cold} us)"
    warm="$(metric serve-hit untraced warm_entry_us)"
    cold="$(metric serve-hit untraced cold_request_us)"
    at_most "$warm" 5 "$cold" ||
        fail "warm start (${warm} us/entry) is not 5x cheaper than a cold request (${cold} us)"
    rec="$(metric corpus-cold traced telemetry.flight_record_ns)"
    at_most "$rec" 1 100 || fail "a flight record costs ${rec} ns (bar: 100)"
    $b check-determinism
}

case "${1:-all}" in
--list) printf '%s\n' $STAGES ;;
all)
    for s in $STAGES; do
        echo "==> $s"
        "stage_$s"
    done
    echo "All checks passed."
    ;;
*)
    case " $STAGES " in
    *" $1 "*)
        "stage_$1"
        echo "All checks passed ($1)."
        ;;
    *) fail "unknown stage '$1'; stages: $STAGES" ;;
    esac
    ;;
esac
