#!/usr/bin/env bash
# Slab-data-plane grep gate: the mine → fuse hot path must stay on the
# columnar PatternPool slab — no layer may reintroduce the legacy
# Vec<Pattern> copying idioms (per-pattern tid-set clones into index
# arenas, cloned shard sub-pools, pattern clones into the archive).
#
# Rules 13 and 14 keep two more single-copy invariants: only the
# out-of-core backend writes files, and `env.rs` is the one reader of the
# environment.
#
# Non-test source only (everything above `#[cfg(test)]`), line comments
# stripped. Run from the workspace root; CI runs it in the build-test job.
set -eu

fail=0

# Non-test, non-comment source of a file.
strip() {
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$1" | sed 's://.*$::'
}

check_absent() { # file, pattern, message
    local file="$1" pattern="$2" message="$3"
    if strip "$file" | grep -En "$pattern" >/dev/null; then
        echo "FAIL $file: $message"
        echo "  offending lines:"
        strip "$file" | grep -En "$pattern" | sed 's/^/    /'
        fail=1
    else
        echo "ok   $file: $message"
    fi
}

# check_absent over many files, reporting one line when all are clean.
check_absent_in() { # pattern, message, files...
    local pattern="$1" message="$2" file clean=1
    shift 2
    for file in "$@"; do
        if strip "$file" | grep -En "$pattern" >/dev/null; then
            check_absent "$file" "$pattern" "$message"
            clean=0
        fi
    done
    if [ "$clean" -eq 1 ]; then
        echo "ok   $# files: $message"
    fi
}

# 1. The ball index borrows slab rows: it must never touch an owned
#    tid-set (no `.tids`, no `blocks()` copying into private arenas).
check_absent crates/core/src/ball.rs \
    '\.tids|blocks\(\)|AlignedWords' \
    'no owned tid-sets / word arenas (index borrows slab rows)'

# 2. The shard runner partitions by row-id lists over one shared slab: no
#    cloned Vec<Pattern> sub-pools, no per-pattern tid clones.
check_absent crates/core/src/shard.rs \
    'sub(_pool)?\s*:\s*Vec<Pattern>|\.tids\.clone|patterns\.clone\(\)' \
    'no cloned sub-pools (shards are row-id lists)'

# 3. The iteration loop interns rows: the archive must be row ids, never
#    cloned patterns.
check_absent crates/core/src/algorithm.rs \
    'archive\s*:\s*Vec<Pattern>|iter\(\)\.cloned\(\)' \
    'archive holds row ids, not cloned patterns'

# 4. The initial-pool miner emits straight into the slab: the engine's
#    mine path must not materialize PoolPattern vectors.
check_absent crates/core/src/algorithm.rs \
    'cfp_miners::initial_pool(_stratified)?\(' \
    'engine mines into the slab, not the Vec materialization'

# 5. The out-of-core spill streams shard rows from the base slab borrows
#    (`dump_slab_rows_path`): no whole-slab permuted copy, no cloned slab
#    or sub-pool materialization on the spill/load path.
check_absent crates/core/src/oocore.rs \
    '\.permuted\(|pool\.clone\(\)|slab\.clone\(\)|base\.clone\(\)|base_pool\(\)\.clone' \
    'spill streams rows from the shared base slab (no whole-slab copies)'

# 6. The slab writer serializes from column borrows; it must never
#    assemble an intermediate PatternPool or clone columns to write them.
check_absent crates/itemset/src/slab_io.rs \
    'permuted\(|\.to_vec\(\)|clone\(\)' \
    'slab writer streams column borrows (no intermediate pool or column copies)'

# 7. The subprocess executor pipes base-slab row borrows to its
#    `shard-host --stdio` child as frames (`converse`): no cloned sub-pools
#    or whole-slab copies may appear on the pipe path (config/path clones
#    are fine).
check_absent crates/core/src/executor.rs \
    'pool\.clone\(\)|slab\.clone\(\)|base\.clone\(\)|\.permuted\(|Vec<Pattern>|\.tids\.clone' \
    'pipes stream slab rows to workers (no cloned sub-pools or slab copies)'

# 8. The networked executor frames each shard's sub-pool over TCP straight
#    from base-slab row borrows (`write_slab_rows` into the chunking
#    FrameSink) and decodes archives from the framed byte stream: no
#    cloned sub-pools or whole-slab copies on the wire path either.
check_absent crates/core/src/net.rs \
    'pool\.clone\(\)|slab\.clone\(\)|base\.clone\(\)|\.permuted\(|Vec<Pattern>|\.tids\.clone' \
    'wire interchange streams slab rows (no cloned sub-pools or slab copies)'

# 9. The query service renders every reply straight from generation slab
#    borrows (`items_of` / `words_of` / `support`): no per-request slab,
#    pattern, or tid-set copies on the read path (session overlays fork
#    the Arc-shared frozen base; only `put` owns its interned patterns).
check_absent crates/core/src/serve.rs \
    'pool\.clone\(\)|slab\.clone\(\)|base\.clone\(\)|\.permuted\(|\.tids\.clone|materialize\(' \
    'service read path renders from slab borrows (no per-request copies)'

# 10. The incremental delta driver builds each generation by splicing
#     clean subtree spans out of the previous plain slab and sharing the
#     result (`PoolStore::from_shared`): no whole-slab or sub-pool copies
#     may appear on the append path (the cached FusionResult is a result,
#     not a pool copy, and is allowed).
check_absent crates/core/src/delta.rs \
    'plain\.clone\(\)|pool\.clone\(\)|slab\.clone\(\)|base\.clone\(\)|\.permuted\(|\.tids\.clone|materialize\(' \
    'delta append splices spans and shares the slab (no whole-pool copies)'

# 11. Sharded runs deal the one mined slab as a stratified row list: no
#     engine layer may mine, copy or permute a stratified second slab.
for file in algorithm delta engine executor oocore; do
    check_absent "crates/core/src/$file.rs" \
        'initial_pool_slab_stratified|stratified_copy|\.permuted\(' \
        'shards deal the one mined slab (no stratified pool copy)'
done

# 12. One pool miner: the engine and the delta driver drive
#     `delta_pool_slab` from the vertical index they already hold, so
#     neither may call the `initial_pool_slab` wrapper, which builds a
#     second index per mine.
for file in algorithm delta; do
    check_absent "crates/core/src/$file.rs" \
        'initial_pool_slab\(' \
        'mines from its own vertical index (no initial_pool_slab)'
done

# 13. The wire path writes no files: the process and remote backends keep
#     the pool resident and mine an empty or fallen-back shard over it, so
#     only the out-of-core backend (`oocore.rs`) spills.
for file in executor net; do
    check_absent "crates/core/src/$file.rs" \
        'spill_sub_pools|slab_io::dump|load_slab_path|std::fs::' \
        'the wire path writes no files (only the out-of-core backend spills)'
done

# 14. The environment has one reader: `env.rs` decodes every `CFP_*`
#     variable and the library takes its settings as config values. Only
#     the kernel layer, below cfp-core, reads `CFP_KERNEL_BACKEND` itself,
#     and only `config.rs` (`FusionConfig::new`'s sharding) calls into
#     `env.rs` from inside cfp-core.
check_absent_in 'std::env::var' \
    'reads no environment variable outside env.rs and the kernel layer' \
    $(find crates/core/src crates/itemset/src crates/miners/src src -name '*.rs' \
        ! -path crates/core/src/env.rs ! -path crates/itemset/src/kernels/mod.rs | sort)
check_absent_in 'crate::env::' \
    'takes its settings as config values (no crate::env:: outside env.rs and config.rs)' \
    $(find crates/core/src -name '*.rs' ! -name env.rs ! -name config.rs | sort)

if [ "$fail" -ne 0 ]; then
    echo "slab hot-path gate failed: a rule above no longer holds (see its FAIL lines)"
    exit 1
fi
echo "slab hot-path gate passed"
