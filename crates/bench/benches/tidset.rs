//! Micro-benchmarks for the tid-set kernels: packed-bitset operations vs a
//! sorted tid-list alternative, at the paper's two universe sizes (ALL: 38
//! transactions; Replace: 4 395).

use cfp_itemset::TidSet;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Sorted-vector tid-list — the representation the bitset replaced.
fn intersect_sorted(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn random_tids(rng: &mut StdRng, universe: usize, density: f64) -> Vec<u32> {
    (0..universe as u32)
        .filter(|_| rng.gen_bool(density))
        .collect()
}

fn bench_tidset(c: &mut Criterion) {
    let mut group = c.benchmark_group("tidset");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for &universe in &[38usize, 4395] {
        let mut rng = StdRng::seed_from_u64(1);
        let av = random_tids(&mut rng, universe, 0.6);
        let bv = random_tids(&mut rng, universe, 0.6);
        let a = TidSet::from_tids(universe, av.iter().map(|&x| x as usize));
        let b = TidSet::from_tids(universe, bv.iter().map(|&x| x as usize));

        group.bench_with_input(
            BenchmarkId::new("bitset_intersection_count", universe),
            &universe,
            |bench, _| bench.iter(|| black_box(&a).intersection_count(black_box(&b))),
        );
        group.bench_with_input(
            BenchmarkId::new("tidlist_intersection_count", universe),
            &universe,
            |bench, _| bench.iter(|| intersect_sorted(black_box(&av), black_box(&bv))),
        );
        group.bench_with_input(
            BenchmarkId::new("bitset_jaccard", universe),
            &universe,
            |bench, _| bench.iter(|| black_box(&a).jaccard_distance(black_box(&b))),
        );
        group.bench_with_input(
            BenchmarkId::new("bitset_clone_intersect", universe),
            &universe,
            |bench, _| bench.iter(|| black_box(&a).intersection(black_box(&b)).count()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tidset);
criterion_main!(benches);
