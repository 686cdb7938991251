//! The backend pool must be invisible in results: a search run produces the
//! same architecture digest, epoch statistics, and choices no matter how
//! many worker threads execute the kernels, and the cost table and exact
//! hardware search produce the same bits at any width.
//!
//! Both runs happen in one process via [`dance_backend::set_threads`] — the
//! shapes are sized so the supernet's matmul/conv kernels clear the
//! parallel-dispatch threshold, so the 8-thread run genuinely exercises the
//! chunked kernels rather than falling back to the scalar path.

use std::sync::{Mutex, PoisonError};

use dance::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes the tests of this file: the pool width and the arena switch
/// are process-global, and cargo runs tests concurrently. Each test holds
/// the lock from its first flip to its last, so no other test can change
/// the width under it.
static WIDTH: Mutex<()> = Mutex::new(());

fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    WIDTH.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the bit patterns of the final architecture probabilities —
/// the same fingerprint the `dance_search` CLI prints as `arch-digest`.
fn arch_digest(probs: &[Vec<f32>]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for row in probs {
        for &p in row {
            digest ^= u64::from(p.to_bits());
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// One full (small) search; returns everything the caller compares bit-wise.
fn search_once() -> (u64, Vec<String>, Vec<(u32, u32, u32)>) {
    let task = SynthTask::new(SynthSpec {
        num_classes: 3,
        channels: 4,
        length: 32,
        noise: 0.25,
        distractor: 0.15,
        seed: 7,
    });
    let data = TaskData {
        train: task.generate(128, 1),
        val: task.generate(32, 2),
        test: task.generate(32, 3),
        task,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let net = Supernet::new(
        SupernetConfig {
            input_channels: 4,
            length: 32,
            num_classes: 3,
            stem_width: 12,
            stage_widths: [12, 16, 24],
            head_width: 32,
        },
        &mut rng,
    );
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let template = NetworkTemplate::cifar10();
    let cfg = SearchConfig::builder()
        .epochs(2)
        .batch_size(64)
        .lambda2(LambdaWarmup::ramp(0.3, 1))
        .seed(7)
        .build()
        .expect("determinism test config is statically valid");
    let out = dance_search(&net, &arch, &data, &Penalty::Flops(&template), &cfg);
    let choices: Vec<String> = out.choices.iter().map(ToString::to_string).collect();
    let stats: Vec<(u32, u32, u32)> = out
        .history
        .iter()
        .map(|s| {
            (
                s.train_ce.to_bits(),
                s.hw_cost.to_bits(),
                s.arch_entropy.to_bits(),
            )
        })
        .collect();
    (arch_digest(&out.probs), choices, stats)
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    let _width = width_lock();
    dance_backend::set_threads(1);
    let single = search_once();
    dance_backend::set_threads(8);
    let parallel = search_once();
    dance_backend::set_threads(1);
    assert_eq!(
        single.0, parallel.0,
        "arch-digest differs between 1 and 8 backend threads"
    );
    assert_eq!(single.1, parallel.1, "derived choices differ");
    assert_eq!(
        single.2, parallel.2,
        "per-epoch loss statistics differ bit-wise"
    );
}

#[test]
fn search_is_bit_identical_with_arena_disabled() {
    // The storage arena recycles tape buffers across steps; recycling must
    // be invisible in results exactly like the thread pool is. A fresh-
    // allocation run (`DANCE_ARENA=off` equivalent) must land on the same
    // arch digest, choices, and per-epoch statistics bit for bit.
    let _width = width_lock();
    dance_backend::set_threads(1);
    dance_backend::set_arena_enabled(true);
    let recycled = search_once();
    dance_backend::set_arena_enabled(false);
    dance_backend::storage::clear_arena();
    let fresh = search_once();
    dance_backend::set_arena_enabled(true);
    assert_eq!(
        recycled.0, fresh.0,
        "arch-digest differs between arena-recycled and fresh allocation"
    );
    assert_eq!(recycled.1, fresh.1, "derived choices differ");
    assert_eq!(
        recycled.2, fresh.2,
        "per-epoch loss statistics differ bit-wise"
    );
}

/// Seven architectures in which every slot takes each of the seven
/// candidates exactly once.
fn balanced_archs(slots: usize) -> Vec<Vec<SlotChoice>> {
    let n = SlotChoice::CANDIDATES.len();
    (0..n)
        .map(|j| {
            (0..slots)
                .map(|s| SlotChoice::from_index((j + 3 * s) % n))
                .collect()
        })
        .collect()
}

/// The sequential scan `exhaustive_search` must reproduce: every
/// configuration in index order, keeping the first strict minimum.
fn sequential_scan(
    network: &Network,
    space: &HardwareSpace,
    model: &CostModel,
    cost_fn: &CostFunction,
) -> SearchResult {
    let mut best: Option<SearchResult> = None;
    for (idx, config) in space.iter().enumerate() {
        let cost = model.evaluate(network, &config, Detail::Totals).total;
        let value = cost_fn.apply(&cost);
        if best.as_ref().is_none_or(|b| value < b.value) {
            best = Some(SearchResult {
                config,
                config_index: idx,
                cost,
                value,
                evaluated: 0,
            });
        }
    }
    let mut r = best.expect("hardware space is never empty");
    r.evaluated = space.len();
    r
}

/// Everything of a search result the widths must agree on, as bits.
fn result_bits(r: &SearchResult) -> (usize, u64, [u64; 3], usize) {
    (
        r.config_index,
        r.value.to_bits(),
        r.cost.to_array().map(f64::to_bits),
        r.evaluated,
    )
}

#[test]
fn cost_table_and_exact_search_are_bit_identical_across_thread_counts() {
    let template = NetworkTemplate::cifar10();
    let model = CostModel::new();
    let space = HardwareSpace::new();
    let archs = balanced_archs(template.num_slots());
    let zero = CostWeights {
        lambda_l: 0.0,
        lambda_e: 0.0,
        lambda_a: 0.0,
    };
    let latency_only = CostWeights {
        lambda_l: 1.0,
        ..zero
    };
    let cost_fns = [
        CostFunction::Edap,
        CostFunction::Linear(CostWeights::table2()),
        CostFunction::Linear(latency_only),
        CostFunction::Linear(zero),
    ];

    let _width = width_lock();
    dance_backend::set_threads(1);
    let narrow = CostTable::new(&template, &model, &space);
    dance_backend::set_threads(8);
    let wide = CostTable::new(&template, &model, &space);
    for choices in &archs {
        for idx in 0..space.len() {
            assert_eq!(
                narrow.cost(choices, idx).to_array().map(f64::to_bits),
                wide.cost(choices, idx).to_array().map(f64::to_bits),
                "table cost of {choices:?} on config {idx} differs between 1 and 8 threads"
            );
        }
    }

    for choices in &archs {
        let network = template.instantiate(choices);
        for cost_fn in &cost_fns {
            let reference = result_bits(&sequential_scan(&network, &space, &model, cost_fn));
            assert_eq!(reference.3, space.len());
            if *cost_fn == CostFunction::Linear(zero) {
                assert_eq!(reference.0, 0, "all configurations tie, so index 0 wins");
            }
            for width in [1, 8] {
                dance_backend::set_threads(width);
                let got = exhaustive_search(&network, &space, &model, cost_fn);
                assert_eq!(
                    result_bits(&got),
                    reference,
                    "{cost_fn} at {width} threads differs from the sequential scan for {choices:?}"
                );
                assert_eq!(got.config, space.config_at(got.config_index));
            }
        }
    }
    dance_backend::set_threads(1);
}
