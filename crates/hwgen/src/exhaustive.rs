//! The exact hardware generation tool (paper §3.3).
//!
//! "In general, the hardware generation tool is composed as an outer loop
//! enclosing the cost estimation tool. By using exact algorithms such as
//! exhaustive search or branch-and-bound algorithms, it outputs the optimal
//! solution for the given network architecture, within the hardware search
//! space H." Both exact algorithms are provided; they agree on the optimum
//! and branch-and-bound merely prunes work.

use dance_accel::config::AcceleratorConfig;
use dance_accel::space::HardwareSpace;
use dance_accel::workload::{Network, SlotChoice};
use dance_cost::metrics::CostFunction;
use dance_cost::model::{CostModel, Detail, HardwareCost};

use crate::table::{CostTable, CFG_CHUNK};

/// Result of an exact hardware search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The optimal configuration.
    pub config: AcceleratorConfig,
    /// Its canonical index in the space.
    pub config_index: usize,
    /// The metrics at the optimum.
    pub cost: HardwareCost,
    /// The scalar cost value at the optimum.
    pub value: f64,
    /// How many configurations were fully evaluated.
    pub evaluated: usize,
}

/// Exhaustive search over an arbitrary [`Network`] (no table needed).
///
/// This is the general-purpose path: it prices every configuration in the
/// space with the full cost model. The space is scanned in the fixed
/// 64-configuration index ranges [`CostTable::new`] uses, on the backend
/// pool. Each chunk keeps its first strict minimum and the chunk minima are
/// merged in index order with the same strict `<`, so the result is the
/// first strict minimum of a sequential scan, bit-identical at any
/// `DANCE_THREADS`.
pub fn exhaustive_search(
    network: &Network,
    space: &HardwareSpace,
    model: &CostModel,
    cost_fn: &CostFunction,
) -> SearchResult {
    let n_cfg = space.len();
    let network = network.clone();
    let (space, model, cost_fn) = (*space, *model, *cost_fn);
    let chunk_minima = dance_backend::run(n_cfg.div_ceil(CFG_CHUNK), move |chunk_idx| {
        let start = chunk_idx * CFG_CHUNK;
        let mut best: Option<SearchResult> = None;
        for idx in start..(start + CFG_CHUNK).min(n_cfg) {
            let config = space.config_at(idx);
            let cost = model.evaluate(&network, &config, Detail::Totals).total;
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
        best
    });
    let mut r = chunk_minima
        .into_iter()
        .flatten()
        .reduce(|best, c| if c.value < best.value { c } else { best })
        .expect("hardware space is never empty");
    r.evaluated = n_cfg;
    r
}

/// Exhaustive search accelerated by a precomputed [`CostTable`].
pub fn exhaustive_search_table(
    table: &CostTable,
    choices: &[SlotChoice],
    cost_fn: &CostFunction,
) -> SearchResult {
    let (idx, cost) = table.optimal(choices, cost_fn);
    SearchResult {
        config: table.space().config_at(idx),
        config_index: idx,
        cost,
        value: cost_fn.apply(&cost),
        evaluated: table.space().len(),
    }
}

/// Branch-and-bound exact search.
///
/// Configurations are visited in ascending order of an *admissible lower
/// bound* (compute-bound latency at full utilization, compulsory-traffic
/// energy, exact area); a configuration whose bound already exceeds the
/// incumbent cannot contain the optimum and is pruned. Returns the same
/// optimum as [`exhaustive_search`], with `evaluated` counting only the
/// configurations that were fully priced.
pub fn branch_and_bound(
    network: &Network,
    space: &HardwareSpace,
    model: &CostModel,
    cost_fn: &CostFunction,
) -> SearchResult {
    use dance_cost::energy::{
        rf_access_pj, DRAM_PJ, LEAKAGE_PJ_PER_CYCLE_PER_PE, MAC_PJ, RF_ACCESSES_PER_MAC, SRAM_PJ,
    };
    use dance_cost::mapping::DRAM_WORDS_PER_CYCLE;
    use dance_cost::model::CLOCK_GHZ;

    let macs: u64 = network.layers().iter().map(|l| l.macs()).sum();
    // Every word of every tensor crosses SRAM and DRAM at least once.
    let compulsory: u64 = network
        .layers()
        .iter()
        .map(|l| l.weight_words() + l.input_words() + l.output_words())
        .sum();

    // Admissible lower bounds per configuration: latency at 100% utilization
    // bounded below also by compulsory memory traffic; energy counting MACs,
    // minimal RF traffic, compulsory SRAM/DRAM words and leakage over the
    // latency bound; exact area.
    let bound = |cfg: &AcceleratorConfig| -> f64 {
        let pes = cfg.num_pes() as f64;
        let cycles_lb = (macs as f64 / pes)
            .max(compulsory as f64 / (cfg.pe_x() + cfg.pe_y()) as f64)
            .max(compulsory as f64 / DRAM_WORDS_PER_CYCLE);
        let lat_lb = cycles_lb / (CLOCK_GHZ * 1e9) * 1e3;
        let energy_lb = (macs as f64
            * (MAC_PJ + RF_ACCESSES_PER_MAC * rf_access_pj(cfg.rf_size()))
            + compulsory as f64 * (SRAM_PJ + DRAM_PJ)
            + cycles_lb * pes * LEAKAGE_PJ_PER_CYCLE_PER_PE)
            * 1e-9;
        let area = dance_cost::area::area_mm2(cfg);
        cost_fn.apply(&HardwareCost {
            latency_ms: lat_lb,
            energy_mj: energy_lb,
            area_mm2: area,
        })
    };

    // Visit in bound order so the incumbent tightens quickly.
    let mut order: Vec<(usize, f64)> = (0..space.len())
        .map(|i| (i, bound(&space.config_at(i))))
        .collect();
    order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    let mut best: Option<SearchResult> = None;
    let mut evaluated = 0usize;
    for (idx, lb) in order {
        if let Some(b) = &best {
            if lb >= b.value {
                // Bounds are sorted: everything later is also prunable.
                break;
            }
        }
        let config = space.config_at(idx);
        let cost = model.evaluate(network, &config, Detail::Totals).total;
        let value = cost_fn.apply(&cost);
        evaluated += 1;
        if best.as_ref().map_or(true, |b| value < b.value) {
            best = Some(SearchResult {
                config,
                config_index: idx,
                cost,
                value,
                evaluated,
            });
        }
    }
    let mut r = best.expect("hardware space is never empty");
    r.evaluated = evaluated;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_accel::workload::NetworkTemplate;
    use dance_cost::metrics::CostWeights;

    fn net() -> Network {
        NetworkTemplate::cifar10().instantiate(
            &[SlotChoice::MbConv {
                kernel: 3,
                expand: 6,
            }; 9],
        )
    }

    #[test]
    fn exhaustive_finds_global_minimum() {
        let space = HardwareSpace::new();
        let model = CostModel::new();
        let r = exhaustive_search(&net(), &space, &model, &CostFunction::Edap);
        assert_eq!(r.evaluated, 4335);
        // Verify against a coarse scan.
        for i in (0..space.len()).step_by(29) {
            let c = model
                .evaluate(&net(), &space.config_at(i), Detail::Totals)
                .total;
            assert!(c.edap() >= r.value - 1e-12);
        }
    }

    #[test]
    fn branch_and_bound_matches_exhaustive() {
        let space = HardwareSpace::new();
        let model = CostModel::new();
        for cf in [
            CostFunction::Edap,
            CostFunction::Linear(CostWeights::table2()),
            CostFunction::Linear(CostWeights {
                lambda_l: 1.0,
                lambda_e: 0.0,
                lambda_a: 0.0,
            }),
        ] {
            let ex = exhaustive_search(&net(), &space, &model, &cf);
            let bb = branch_and_bound(&net(), &space, &model, &cf);
            assert_eq!(ex.config, bb.config, "{cf}");
            assert!((ex.value - bb.value).abs() < 1e-12);
        }
    }

    #[test]
    fn branch_and_bound_prunes_under_latency_cost() {
        // The admissible bound is tight on the latency axis (compute- and
        // bandwidth-bound floors), so a latency-weighted cost function gives
        // real pruning: small arrays are provably slower than the incumbent.
        let space = HardwareSpace::new();
        let model = CostModel::new();
        let cf = CostFunction::Linear(CostWeights {
            lambda_l: 1.0,
            lambda_e: 0.0,
            lambda_a: 0.0,
        });
        let bb = branch_and_bound(&net(), &space, &model, &cf);
        assert!(
            bb.evaluated < space.len(),
            "no pruning happened: {} evaluations",
            bb.evaluated
        );
    }

    #[test]
    fn table_search_matches_direct_search() {
        let space = HardwareSpace::new();
        let model = CostModel::new();
        let template = NetworkTemplate::cifar10();
        let table = CostTable::new(&template, &model, &space);
        let choices = [SlotChoice::MbConv {
            kernel: 7,
            expand: 3,
        }; 9];
        let network = template.instantiate(&choices);
        for cf in [
            CostFunction::Edap,
            CostFunction::Linear(CostWeights::table2()),
        ] {
            let direct = exhaustive_search(&network, &space, &model, &cf);
            let tabled = exhaustive_search_table(&table, &choices, &cf);
            assert_eq!(direct.config, tabled.config, "{cf}");
            assert!((direct.value - tabled.value).abs() < 1e-9);
        }
    }
}
