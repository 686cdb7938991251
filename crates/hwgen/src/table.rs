//! Precomputed per-slot cost tables.
//!
//! The hardware generation tool has to price *every* (architecture,
//! accelerator) pair: exhaustive search alone touches all 4335 configs, and
//! evaluator-network training needs millions of ground-truth cases. The key
//! observation is that network cost is additive over layers and the layers
//! contributed by a slot depend only on `(slot, choice)` — 9 × 7 = 63
//! possibilities plus the fixed stem/head. Pricing each of those once per
//! configuration turns a whole-space exhaustive search into ~4335 × 10
//! additions.

use std::sync::Arc;

use dance_accel::space::HardwareSpace;
use dance_accel::workload::{Network, NetworkTemplate, SlotChoice};
use dance_cost::metrics::CostFunction;
use dance_cost::model::{CostModel, Detail, HardwareCost, CLOCK_GHZ};

/// Configurations priced per backend-pool chunk, by [`CostTable::new`] and
/// by [`crate::exhaustive::exhaustive_search`].
///
/// Fixed (never derived from the thread count) so the chunk decomposition —
/// and therefore the assembled table and the search optimum — is identical
/// at any `DANCE_THREADS`.
pub(crate) const CFG_CHUNK: usize = 64;

/// Latency (cycles) and energy (pJ) of a group of layers on one config.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PartialCost {
    cycles: u64,
    energy_pj: f64,
}

/// Precomputed costs of every `(slot, choice)` pair and the fixed stem/head
/// on every configuration of a [`HardwareSpace`].
#[derive(Debug, Clone)]
pub struct CostTable {
    template: NetworkTemplate,
    space: HardwareSpace,
    /// `fixed[cfg]`: stem + head cost.
    fixed: Vec<PartialCost>,
    /// `slot_costs[cfg][slot * 7 + choice]`.
    slot_costs: Vec<Vec<PartialCost>>,
    /// `area[cfg]` in mm².
    area: Vec<f64>,
}

impl CostTable {
    /// Prices the whole template × space cross product once.
    ///
    /// This is the expensive constructor (723,945 layer pricings for the
    /// CIFAR-10 template on the paper space); everything afterwards is table
    /// lookups. Configurations are priced in fixed 64-configuration ranges
    /// on the backend pool, so the table is bit-identical at any thread
    /// count.
    pub fn new(template: &NetworkTemplate, model: &CostModel, space: &HardwareSpace) -> Self {
        let _span = dance_telemetry::span!("cost_table.build");
        let n_cfg = space.len();
        let n_slots = template.num_slots();
        let n_choices = SlotChoice::CANDIDATES.len();

        // Pre-expand layer lists once. Stem + head are recovered from the
        // all-Zero network by stripping the per-slot adapter layers.
        let fixed_layers: Vec<_> = {
            let zero_net = template.instantiate(&vec![SlotChoice::Zero; n_slots]);
            let adapter_count: usize = template
                .slots()
                .iter()
                .filter(|s| !s.is_identity_compatible())
                .map(|s| s.layers(SlotChoice::Zero).len())
                .sum();
            let total = zero_net.layers().len();
            // Stem layers come first, then slot adapters in order, then head.
            // We rebuild stem/head by removing the adapter layers.
            let mut layers = zero_net.layers().to_vec();
            let stem_len = total - adapter_count - 1; // head is 1 layer in both templates
            let head = layers.split_off(total - 1);
            let stem = layers[..stem_len].to_vec();
            let mut v = stem;
            v.extend(head);
            v
        };
        let slot_layer_lists: Vec<Vec<_>> = template
            .slots()
            .iter()
            .flat_map(|slot| {
                SlotChoice::CANDIDATES
                    .iter()
                    .map(move |&choice| slot.layers(choice))
            })
            .collect();

        // Price configuration chunks on the backend pool. Each chunk covers a
        // fixed index range and every per-config value is a pure function of
        // its `cfg_idx`, so reassembling the chunks in index order yields the
        // exact vectors a sequential loop produces. Layer pricing is untimed;
        // each chunk adds the layers it priced to `cost_table.layers` (one
        // record per chunk, 4335 × 167 per CIFAR-10 table).
        let layers_per_cfg =
            fixed_layers.len() + slot_layer_lists.iter().map(Vec::len).sum::<usize>();
        let fixed_layers = Arc::new(fixed_layers);
        let slot_layer_lists = Arc::new(slot_layer_lists);
        let n_chunks = n_cfg.div_ceil(CFG_CHUNK).max(1);
        let (model, space) = (*model, *space);
        let parts = dance_backend::run(n_chunks, move |chunk_idx| {
            let start = chunk_idx * CFG_CHUNK;
            let end = (start + CFG_CHUNK).min(n_cfg);
            let mut fixed = Vec::with_capacity(end - start);
            let mut slot_costs = Vec::with_capacity(end - start);
            let mut area = Vec::with_capacity(end - start);
            for cfg_idx in start..end {
                let cfg = space.config_at(cfg_idx);
                let price = |layers: &[dance_accel::layer::ConvLayer]| {
                    let mut p = PartialCost::default();
                    for layer in layers {
                        let lc = model.evaluate_layer(layer, &cfg);
                        p.cycles += lc.cycles;
                        p.energy_pj += lc.energy_pj;
                    }
                    p
                };
                fixed.push(price(&fixed_layers));
                let per_slot: Vec<PartialCost> = slot_layer_lists
                    .iter()
                    .map(|layers| price(layers))
                    .collect();
                assert_eq!(per_slot.len(), n_slots * n_choices);
                slot_costs.push(per_slot);
                area.push(dance_cost::area::area_mm2(&cfg));
            }
            dance_telemetry::counter!("cost_table.layers", ((end - start) * layers_per_cfg) as u64);
            (fixed, slot_costs, area)
        });

        let mut fixed = Vec::with_capacity(n_cfg);
        let mut slot_costs = Vec::with_capacity(n_cfg);
        let mut area = Vec::with_capacity(n_cfg);
        for (f, s, a) in parts {
            fixed.extend(f);
            slot_costs.extend(s);
            area.extend(a);
        }

        Self {
            template: template.clone(),
            space,
            fixed,
            slot_costs,
            area,
        }
    }

    /// The template this table was built for.
    pub fn template(&self) -> &NetworkTemplate {
        &self.template
    }

    /// The hardware space this table covers.
    pub fn space(&self) -> &HardwareSpace {
        &self.space
    }

    /// Cost of an architecture on the configuration at `cfg_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or `cfg_idx` is out of range.
    pub fn cost(&self, choices: &[SlotChoice], cfg_idx: usize) -> HardwareCost {
        assert_eq!(
            choices.len(),
            self.template.num_slots(),
            "slot choice count"
        );
        let n_choices = SlotChoice::CANDIDATES.len();
        let mut cycles = self.fixed[cfg_idx].cycles;
        let mut energy = self.fixed[cfg_idx].energy_pj;
        for (slot, &choice) in choices.iter().enumerate() {
            let p = self.slot_costs[cfg_idx][slot * n_choices + choice.index()];
            cycles += p.cycles;
            energy += p.energy_pj;
        }
        HardwareCost {
            latency_ms: cycles as f64 / (CLOCK_GHZ * 1e9) * 1e3,
            energy_mj: energy * 1e-9,
            area_mm2: self.area[cfg_idx],
        }
    }

    /// Expected cost of a *soft* architecture: per-slot probability vectors
    /// over the 7 candidates (rows of `probs`, each summing to ~1).
    ///
    /// This is what a differentiable relaxation of the workload looks like to
    /// the cost toolchain and is used to generate smoothed training data.
    ///
    /// # Panics
    ///
    /// Panics if `probs` has the wrong shape.
    pub fn soft_cost(&self, probs: &[Vec<f32>], cfg_idx: usize) -> HardwareCost {
        assert_eq!(probs.len(), self.template.num_slots(), "slot prob count");
        let n_choices = SlotChoice::CANDIDATES.len();
        let mut cycles = self.fixed[cfg_idx].cycles as f64;
        let mut energy = self.fixed[cfg_idx].energy_pj;
        for (slot, p_row) in probs.iter().enumerate() {
            assert_eq!(p_row.len(), n_choices, "slot {slot} prob width");
            for (choice, &p) in p_row.iter().enumerate() {
                let pc = self.slot_costs[cfg_idx][slot * n_choices + choice];
                cycles += p as f64 * pc.cycles as f64;
                energy += p as f64 * pc.energy_pj;
            }
        }
        HardwareCost {
            latency_ms: cycles / (CLOCK_GHZ * 1e9) * 1e3,
            energy_mj: energy * 1e-9,
            area_mm2: self.area[cfg_idx],
        }
    }

    /// The soft cost at `cfg_idx` as an explicit linear function of the
    /// per-slot choice probabilities, in final metric units.
    ///
    /// Returns `(fixed, per_slot)` where `fixed` is
    /// `[latency_ms, energy_mj, area_mm2]` of the stem/head (area is
    /// constant per configuration) and `per_slot[slot][choice]` is the
    /// `[latency_ms, energy_mj]` contribution of assigning `choice` to
    /// `slot`. Because [`CostTable::soft_cost`] is linear in the
    /// probabilities at a fixed configuration, `fixed + Σ_s p_s · w_s`
    /// reproduces it exactly — this is what `dance-guard` builds its
    /// differentiable analytical fallback from when the learned cost net
    /// degrades.
    ///
    /// # Panics
    ///
    /// Panics if `cfg_idx` is out of range.
    pub fn linear_surrogate(&self, cfg_idx: usize) -> ([f64; 3], Vec<Vec<[f64; 2]>>) {
        let n_choices = SlotChoice::CANDIDATES.len();
        let to_ms = |cycles: f64| cycles / (CLOCK_GHZ * 1e9) * 1e3;
        let fixed = [
            to_ms(self.fixed[cfg_idx].cycles as f64),
            self.fixed[cfg_idx].energy_pj * 1e-9,
            self.area[cfg_idx],
        ];
        let per_slot = (0..self.template.num_slots())
            .map(|slot| {
                (0..n_choices)
                    .map(|choice| {
                        let pc = self.slot_costs[cfg_idx][slot * n_choices + choice];
                        [to_ms(pc.cycles as f64), pc.energy_pj * 1e-9]
                    })
                    .collect()
            })
            .collect();
        (fixed, per_slot)
    }

    /// The exact network cost via the full model (no table) — used to verify
    /// table consistency.
    pub fn cost_direct(
        &self,
        model: &CostModel,
        choices: &[SlotChoice],
        cfg_idx: usize,
    ) -> HardwareCost {
        cost_direct(&self.template, model, &self.space, choices, cfg_idx)
    }

    /// Scans the whole space for the configuration minimizing `cost_fn`,
    /// returning `(config index, its cost)`.
    pub fn optimal(&self, choices: &[SlotChoice], cost_fn: &CostFunction) -> (usize, HardwareCost) {
        let mut best_idx = 0;
        let mut best_val = f64::INFINITY;
        let mut best_cost = HardwareCost::default();
        for cfg_idx in 0..self.space.len() {
            let c = self.cost(choices, cfg_idx);
            let v = cost_fn.apply(&c);
            if v < best_val {
                best_val = v;
                best_idx = cfg_idx;
                best_cost = c;
            }
        }
        (best_idx, best_cost)
    }
}

/// Exact cost of one discrete `(architecture, configuration)` pair straight
/// through the analytical model — no table required.
///
/// This is the table-free core of [`CostTable::cost_direct`], split out so
/// callers that never amortize over the whole space (notably the
/// `cost/analytic` endpoint in `dance-serve`) can price a single pair
/// without paying the `CostTable::new` precomputation.
pub fn cost_direct(
    template: &NetworkTemplate,
    model: &CostModel,
    space: &HardwareSpace,
    choices: &[SlotChoice],
    cfg_idx: usize,
) -> HardwareCost {
    let net: Network = template.instantiate(choices);
    model
        .evaluate(&net, &space.config_at(cfg_idx), Detail::Totals)
        .total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table() -> CostTable {
        CostTable::new(
            &NetworkTemplate::cifar10(),
            &CostModel::new(),
            &HardwareSpace::new(),
        )
    }

    #[test]
    fn table_matches_direct_evaluation() {
        let t = table();
        let model = CostModel::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let choices: Vec<SlotChoice> = (0..9)
                .map(|_| SlotChoice::from_index(rng.gen_range(0..7)))
                .collect();
            let cfg_idx = rng.gen_range(0..t.space().len());
            let via_table = t.cost(&choices, cfg_idx);
            let direct = t.cost_direct(&model, &choices, cfg_idx);
            assert!(
                (via_table.latency_ms - direct.latency_ms).abs() < 1e-9,
                "latency {} vs {}",
                via_table.latency_ms,
                direct.latency_ms
            );
            assert!((via_table.energy_mj - direct.energy_mj).abs() < 1e-9);
            assert_eq!(via_table.area_mm2, direct.area_mm2);
        }
    }

    #[test]
    fn soft_cost_with_one_hot_equals_hard_cost() {
        let t = table();
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 5,
                expand: 3
            };
            9
        ];
        let probs: Vec<Vec<f32>> = choices
            .iter()
            .map(|c| {
                let mut row = vec![0.0f32; 7];
                row[c.index()] = 1.0;
                row
            })
            .collect();
        let hard = t.cost(&choices, 777);
        let soft = t.soft_cost(&probs, 777);
        assert!((hard.latency_ms - soft.latency_ms).abs() < 1e-6);
        assert!((hard.energy_mj - soft.energy_mj).abs() < 1e-6);
    }

    #[test]
    fn linear_surrogate_reproduces_soft_cost() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(9);
        let (fixed, per_slot) = t.linear_surrogate(777);
        for _ in 0..5 {
            let probs: Vec<Vec<f32>> = (0..9)
                .map(|_| {
                    let raw: Vec<f32> = (0..7).map(|_| rng.gen_range(0.01f32..1.0)).collect();
                    let sum: f32 = raw.iter().sum();
                    raw.iter().map(|v| v / sum).collect()
                })
                .collect();
            let direct = t.soft_cost(&probs, 777);
            let mut lat = fixed[0];
            let mut energy = fixed[1];
            for (row, weights) in probs.iter().zip(&per_slot) {
                for (&p, w) in row.iter().zip(weights) {
                    lat += f64::from(p) * w[0];
                    energy += f64::from(p) * w[1];
                }
            }
            assert!((lat - direct.latency_ms).abs() < 1e-9 * direct.latency_ms.max(1.0));
            assert!((energy - direct.energy_mj).abs() < 1e-9 * direct.energy_mj.max(1.0));
            assert_eq!(fixed[2], direct.area_mm2);
        }
    }

    #[test]
    fn optimal_is_global_minimum() {
        let t = table();
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 3,
                expand: 6
            };
            9
        ];
        let cf = CostFunction::Edap;
        let (best_idx, best_cost) = t.optimal(&choices, &cf);
        let best_val = cf.apply(&best_cost);
        // Spot-check against a stride through the space.
        for i in (0..t.space().len()).step_by(13) {
            assert!(cf.apply(&t.cost(&choices, i)) >= best_val - 1e-12);
        }
        assert_eq!(cf.apply(&t.cost(&choices, best_idx)), best_val);
    }
}
