//! The end-to-end cost model façade: network × accelerator → cost metrics.
//!
//! This is the "(non-differentiable) cost estimation tool" of paper §3.3 —
//! the ground-truth oracle the evaluator network is trained to imitate.

use dance_accel::config::{AcceleratorConfig, Dataflow};
use dance_accel::layer::ConvLayer;
use dance_accel::workload::Network;
use dance_telemetry::span;

use crate::area::area_mm2;
use crate::energy::layer_energy_pj;
use crate::mapping::{map_layer, Mapping};

/// Accelerator clock frequency in GHz (200 MHz, Eyeriss-class).
pub const CLOCK_GHZ: f64 = 0.2;

/// The three hardware cost metrics of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HardwareCost {
    /// End-to-end inference latency, in milliseconds.
    pub latency_ms: f64,
    /// Inference energy, in millijoules.
    pub energy_mj: f64,
    /// Die area, in mm².
    pub area_mm2: f64,
}

impl HardwareCost {
    /// Energy–delay–area product, in the paper's `J · s · m² · 10⁻¹²` units
    /// (numerically `energy_mj · latency_ms · area_mm2`).
    pub fn edap(&self) -> f64 {
        self.energy_mj * self.latency_ms * self.area_mm2
    }

    /// The metrics as a `[latency, energy, area]` array (the evaluator
    /// network's output order).
    pub fn to_array(&self) -> [f64; 3] {
        [self.latency_ms, self.energy_mj, self.area_mm2]
    }

    /// Builds the cost from a `[latency, energy, area]` array.
    pub fn from_array(a: [f64; 3]) -> Self {
        Self {
            latency_ms: a[0],
            energy_mj: a[1],
            area_mm2: a[2],
        }
    }
}

/// Per-layer evaluation detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// The mapping chosen for the layer.
    pub mapping: Mapping,
    /// Layer latency in cycles.
    pub cycles: u64,
    /// Layer energy in picojoules.
    pub energy_pj: f64,
}

/// How much detail [`CostModel::evaluate`] computes and returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detail {
    /// Whole-network totals only — the common, allocation-free case.
    Totals,
    /// Totals plus the per-layer mapping/cost breakdown.
    PerLayer,
}

/// Result of a [`CostModel::evaluate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Whole-network cost totals.
    pub total: HardwareCost,
    /// Per-layer breakdown (one [`LayerCost`] per network layer, in order);
    /// `Some` exactly when [`Detail::PerLayer`] was requested.
    pub layers: Option<Vec<LayerCost>>,
}

/// The analytical cost model (Timeloop + Accelergy substitute).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostModel;

impl CostModel {
    /// Creates the model (stateless; provided for API symmetry).
    pub fn new() -> Self {
        Self
    }

    /// Prices a single layer on a configuration.
    ///
    /// Timed as `cost.map.{ws,os,rs}` (per dataflow, so run logs show which
    /// mapper dominates a sweep), `cost.energy.layer` and
    /// `cost_model.evaluate_layer`, from one clock read per boundary.
    pub fn evaluate_layer(&self, layer: &ConvLayer, config: &AcceleratorConfig) -> LayerCost {
        if !dance_telemetry::enabled() {
            let mapping = map_layer(layer, config);
            return LayerCost {
                mapping,
                cycles: mapping.total_cycles,
                energy_pj: layer_energy_pj(layer.macs(), &mapping, config),
            };
        }
        let dataflow = match config.dataflow() {
            Dataflow::WeightStationary => "ws",
            Dataflow::OutputStationary => "os",
            Dataflow::RowStationary => "rs",
        };
        // analyze:allow(determinism) span timing only; never feeds values
        let start = std::time::Instant::now();
        let mapping = map_layer(layer, config);
        let map_ns = start.elapsed().as_nanos() as u64;
        let energy_pj = layer_energy_pj(layer.macs(), &mapping, config);
        let total_ns = start.elapsed().as_nanos() as u64;
        span::record_duration_prefixed("cost.map.", dataflow, map_ns);
        span::record_duration("cost.energy.layer", total_ns.saturating_sub(map_ns));
        span::record_duration("cost_model.evaluate_layer", total_ns);
        LayerCost {
            mapping,
            cycles: mapping.total_cycles,
            energy_pj,
        }
    }

    /// Prices a whole network: latency and energy sum over layers, area is a
    /// property of the configuration alone.
    ///
    /// `detail` selects how much the call computes: [`Detail::Totals`] skips
    /// the per-layer allocation entirely; [`Detail::PerLayer`] additionally
    /// records one [`LayerCost`] per network layer, in order — the payload
    /// behind `cost/analytic` detail responses in `dance-serve`.
    pub fn evaluate(
        &self,
        network: &Network,
        config: &AcceleratorConfig,
        detail: Detail,
    ) -> Evaluation {
        let _span = dance_telemetry::hot_span!("cost_model.evaluate");
        dance_telemetry::counter!("cost_model.evaluations");
        let mut cycles = 0u64;
        let mut energy_pj = 0.0f64;
        let mut layers = match detail {
            Detail::Totals => None,
            Detail::PerLayer => Some(Vec::with_capacity(network.layers().len())),
        };
        for layer in network.layers() {
            let lc = self.evaluate_layer(layer, config);
            cycles += lc.cycles;
            energy_pj += lc.energy_pj;
            if let Some(v) = layers.as_mut() {
                v.push(lc);
            }
        }
        let total = HardwareCost {
            latency_ms: cycles as f64 / (CLOCK_GHZ * 1e9) * 1e3,
            energy_mj: energy_pj * 1e-12 * 1e3,
            area_mm2: area_mm2(config),
        };
        Evaluation { total, layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_accel::config::Dataflow;
    use dance_accel::space::HardwareSpace;
    use dance_accel::workload::{NetworkTemplate, SlotChoice};

    fn cifar_net() -> Network {
        NetworkTemplate::cifar10().instantiate(
            &[SlotChoice::MbConv {
                kernel: 3,
                expand: 6,
            }; 9],
        )
    }

    #[test]
    fn cifar_cost_in_paper_ballpark() {
        let model = CostModel::new();
        let cfg = AcceleratorConfig::default();
        let cost = model.evaluate(&cifar_net(), &cfg, Detail::Totals).total;
        // Shape check against Table 2 magnitudes: ms-scale latency,
        // mJ-scale energy, few-mm² area.
        assert!(cost.latency_ms > 0.1 && cost.latency_ms < 100.0, "{cost:?}");
        assert!(cost.energy_mj > 0.1 && cost.energy_mj < 100.0, "{cost:?}");
        assert!(cost.area_mm2 > 0.5 && cost.area_mm2 < 10.0, "{cost:?}");
    }

    #[test]
    fn edap_is_product_of_metrics() {
        let c = HardwareCost {
            latency_ms: 2.0,
            energy_mj: 3.0,
            area_mm2: 4.0,
        };
        assert!((c.edap() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn network_cost_is_sum_of_layers_plus_area() {
        let model = CostModel::new();
        let cfg = AcceleratorConfig::default();
        let net = cifar_net();
        let total = model.evaluate(&net, &cfg, Detail::Totals).total;
        let cycles: u64 = net
            .layers()
            .iter()
            .map(|l| model.evaluate_layer(l, &cfg).cycles)
            .sum();
        assert!((total.latency_ms - cycles as f64 / 2e5).abs() < 1e-9);
    }

    #[test]
    fn per_layer_detail_sums_to_totals() {
        let model = CostModel::new();
        let cfg = AcceleratorConfig::default();
        let net = cifar_net();
        let e = model.evaluate(&net, &cfg, Detail::PerLayer);
        let layers = e.layers.clone().unwrap_or_default();
        assert_eq!(layers.len(), net.layers().len());
        let cycles: u64 = layers.iter().map(|l| l.cycles).sum();
        assert!((e.total.latency_ms - cycles as f64 / 2e5).abs() < 1e-9);
        let totals_only = model.evaluate(&net, &cfg, Detail::Totals);
        assert!(totals_only.layers.is_none());
        assert_eq!(totals_only.total, e.total);
    }

    #[test]
    fn best_dataflow_depends_on_network_shape() {
        // A channel-heavy pointwise-only network prefers WS; a spatially
        // large shallow network prefers OS — the non-linearity the paper's
        // evaluator must learn.
        let model = CostModel::new();
        let mk = |df| AcceleratorConfig::new(16, 16, 16, df).unwrap();
        let channel_heavy = Network::from_layers(vec![ConvLayer::pointwise(512, 512, 4, 4)]);
        let spatial_heavy = Network::from_layers(vec![ConvLayer::new(8, 8, 64, 64, 3, 3, 1)]);
        let ws_ch = model
            .evaluate(
                &channel_heavy,
                &mk(Dataflow::WeightStationary),
                Detail::Totals,
            )
            .total
            .latency_ms;
        let os_ch = model
            .evaluate(
                &channel_heavy,
                &mk(Dataflow::OutputStationary),
                Detail::Totals,
            )
            .total
            .latency_ms;
        let ws_sp = model
            .evaluate(
                &spatial_heavy,
                &mk(Dataflow::WeightStationary),
                Detail::Totals,
            )
            .total
            .latency_ms;
        let os_sp = model
            .evaluate(
                &spatial_heavy,
                &mk(Dataflow::OutputStationary),
                Detail::Totals,
            )
            .total
            .latency_ms;
        assert!(ws_ch < os_ch, "channel-heavy: WS {ws_ch} OS {os_ch}");
        assert!(os_sp < ws_sp, "spatial-heavy: WS {ws_sp} OS {os_sp}");
    }

    #[test]
    fn cost_varies_across_the_space() {
        // The space must be non-degenerate: different configs price the same
        // network differently (otherwise there is nothing to search).
        let model = CostModel::new();
        let net = cifar_net();
        let space = HardwareSpace::new();
        let costs: Vec<f64> = (0..space.len())
            .step_by(97)
            .map(|i| {
                model
                    .evaluate(&net, &space.config_at(i), Detail::Totals)
                    .total
                    .edap()
            })
            .collect();
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.5, "EDAP spread too small: {min}..{max}");
    }

    #[test]
    fn zero_heavy_network_is_cheaper() {
        let model = CostModel::new();
        let cfg = AcceleratorConfig::default();
        let t = NetworkTemplate::cifar10();
        let zero = model
            .evaluate(&t.instantiate(&[SlotChoice::Zero; 9]), &cfg, Detail::Totals)
            .total;
        let heavy = model.evaluate(&t.max_network(), &cfg, Detail::Totals).total;
        assert!(zero.latency_ms < heavy.latency_ms);
        assert!(zero.energy_mj < heavy.energy_mj);
    }

    use dance_accel::layer::ConvLayer;
}
