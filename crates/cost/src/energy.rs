//! Per-access energy model (the Accelergy substitute).
//!
//! Accelergy (Wu, Emer & Sze 2019) prices an accelerator by counting actions
//! (MACs, register/SRAM/DRAM accesses) and multiplying by per-action energy.
//! The constants below sit in the published technology range for a 65 nm
//! Eyeriss-class design and are scaled so a CIFAR-scale network lands in the
//! paper's single-digit-millijoule regime.

use dance_accel::config::AcceleratorConfig;

use crate::mapping::Mapping;

/// Energy per multiply-accumulate, in picojoules.
pub const MAC_PJ: f64 = 4.0;
/// Base energy per register-file word access, in picojoules.
pub const RF_BASE_PJ: f64 = 1.0;
/// Additional RF energy per word of RF capacity (bigger files cost more).
pub const RF_PER_WORD_PJ: f64 = 0.015;
/// Energy per on-chip SRAM word access, in picojoules.
pub const SRAM_PJ: f64 = 25.0;
/// Energy per DRAM word access, in picojoules.
pub const DRAM_PJ: f64 = 800.0;
/// Average register-file accesses per MAC (operand reads + psum update).
pub const RF_ACCESSES_PER_MAC: f64 = 3.0;
/// Static (leakage) power in picojoules per cycle per PE.
pub const LEAKAGE_PJ_PER_CYCLE_PER_PE: f64 = 0.02;

/// Energy of one RF access for a given register-file capacity, in pJ.
pub fn rf_access_pj(rf_words: usize) -> f64 {
    RF_BASE_PJ + RF_PER_WORD_PJ * rf_words as f64
}

/// Total energy of one mapped layer, in picojoules.
pub fn layer_energy_pj(macs: u64, mapping: &Mapping, config: &AcceleratorConfig) -> f64 {
    let rf_pj = rf_access_pj(config.rf_size());
    let dynamic = macs as f64 * MAC_PJ
        + macs as f64 * RF_ACCESSES_PER_MAC * rf_pj
        + mapping.sram_total() as f64 * SRAM_PJ
        + mapping.dram_words as f64 * DRAM_PJ;
    let leakage =
        mapping.total_cycles as f64 * config.num_pes() as f64 * LEAKAGE_PJ_PER_CYCLE_PER_PE;
    dynamic + leakage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::map_layer;
    use dance_accel::config::Dataflow;
    use dance_accel::layer::ConvLayer;

    fn cfg(rf: usize) -> AcceleratorConfig {
        AcceleratorConfig::new(16, 16, rf, Dataflow::RowStationary).unwrap()
    }

    #[test]
    fn rf_access_energy_grows_with_capacity() {
        assert!(rf_access_pj(64) > rf_access_pj(4));
    }

    #[test]
    fn energy_is_positive_and_finite() {
        let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 1);
        let c = cfg(16);
        let m = map_layer(&layer, &c);
        let e = layer_energy_pj(layer.macs(), &m, &c);
        assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn more_macs_more_energy() {
        let small = ConvLayer::new(16, 16, 8, 8, 3, 3, 1);
        let big = ConvLayer::new(64, 64, 16, 16, 3, 3, 1);
        let c = cfg(16);
        let es = layer_energy_pj(small.macs(), &map_layer(&small, &c), &c);
        let eb = layer_energy_pj(big.macs(), &map_layer(&big, &c), &c);
        assert!(eb > es * 10.0);
    }

    #[test]
    fn rf_has_an_energy_sweet_spot_tradeoff() {
        // Bigger RF reduces SRAM traffic (good) but raises per-access RF
        // energy (bad) — both terms must actually move.
        let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 1);
        let small_cfg = cfg(4);
        let big_cfg = cfg(64);
        let m_small = map_layer(&layer, &small_cfg);
        let m_big = map_layer(&layer, &big_cfg);
        assert!(m_big.sram_total() < m_small.sram_total());
        let rf_term_small = layer.macs() as f64 * RF_ACCESSES_PER_MAC * rf_access_pj(4);
        let rf_term_big = layer.macs() as f64 * RF_ACCESSES_PER_MAC * rf_access_pj(64);
        assert!(rf_term_big > rf_term_small);
    }
}
