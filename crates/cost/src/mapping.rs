//! Dataflow-specific loop mapping: how a conv layer spreads over the PE
//! array, and how much memory traffic survives the register files.
//!
//! This module plays the role of Timeloop's mapper (Parashar et al. 2019):
//! for each dataflow it picks the spatial loops, derives PE-array
//! utilization, and computes per-datatype access counts at each level of the
//! memory hierarchy (RF → on-chip SRAM → DRAM). The formulas are analytical
//! approximations, but they reproduce the qualitative interactions the paper
//! relies on — e.g. weight-stationary arrays (TPU-like) lose utilization on
//! depthwise/separable layers because the channel dimensions they parallelize
//! over collapse to one (the paper's §1 TPU anecdote).

use dance_accel::config::{AcceleratorConfig, Dataflow};
use dance_accel::layer::ConvLayer;

/// On-chip global buffer capacity in words (Eyeriss-like 108 KiB).
pub const GLOBAL_BUFFER_WORDS: u64 = 110_592;
/// Words per cycle the DRAM interface sustains.
pub const DRAM_WORDS_PER_CYCLE: f64 = 16.0;
/// Pipeline fill/drain overhead added per layer, in cycles.
pub const FILL_DRAIN_CYCLES: u64 = 32;

/// The result of mapping one layer onto one accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mapping {
    /// Loop extent assigned to the X axis of the PE array.
    pub spatial_x: u64,
    /// Loop extent assigned to the Y axis of the PE array.
    pub spatial_y: u64,
    /// Average fraction of PEs doing useful work.
    pub utilization: f64,
    /// Cycles spent computing (assuming no memory stalls).
    pub compute_cycles: u64,
    /// SRAM accesses for weights / inputs / outputs, in words.
    pub sram_weight: u64,
    /// See [`Mapping::sram_weight`].
    pub sram_input: u64,
    /// See [`Mapping::sram_weight`].
    pub sram_output: u64,
    /// DRAM accesses in words (all datatypes).
    pub dram_words: u64,
    /// Cycles the array stalls waiting on memory.
    pub stall_cycles: u64,
    /// Total latency of this layer in cycles.
    pub total_cycles: u64,
}

impl Mapping {
    /// Total SRAM accesses across datatypes.
    pub fn sram_total(&self) -> u64 {
        self.sram_weight + self.sram_input + self.sram_output
    }
}

fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1))
}

/// Register-file partition: half for the stationary datatype, a quarter each
/// for the two streaming datatypes (minimum one word each).
fn rf_partition(rf: usize) -> (u64, u64, u64) {
    let rf = rf as u64;
    ((rf / 2).max(1), (rf / 4).max(1), (rf / 4).max(1))
}

/// Maps `layer` onto `config`, returning latency and traffic counts.
pub fn map_layer(layer: &ConvLayer, config: &AcceleratorConfig) -> Mapping {
    let px = config.pe_x() as u64;
    let py = config.pe_y() as u64;
    let (rf_st, rf_in, rf_out) = rf_partition(config.rf_size());

    let macs = layer.macs();
    let w_words = layer.weight_words();
    let i_words = layer.input_words();
    let o_words = layer.output_words();

    let k = layer.k as u64;
    let c_pg = layer.c_per_group() as u64;
    let ho = layer.h_out() as u64;
    let wo = layer.w_out() as u64;
    let r = layer.r as u64;
    let s = layer.s as u64;
    let stride = layer.stride as u64;

    // --- Spatial mapping and compute cycles ------------------------------
    // WS pins channels to the array axes rigidly (systolic, TPU-like).
    // OS and RS are more flexible mappers: spare array capacity folds the
    // output-channel loop spatially, the way Timeloop's mapper would.
    let (dx, dy, k_fold) = match config.dataflow() {
        // TPU-like: output channels across X, input channels across Y.
        Dataflow::WeightStationary => (k, c_pg, 1),
        // ShiDianNao-like: output pixels across the array; spare X lanes
        // replicate the map for several output channels.
        Dataflow::OutputStationary => {
            let kx = (px / wo).max(1).min(k);
            (wo * kx, ho, kx)
        }
        // Eyeriss-like: output rows across X, filter rows across Y; spare Y
        // lanes process several output channels' rows and spare X lanes fold
        // the input-channel loop.
        Dataflow::RowStationary => {
            let ky = (py / r).max(1).min(k);
            let cx = (px / ho).max(1).min(c_pg);
            (ho * cx, r * ky, ky)
        }
    };
    let tiles = ceil_div(dx, px) * ceil_div(dy, py);
    let temporal = (macs as f64 / (dx * dy) as f64).ceil() as u64;
    let compute_cycles = (tiles * temporal).max(1);
    let utilization = macs as f64 / (compute_cycles * px * py) as f64;

    // --- RF-filtered SRAM traffic ----------------------------------------
    // For each datatype: `macs / reuse`, floored at the compulsory traffic
    // (every word must be fetched at least once).
    let (sram_w, sram_i, sram_o) = match config.dataflow() {
        Dataflow::WeightStationary => {
            // Inputs broadcast along X to the K lanes; a larger RF lets each
            // PE keep weight slices for several output channels ("K
            // blocking"), multiplying input reuse, plus the S-wide sliding
            // window.
            let k_block = (rf_st / (r * s).max(1)).max(1).min(ceil_div(k, px));
            let reuse_i = (k.min(px) * k_block * rf_in.min(s).max(1)) as f64;
            // Weight/psum traffic depends on the loop order; the mapper (as
            // Timeloop would) picks the cheaper of:
            //  (a) pixels outer: weights fetched once per C-tile pass, but
            //      psums spill/reload once per input-channel tile;
            //  (b) channels inner over rf_out-sized pixel blocks: psums stay
            //      in the RF, but weights are re-fetched per pixel block.
            let refill = ceil_div(r * s, rf_st).min(ho * wo);
            let c_tiles = ceil_div(c_pg, py);
            let order_a_w = (w_words * refill) as f64;
            let order_a_o = (o_words * (2 * c_tiles - 1)) as f64;
            let pixel_blocks = ceil_div(ho * wo, rf_out);
            let order_b_w = (w_words * refill * pixel_blocks) as f64;
            let order_b_o = o_words as f64;
            let (sram_w, sram_o) = if order_a_w + order_a_o <= order_b_w + order_b_o {
                (order_a_w, order_a_o)
            } else {
                (order_b_w, order_b_o)
            };
            (sram_w, macs as f64 / reuse_i, sram_o)
        }
        Dataflow::OutputStationary => {
            // Outputs pinned: one psum per PE, written back once.
            let sram_o = o_words as f64;
            // Weights broadcast to every PE computing the same output
            // channel; the RF caches the filter window.
            let spatial_share = (wo.min(px) * ho.min(py)) as f64;
            let reuse_w = spatial_share * (rf_st.min(r * s).max(1) as f64);
            // Inputs shift systolically between neighbours (overlap shrinks
            // with stride), are shared by the K-folded lanes, and stay in the
            // RF across each PE's temporal output-channel loop.
            let overlap = ((r * s) / (stride * stride)).max(1);
            let k_per_pe = ceil_div(k, k_fold);
            let reuse_i =
                (k_fold * (rf_in * 2).min(overlap).max(1) * rf_in.min(k_per_pe).max(1)) as f64;
            (macs as f64 / reuse_w, macs as f64 / reuse_i, sram_o)
        }
        Dataflow::RowStationary => {
            // Filter rows (S words) pinned per PE, reused across the output
            // row and shared by the Ho lanes along X.
            let fit = (rf_st as f64 / s as f64).min(1.0);
            let reuse_w = (1.0 + ((wo - 1) as f64) * fit) * (ho.min(px) as f64);
            // Input rows travel diagonally: shared by min(R, PY) PEs and the
            // K-folded lanes, reused across the S-wide RF window.
            let reuse_i = (r.min(py) * k_fold * rf_in.min(s).max(1)) as f64;
            // Psums reduced along Y over the R lanes and accumulated across
            // S in the RF; when the output RF slice can hold a whole output
            // row (Wo words), the row also stays put across the
            // input-channel loop instead of spilling to SRAM per channel.
            // Channel-folded lanes still need their partials reduced through
            // the NoC, so the fold does not add psum reuse.
            let row_fit = (rf_out as f64 / wo as f64).min(1.0);
            let c_block = (row_fit * c_pg as f64).max(1.0);
            let reuse_o = (r.min(py) * rf_out.min(s).max(1)) as f64 * c_block;
            (
                macs as f64 / reuse_w,
                macs as f64 / reuse_i,
                2.0 * macs as f64 / reuse_o,
            )
        }
    };
    let sram_weight = (sram_w.ceil() as u64).max(w_words);
    let sram_input = (sram_i.ceil() as u64).max(i_words);
    let sram_output = (sram_o.ceil() as u64).max(o_words);

    // --- DRAM traffic ------------------------------------------------------
    // If the layer's working set fits the global buffer each tensor moves
    // once; otherwise the largest tensor is re-fetched per buffer pass.
    let working = w_words + i_words + o_words;
    let compulsory = working;
    let dram_words = if working <= GLOBAL_BUFFER_WORDS {
        compulsory
    } else {
        // The largest tensor is re-streamed in proportion to how far the
        // working set overflows the buffer (fractional, to avoid a cliff at
        // the capacity boundary).
        let overflow = working as f64 / GLOBAL_BUFFER_WORDS as f64 - 1.0;
        let largest = w_words.max(i_words).max(o_words) as f64;
        compulsory + (overflow * largest) as u64
    };

    // --- Stalls -------------------------------------------------------------
    // The NoC delivers (PX + PY) words per cycle from SRAM; DRAM is a fixed
    // channel. Compute and memory overlap, so latency is the maximum.
    let sram_cycles = ((sram_weight + sram_input + sram_output) as f64 / (px + py) as f64) as u64;
    let dram_cycles = (dram_words as f64 / DRAM_WORDS_PER_CYCLE) as u64;
    let bound = compute_cycles.max(sram_cycles).max(dram_cycles);
    let stall_cycles = bound - compute_cycles;
    let total_cycles = bound + FILL_DRAIN_CYCLES + px + py;

    Mapping {
        spatial_x: dx,
        spatial_y: dy,
        utilization,
        compute_cycles,
        sram_weight,
        sram_input,
        sram_output,
        dram_words,
        stall_cycles,
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_accel::config::Dataflow::*;

    fn cfg(px: usize, py: usize, rf: usize, df: Dataflow) -> AcceleratorConfig {
        AcceleratorConfig::new(px, py, rf, df).unwrap()
    }

    #[test]
    fn more_pes_never_slower() {
        let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 1);
        for df in Dataflow::ALL {
            let small = map_layer(&layer, &cfg(8, 8, 16, df));
            let large = map_layer(&layer, &cfg(24, 24, 16, df));
            assert!(
                large.total_cycles <= small.total_cycles,
                "{df}: {} vs {}",
                large.total_cycles,
                small.total_cycles
            );
        }
    }

    #[test]
    fn bigger_rf_never_more_sram_traffic() {
        let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 1);
        for df in Dataflow::ALL {
            let small = map_layer(&layer, &cfg(16, 16, 4, df));
            let large = map_layer(&layer, &cfg(16, 16, 64, df));
            assert!(
                large.sram_total() <= small.sram_total(),
                "{df}: {} vs {}",
                large.sram_total(),
                small.sram_total()
            );
        }
    }

    #[test]
    fn weight_stationary_suffers_on_depthwise() {
        // The paper's TPU/separable-conv anecdote: WS parallelizes channels,
        // so a depthwise layer (C_per_group = 1) wastes the Y axis.
        let dw = ConvLayer::depthwise(64, 16, 16, 3, 3, 1);
        let ws = map_layer(&dw, &cfg(16, 16, 16, WeightStationary));
        let os = map_layer(&dw, &cfg(16, 16, 16, OutputStationary));
        assert!(
            ws.utilization < os.utilization / 2.0,
            "WS util {} vs OS util {}",
            ws.utilization,
            os.utilization
        );
        assert!(ws.total_cycles > os.total_cycles);
    }

    #[test]
    fn weight_stationary_wins_on_channel_heavy_pointwise() {
        let pw = ConvLayer::pointwise(256, 256, 4, 4);
        let ws = map_layer(&pw, &cfg(16, 16, 16, WeightStationary));
        let os = map_layer(&pw, &cfg(16, 16, 16, OutputStationary));
        // OS only has 4×4 = 16 output pixels to spread over 256 PEs.
        assert!(ws.compute_cycles < os.compute_cycles);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let layer = ConvLayer::new(100, 30, 17, 23, 5, 5, 2);
        for df in Dataflow::ALL {
            for rf in [4, 64] {
                let m = map_layer(&layer, &cfg(13, 19, rf, df));
                assert!(
                    m.utilization > 0.0 && m.utilization <= 1.0 + 1e-9,
                    "{}",
                    m.utilization
                );
            }
        }
    }

    #[test]
    fn sram_traffic_at_least_compulsory() {
        let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 1);
        for df in Dataflow::ALL {
            let m = map_layer(&layer, &cfg(24, 24, 64, df));
            assert!(m.sram_weight >= layer.weight_words());
            assert!(m.sram_input >= layer.input_words());
            assert!(m.sram_output >= layer.output_words());
        }
    }

    #[test]
    fn dram_refetch_kicks_in_for_large_layers() {
        let small = ConvLayer::new(16, 16, 8, 8, 3, 3, 1);
        let huge = ConvLayer::new(512, 512, 64, 64, 3, 3, 1);
        let c = cfg(16, 16, 16, RowStationary);
        let ms = map_layer(&small, &c);
        let mh = map_layer(&huge, &c);
        assert_eq!(
            ms.dram_words,
            small.weight_words() + small.input_words() + small.output_words()
        );
        assert!(mh.dram_words > huge.weight_words() + huge.input_words() + huge.output_words());
    }

    #[test]
    fn total_cycles_include_fill_drain() {
        let layer = ConvLayer::new(8, 8, 4, 4, 1, 1, 1);
        let m = map_layer(&layer, &cfg(8, 8, 16, WeightStationary));
        assert!(m.total_cycles >= m.compute_cycles + FILL_DRAIN_CYCLES);
    }

    #[test]
    fn mapping_is_deterministic() {
        let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 1);
        let c = cfg(12, 20, 32, RowStationary);
        assert_eq!(map_layer(&layer, &c), map_layer(&layer, &c));
    }
}
