//! The campaign grid: λ₂ × dataset × hardware-envelope cells.
//!
//! A campaign is a cross product of search knobs. Each **cell** is one
//! seeded guarded search, run as a `dance-fleet` job
//! ([`CampaignSpec::cell_job`]); its seed is a pure function of the
//! campaign seed and the cell's coordinates (never of its position in a
//! work queue), so two cells with identical coordinates are the same job
//! and every re-run of a cell — fresh, resumed, or on a different worker —
//! reproduces the same per-epoch design points bit for bit.

use std::path::PathBuf;

use dance::pareto::fnv_fold;
use dance_accel::config::AcceleratorConfig;
use dance_accel::space::HardwareSpace;
use dance_accel::workload::SlotChoice;
use dance_fleet::ledger::JobSpec;

/// A named restriction of the accelerator design space `H`.
///
/// Envelopes model deployment targets: `full` is the unrestricted paper
/// space, `edge` caps the PE array and register file the way a small-die
/// part would. The optimal-cost lookup for a cell minimizes only over
/// configurations its envelope admits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Display name; also folded into per-cell seeds and dedup keys.
    pub name: String,
    /// Maximum PE-array size (`pe_x · pe_y`), inclusive.
    pub max_pes: usize,
    /// Maximum register-file size in words, inclusive.
    pub max_rf: usize,
}

impl Envelope {
    /// The unrestricted paper space.
    pub fn full() -> Self {
        Self {
            name: "full".into(),
            max_pes: usize::MAX,
            max_rf: usize::MAX,
        }
    }

    /// An edge-deployment envelope: at most a 12×12-equivalent PE array and
    /// 16-word register files.
    pub fn edge() -> Self {
        Self {
            name: "edge".into(),
            max_pes: 144,
            max_rf: 16,
        }
    }

    /// Resolves a name to a built-in envelope.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Self::full()),
            "edge" => Some(Self::edge()),
            _ => None,
        }
    }

    /// Whether this envelope admits a configuration.
    pub fn admits(&self, cfg: &AcceleratorConfig) -> bool {
        cfg.pe_x() * cfg.pe_y() <= self.max_pes && cfg.rf_size() <= self.max_rf
    }

    /// Canonical indices of every admitted configuration in `space`.
    pub fn indices(&self, space: &HardwareSpace) -> Vec<usize> {
        (0..space.len())
            .filter(|&i| self.admits(&space.config_at(i)))
            .collect()
    }

    /// FNV digest of the envelope identity (name + caps).
    pub fn digest(&self) -> u64 {
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for b in self.name.as_bytes() {
            d = fnv_fold(d, u64::from(*b));
        }
        d = fnv_fold(d, self.max_pes as u64);
        fnv_fold(d, self.max_rf as u64)
    }
}

/// One grid coordinate — a single seeded guarded search.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in [`CampaignSpec::cells`] order (row-major λ₂ × dataset ×
    /// envelope); names the cell (`cell-NNNN`) in frontier origins.
    pub id: usize,
    /// Hardware-cost weight for this cell's search.
    pub lambda2: f32,
    /// Seed of the SynthTiny dataset variant the cell trains on.
    pub dataset_seed: u64,
    /// Index into [`CampaignSpec::envelopes`].
    pub envelope: usize,
    /// Derived search seed — a function of coordinates, not of `id`, so
    /// duplicate coordinates are one fleet job (and their points pure
    /// frontier dedup hits).
    pub seed: u64,
}

/// The full specification of a campaign: grid axes, per-search knobs, and
/// where on disk its fleet keeps the ledger and per-job checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in telemetry and event streams).
    pub name: String,
    /// λ₂ axis.
    pub lambda2: Vec<f32>,
    /// Dataset-seed axis (SynthTiny variants).
    pub dataset_seeds: Vec<u64>,
    /// Hardware-envelope axis.
    pub envelopes: Vec<Envelope>,
    /// Search epochs per cell.
    pub epochs: usize,
    /// Search batch size per cell.
    pub batch_size: usize,
    /// Campaign master seed, mixed into every cell seed.
    pub seed: u64,
    /// Campaign root directory: the fleet's `ledger/` and
    /// `ckpt/<job-id>/`.
    pub root: PathBuf,
    /// Fleet workers, each running one cell at a time (`0` → the shared
    /// backend pool width).
    pub max_concurrency: usize,
}

impl CampaignSpec {
    /// The default 3×2×2 smoke grid under `root`, matching the CI and
    /// `run_experiments.sh` campaign smokes.
    pub fn smoke(root: PathBuf, epochs: usize) -> Self {
        Self {
            name: "smoke".into(),
            lambda2: vec![0.1, 0.3, 0.6],
            dataset_seeds: vec![0, 1],
            envelopes: vec![Envelope::full(), Envelope::edge()],
            epochs,
            batch_size: 32,
            seed: 0,
            root,
            max_concurrency: 0,
        }
    }

    /// Validates the grid: no axis is empty, and the fleet accepts every
    /// cell's job.
    ///
    /// # Errors
    ///
    /// Returns a description of the first empty axis, or what
    /// [`JobSpec::search_config`] refuses in the first cell it refuses:
    /// zero epochs or more than 64, a batch below 2 or above 256, a
    /// negative or non-finite λ₂.
    pub fn validate(&self) -> Result<(), String> {
        if self.lambda2.is_empty() {
            return Err("campaign needs at least one lambda2 value".into());
        }
        if self.dataset_seeds.is_empty() {
            return Err("campaign needs at least one dataset seed".into());
        }
        if self.envelopes.is_empty() {
            return Err("campaign needs at least one envelope".into());
        }
        self.cells()
            .iter()
            .try_for_each(|cell| self.cell_job(cell).search_config().map(drop))
    }

    /// The fleet job `cell` runs: the campaign's epochs and batch size,
    /// the cell's λ₂ ramped in over the first half of the epochs, its seed,
    /// and its dataset seed. Validation, the runner and `--emit-plan` all
    /// build it here.
    pub fn cell_job(&self, cell: &Cell) -> JobSpec {
        JobSpec {
            data_seed: cell.dataset_seed,
            warmup: (self.epochs as u64 / 2).max(1),
            ..JobSpec::new(
                self.epochs as u64,
                self.batch_size as u64,
                cell.seed,
                cell.lambda2,
            )
        }
    }

    /// The grid as cells, row-major over (λ₂, dataset seed, envelope).
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.len());
        let mut id = 0usize;
        for l2 in &self.lambda2 {
            for ds in &self.dataset_seeds {
                for (ei, env) in self.envelopes.iter().enumerate() {
                    out.push(Cell {
                        id,
                        lambda2: *l2,
                        dataset_seed: *ds,
                        envelope: ei,
                        seed: cell_seed(self.seed, *l2, *ds, env),
                    });
                    id += 1;
                }
            }
        }
        out
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.lambda2.len() * self.dataset_seeds.len() * self.envelopes.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Derives a cell's search seed from the campaign seed and its coordinates.
pub fn cell_seed(campaign_seed: u64, lambda2: f32, dataset_seed: u64, env: &Envelope) -> u64 {
    let mut d = fnv_fold(0xcbf2_9ce4_8422_2325, campaign_seed);
    d = fnv_fold(d, u64::from(lambda2.to_bits()));
    d = fnv_fold(d, dataset_seed);
    fnv_fold(d, env.digest())
}

/// The frontier dedup key of a derived architecture evaluated under a
/// dataset and envelope: identical keys denote the same design point, so
/// their exact cost is identical and only the error sample can differ.
pub fn dedup_key(choices: &[SlotChoice], dataset_seed: u64, env: &Envelope) -> u64 {
    let mut d = fnv_fold(0xcbf2_9ce4_8422_2325, dataset_seed);
    d = fnv_fold(d, env.digest());
    for c in choices {
        d = fnv_fold(d, c.index() as u64);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_full_cross_product_in_row_major_order() {
        let spec = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_test"), 2);
        let cells = spec.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(spec.len(), 12);
        assert_eq!(cells[0].envelope, 0);
        assert_eq!(cells[1].envelope, 1);
        assert_eq!(cells[2].dataset_seed, 1);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn cell_seeds_depend_on_coordinates_not_position() {
        let full = Envelope::full();
        let edge = Envelope::edge();
        assert_eq!(cell_seed(0, 0.1, 1, &full), cell_seed(0, 0.1, 1, &full));
        assert_ne!(cell_seed(0, 0.1, 1, &full), cell_seed(0, 0.1, 1, &edge));
        assert_ne!(cell_seed(0, 0.1, 1, &full), cell_seed(0, 0.1, 2, &full));
        assert_ne!(cell_seed(0, 0.1, 1, &full), cell_seed(0, 0.4, 1, &full));
        assert_ne!(cell_seed(0, 0.1, 1, &full), cell_seed(7, 0.1, 1, &full));
    }

    #[test]
    fn edge_envelope_is_a_strict_subset_of_full() {
        let space = HardwareSpace::new();
        let full = Envelope::full().indices(&space);
        let edge = Envelope::edge().indices(&space);
        assert_eq!(full.len(), space.len());
        assert!(!edge.is_empty());
        assert!(edge.len() < full.len());
        for i in &edge {
            let cfg = space.config_at(*i);
            assert!(cfg.pe_x() * cfg.pe_y() <= 144);
            assert!(cfg.rf_size() <= 16);
        }
    }

    #[test]
    fn dedup_key_separates_dataset_and_envelope() {
        let choices = vec![SlotChoice::from_index(0); 9];
        let full = Envelope::full();
        let edge = Envelope::edge();
        assert_eq!(dedup_key(&choices, 0, &full), dedup_key(&choices, 0, &full));
        assert_ne!(dedup_key(&choices, 0, &full), dedup_key(&choices, 1, &full));
        assert_ne!(dedup_key(&choices, 0, &full), dedup_key(&choices, 0, &edge));
        let other = vec![SlotChoice::from_index(1); 9];
        assert_ne!(dedup_key(&choices, 0, &full), dedup_key(&other, 0, &full));
    }

    #[test]
    fn validate_rejects_degenerate_grids() {
        let mut spec = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_val"), 2);
        assert!(spec.validate().is_ok());
        spec.lambda2.clear();
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_val"), 0);
        assert!(spec.validate().is_err());
        spec.epochs = 2;
        spec.lambda2 = vec![f32::NAN];
        assert!(spec.validate().is_err());
        // Batch norm needs two rows: a batch of 1 is refused up front, not
        // by every cell's search.
        let mut spec = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_val"), 2);
        spec.batch_size = 1;
        let err = spec.validate().expect_err("batch 1 is refused");
        assert!(err.contains("batch_size"), "{err}");
        // Cells are fleet jobs, so the fleet's caps hold.
        spec.batch_size = 257;
        let err = spec.validate().expect_err("batch 257 is refused");
        assert!(err.contains("batch"), "{err}");
        let spec = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_val"), 65);
        let err = spec.validate().expect_err("65 epochs are refused");
        assert!(err.contains("epochs"), "{err}");
    }

    #[test]
    fn a_cell_job_carries_its_coordinates() {
        let mut spec = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_job"), 5);
        spec.lambda2 = vec![0.1, 0.1];
        let cells = spec.cells();
        let job = spec.cell_job(&cells[2]);
        assert_eq!(job.seed, cells[2].seed);
        assert_eq!(job.data_seed, 1);
        assert_eq!(job.warmup, 2, "lambda2 ramps over half the epochs");
        assert_eq!(job.lambda2_bits, 0.1_f32.to_bits());
        // Duplicate coordinates are the same fleet job.
        assert_eq!(spec.cell_job(&cells[0]), spec.cell_job(&cells[4]));
        assert_ne!(spec.cell_job(&cells[0]), spec.cell_job(&cells[1]));
        let one = CampaignSpec::smoke(std::env::temp_dir().join("dance_grid_job"), 1);
        assert_eq!(one.cell_job(&one.cells()[0]).warmup, 1);
    }
}
