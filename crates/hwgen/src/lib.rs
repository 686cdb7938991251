#![warn(missing_docs)]

//! # dance-hwgen
//!
//! The exact hardware generation tool of the DANCE reproduction (Choi et
//! al., DAC 2021, §3.3): exhaustive and branch-and-bound search over the
//! hardware space, a precomputed [`table::CostTable`] that makes those
//! searches (and million-sample ground-truth generation) cheap, and the
//! [`dataset`] generators that produce training data for the evaluator
//! networks.
//!
//! ```
//! use dance_accel::prelude::*;
//! use dance_cost::prelude::*;
//! use dance_hwgen::prelude::*;
//!
//! let template = NetworkTemplate::cifar10();
//! let table = CostTable::new(&template, &CostModel::new(), &HardwareSpace::new());
//! let choices = [SlotChoice::MbConv { kernel: 3, expand: 6 }; 9];
//! let result = exhaustive_search_table(&table, &choices, &CostFunction::Edap);
//! assert!(result.cost.edap() > 0.0);
//! ```

pub mod dataset;
pub mod exhaustive;
pub mod table;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::dataset::{
        arch_encoded_width, decode_choices, encode_choices, generate_cost_dataset,
        generate_hwgen_dataset, metric_means, random_choices, split, CostSample, HwGenSample,
        HwSampling, CHOICES_PER_SLOT,
    };
    pub use crate::exhaustive::{
        branch_and_bound, exhaustive_search, exhaustive_search_table, SearchResult,
    };
    pub use crate::table::CostTable;
}
