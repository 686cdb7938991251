//! Differentiable expected-FLOPs penalty (the paper's baseline regularizer).
//!
//! ProxylessNAS's "Flops penalty" baseline regularizes the search with the
//! expected floating-point operation count of the sampled network — a
//! hardware-*agnostic* proxy. The FLOPs are those of the real 2-D backbone
//! the architecture denotes, taken from the [`NetworkTemplate`].

use dance_accel::workload::{NetworkTemplate, SlotChoice};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;

use crate::arch::ArchParams;

/// Per-slot FLOPs of each candidate (2 × MACs), in
/// [`SlotChoice::CANDIDATES`] order.
pub fn slot_flops(template: &NetworkTemplate) -> Vec<[f64; 7]> {
    template
        .slots()
        .iter()
        .map(|slot| {
            let mut row = [0.0; 7];
            for (i, &choice) in SlotChoice::CANDIDATES.iter().enumerate() {
                let macs: u64 = slot.layers(choice).iter().map(|l| l.macs()).sum();
                row[i] = 2.0 * macs as f64;
            }
            row
        })
        .collect()
}

/// Total FLOPs of the heaviest network expressible in the template
/// (normalization constant).
pub fn max_flops(template: &NetworkTemplate) -> f64 {
    2.0 * template.max_network().total_macs() as f64
}

/// The differentiable expected-FLOPs penalty, normalized to `[0, ~1]` by the
/// heaviest network: `Σ_slots ⟨softmax(α_slot), flops_slot⟩ / max_flops`.
///
/// # Panics
///
/// Panics if the template and architecture disagree on slot count.
pub fn expected_flops_penalty(arch: &ArchParams, template: &NetworkTemplate) -> Var {
    let table = slot_flops(template);
    assert_eq!(table.len(), arch.num_slots(), "slot count mismatch");
    let norm = max_flops(template) as f32;
    let probs = arch.probs();
    let mut acc: Option<Var> = None;
    for (p, row) in probs.iter().zip(table.iter()) {
        let col = Var::constant(Tensor::from_vec(
            row.iter().map(|&f| f as f32 / norm).collect(),
            &[7, 1],
        ));
        let term = p.matmul(&col); // [1,1]
        acc = Some(match acc {
            Some(a) => a.add(&term),
            None => term,
        });
    }
    acc.expect("templates always have slots").reshape(&[1])
}

/// Expected FLOPs (absolute, not normalized) of a soft architecture —
/// reporting helper.
pub fn expected_flops(arch: &ArchParams, template: &NetworkTemplate) -> f64 {
    let table = slot_flops(template);
    let probs = arch.probs_matrix();
    let fixed: f64 = {
        let zero_choices = vec![SlotChoice::Zero; template.num_slots()];
        let zero_net = template.instantiate(&zero_choices);
        let zero_total = 2.0 * zero_net.total_macs() as f64;
        let zero_slots: f64 = table.iter().map(|row| row[SlotChoice::Zero.index()]).sum();
        zero_total - zero_slots
    };
    fixed
        + probs
            .iter()
            .zip(table.iter())
            .map(|(p, row)| {
                p.iter()
                    .zip(row.iter())
                    .map(|(&pi, &fi)| pi as f64 * fi)
                    .sum::<f64>()
            })
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn heavier_candidates_cost_more_flops() {
        let table = slot_flops(&NetworkTemplate::cifar10());
        for row in &table {
            // MB3x3_e3 < MB7x7_e6; Zero is the cheapest.
            assert!(row[0] < row[5]);
            assert!(row[6] <= row[0]);
        }
    }

    #[test]
    fn penalty_increases_with_heavier_architecture() {
        let t = NetworkTemplate::cifar10();
        let light = ArchParams::from_choices(&[SlotChoice::Zero; 9], 30.0);
        let heavy = ArchParams::from_choices(
            &[SlotChoice::MbConv {
                kernel: 7,
                expand: 6,
            }; 9],
            30.0,
        );
        let pl = expected_flops_penalty(&light, &t).item();
        let ph = expected_flops_penalty(&heavy, &t).item();
        assert!(ph > pl * 2.0, "light {pl} heavy {ph}");
        assert!(ph <= 1.01, "normalization exceeded 1: {ph}");
    }

    #[test]
    fn penalty_is_differentiable() {
        let mut rng = StdRng::seed_from_u64(0);
        let arch = ArchParams::new(9, &mut rng);
        expected_flops_penalty(&arch, &NetworkTemplate::cifar10()).backward();
        for a in arch.parameters() {
            assert!(a.grad().is_some());
        }
    }

    #[test]
    fn expected_flops_matches_discrete_network_for_sharp_arch() {
        let t = NetworkTemplate::cifar10();
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 5,
                expand: 6
            };
            9
        ];
        let arch = ArchParams::from_choices(&choices, 60.0);
        let soft = expected_flops(&arch, &t);
        let hard = 2.0 * t.instantiate(&choices).total_macs() as f64;
        assert!(
            (soft - hard).abs() / hard < 1e-3,
            "soft {soft} vs hard {hard}"
        );
    }
}
