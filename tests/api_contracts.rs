//! API-contract tests: the error behaviour and panics a downstream user
//! relies on, exercised across crate boundaries.

use dance::prelude::*;
use rand::SeedableRng;

#[test]
fn config_validation_errors_are_descriptive() {
    let err = AcceleratorConfig::new(30, 12, 16, Dataflow::RowStationary).unwrap_err();
    assert!(err.to_string().contains("PE_x = 30"));
    let err = AcceleratorConfig::new(12, 12, 7, Dataflow::RowStationary).unwrap_err();
    assert!(err.to_string().contains("register file size 7"));
    // ConfigError implements std::error::Error, so it boxes cleanly.
    let _boxed: Box<dyn std::error::Error> = Box::new(err);
}

#[test]
#[should_panic(expected = "set_value shape mismatch")]
fn var_set_value_rejects_shape_change() {
    let v = Var::parameter(Tensor::zeros(&[2, 2]));
    v.set_value(Tensor::zeros(&[4]));
}

#[test]
#[should_panic(expected = "matmul inner dims")]
fn matmul_dimension_mismatch_panics() {
    let a = Tensor::zeros(&[2, 3]);
    let b = Tensor::zeros(&[4, 2]);
    let _ = a.matmul(&b);
}

#[test]
#[should_panic(expected = "slot count mismatch")]
fn search_rejects_wrong_arch_width() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let net = Supernet::new(SupernetConfig::cifar(), &mut rng);
    let arch = ArchParams::new(5, &mut rng); // wrong: supernet has 9 slots
    let data = synth_cifar(0);
    let _ = dance_search(&net, &arch, &data, &Penalty::None, &SearchConfig::default());
}

#[test]
fn display_impls_are_informative() {
    assert_eq!(
        AcceleratorConfig::default().to_string(),
        "14x12 PEs, RF 16 words, RS"
    );
    assert_eq!(
        SlotChoice::MbConv {
            kernel: 5,
            expand: 6
        }
        .to_string(),
        "MB5x5_e6"
    );
    assert_eq!(SlotChoice::Zero.to_string(), "Zero");
    assert_eq!(Dataflow::WeightStationary.to_string(), "WS");
    let layer = ConvLayer::new(64, 32, 16, 16, 3, 3, 2);
    assert!(layer.to_string().contains("stride 2"));
}

#[test]
fn tensor_debug_is_never_empty() {
    let small = format!("{:?}", Tensor::zeros(&[2]));
    assert!(small.contains("Tensor[2]"));
    let large = format!("{:?}", Tensor::zeros(&[100]));
    assert!(large.contains("100 values"));
}

#[test]
fn common_types_are_send_and_sync_where_needed() {
    fn assert_send_sync<T: Send + Sync>() {}
    // Everything that crosses the ground-truth generation threads.
    assert_send_sync::<Tensor>();
    assert_send_sync::<AcceleratorConfig>();
    assert_send_sync::<ConvLayer>();
    assert_send_sync::<Network>();
    assert_send_sync::<HardwareSpace>();
    assert_send_sync::<CostTable>();
    assert_send_sync::<HardwareCost>();
    assert_send_sync::<CostSample>();
}

#[test]
fn default_configs_are_internally_consistent() {
    let s = SearchConfig::default();
    assert!(s.epochs > 0 && s.batch_size > 0 && s.lr_weights > 0.0);
    let r = RetrainConfig::default();
    assert!(r.epochs > 0);
    let e = EvaluatorSizes::default();
    assert!(e.hwgen_samples > 0 && e.cost_samples > 0);
    let rl = RlConfig::default();
    assert!(rl.candidates > 0);
}

#[test]
fn cost_table_rejects_wrong_slot_count() {
    let template = NetworkTemplate::cifar10();
    let table = CostTable::new(&template, &CostModel::new(), &HardwareSpace::new());
    let result = std::panic::catch_unwind(|| table.cost(&[SlotChoice::Zero; 4], 0));
    assert!(result.is_err(), "short slot vector must panic");
}

#[test]
fn evaluator_rejects_wrong_encoding_width() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let hwgen = HwGenNet::new(63, 16, &mut rng);
    let cost = CostNet::new(63 + ENCODED_WIDTH, 16, &mut rng);
    let e = Evaluator::with_feature_forwarding(hwgen, cost, 63, HeadSampling::Gumbel { tau: 1.0 });
    e.freeze();
    let bad = Var::constant(Tensor::zeros(&[1, 50]));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        e.predict_metrics(&bad, &mut r)
    }));
    assert!(result.is_err(), "wrong encoding width must panic");
}

#[test]
fn batcher_rejects_zero_batch_size() {
    let data = synth_cifar(0);
    let result = std::panic::catch_unwind(|| Batcher::new(&data.train, 0));
    assert!(result.is_err());
}

#[test]
fn result_table_csv_is_parseable_back() {
    let mut t = ResultTable::new("t", &["a", "b"]);
    t.push_row(vec!["1.5".into(), "x,y".into()]);
    let csv = t.to_csv();
    let second_line = csv.lines().nth(1).unwrap();
    assert_eq!(second_line, "1.5,\"x,y\"");
}
