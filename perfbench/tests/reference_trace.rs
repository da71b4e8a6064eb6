//! The `trace-1k` generator path, pinned to the checked-in reference:
//! seed 42 with `GeneratorConfig::default()` (2000 VMs over the default
//! 7200 s horizon, i.e. `snooze-tracegen --seed 42 --vms 2000`) must
//! reproduce `traces/azure_diurnal_2k.csv` byte for byte.

use snooze_trace::GeneratorConfig;

#[test]
fn seed_42_default_config_reproduces_the_reference_trace() {
    let cfg = GeneratorConfig::default();
    assert_eq!((cfg.vms, cfg.horizon_s), (2000, 7200.0));
    let generated = snooze_trace::csv::to_string(&snooze_trace::generate(&cfg, 42));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../traces/azure_diurnal_2k.csv"
    );
    let reference = std::fs::read_to_string(path).expect("the reference trace is checked in");
    assert!(
        generated == reference,
        "generated trace differs from {path}"
    );
}
