//! Memory used before the measured ops must not set `peak_rss_mib`.
//! Alone in its test binary, so no other test's allocations overlap.

use fieldclust::FieldTypeClusterer;
use perfbench::{rss, run, Settings, Workload};

const SETUP_MIB: usize = 384;

#[test]
fn a_large_setup_allocation_does_not_leak_into_peak_rss() {
    // Touch every page so the allocation is resident, then free it.
    let big = vec![1u8; SETUP_MIB << 20];
    assert_eq!(
        big.iter()
            .step_by(4096)
            .map(|&b| usize::from(b))
            .sum::<usize>(),
        big.len() / 4096
    );
    drop(big);
    assert!(
        rss::peak_mib() >= SETUP_MIB as f64,
        "the allocation was resident"
    );

    let w = Workload::by_name("dhcp-report")
        .expect("known workload")
        .scaled(40, 1);
    let s = Settings {
        workload: w,
        seed: 1,
        seconds: 0.0,
        trace: false,
        clusterer: FieldTypeClusterer {
            threads: 1,
            ..FieldTypeClusterer::default()
        },
        pinned: vec![None],
        work_dir: std::env::temp_dir().join(format!("perfbench-rss-{}", std::process::id())),
    };
    let outcome = run(&s).expect("run");
    let peak = outcome
        .metrics
        .iter()
        .find(|m| m.name == "peak_rss_mib")
        .expect("peak_rss_mib emitted")
        .value;
    assert!(peak > 0.0);
    assert!(
        peak < (SETUP_MIB / 2) as f64,
        "peak_rss_mib {peak} still counts the {SETUP_MIB} MiB freed before the ops"
    );
}
